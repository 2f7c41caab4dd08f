package engine

import (
	"fmt"
	"math"
	"strings"

	"github.com/qamarket/qamarket/internal/driver"
	"github.com/qamarket/qamarket/internal/sqldb"
)

// Typed keys. GROUP BY and the hash join match values by
// sqldb.Value.GroupKey; over a NULL-free column of one kind the same
// equivalence has an unboxed form, and these are the key functions that
// produce it, by position of a relation. Numbers — ints and floats
// alike — key by the bits of their float64 image, which is what
// GroupKey formats: ints that round to one float64 share a key, -0 and
// +0 do not, and every NaN is the one "NaN". Texts and bools key by
// themselves. Every other column keeps the boxed GroupKey string, and
// reports NULL, which never joins.

var nanKey = math.Float64bits(math.NaN())

func numberBits(f float64) uint64 {
	if f != f {
		return nanKey
	}
	return math.Float64bits(f)
}

func isNumeric(kind byte) bool {
	return kind == driver.KindByteInt || kind == driver.KindByteFloat
}

// numericKeys is the key function of a uniform numeric column of rel.
func numericKeys(rel *erel, vec *colVec) func(int) (uint64, bool) {
	if vec.uniform() == driver.KindByteInt {
		return func(k int) (uint64, bool) { return numberBits(float64(vec.ints[rel.row(k)])), true }
	}
	return func(k int) (uint64, bool) { return numberBits(vec.floats[rel.row(k)]), true }
}

func textKeys(rel *erel, vec *colVec) func(int) (string, bool) {
	return func(k int) (string, bool) { return vec.texts[rel.row(k)], true }
}

func boolKeys(rel *erel, vec *colVec) func(int) (bool, bool) {
	return func(k int) (bool, bool) { return vec.bools[rel.row(k)], true }
}

// boxedKeys is the key function of any column: the GroupKey string.
func boxedKeys(rel *erel, vec *colVec) func(int) (string, bool) {
	return func(k int) (string, bool) {
		v := vec.value(int(rel.row(k)))
		return v.GroupKey(), !v.IsNull()
	}
}

// numberKeys numbers the keys of positions 0..len(ids)-1 by first
// appearance, writing each position's number to ids (-1 for a NULL key)
// and returning the numbering and each number's first position.
func numberKeys[K comparable](ids []int32, key func(int) (K, bool)) (map[K]int32, []int32) {
	seen := make(map[K]int32)
	var first []int32
	for k := range ids {
		kk, ok := key(k)
		if !ok {
			ids[k] = -1
			continue
		}
		id, dup := seen[kk]
		if !dup {
			id = int32(len(first))
			seen[kk] = id
			first = append(first, int32(k))
		}
		ids[k] = id
	}
	return seen, first
}

// bucketRows lists a relation's rows bucket after bucket, in relation
// order within each: rows[start[b]:start[b+1]] are bucket b's. ids
// gives each position's bucket, -1 for none.
func bucketRows(ids []int32, buckets int, rel *erel) (start, rows []int32) {
	start = make([]int32, buckets+1)
	for _, id := range ids {
		if id >= 0 {
			start[id+1]++
		}
	}
	for b := 0; b < buckets; b++ {
		start[b+1] += start[b]
	}
	rows = make([]int32, start[buckets])
	fill := append([]int32(nil), start[:buckets]...)
	for k, id := range ids {
		if id >= 0 {
			rows[fill[id]] = rel.row(k)
			fill[id]++
		}
	}
	return start, rows
}

// grouping is one grouped evaluation: the relation's rows partitioned
// into groups numbered by first appearance, the row engine's output
// order.
type grouping struct {
	e     *DB
	rel   *erel
	gid   []int32 // group of each position; nil = one group holds them all
	first []int32 // per group, the row of its first member; -1 when it has none
	size  []int64 // per group, its rows
	folds map[*sqldb.AggExpr]*typedFold
	// start and rows list each group's rows, group after group; built
	// when an aggregate without a typed fold first asks (members).
	start, rows []int32
}

// executeGrouped is the aggregation path: group on the GROUP BY keys
// (one global group when absent, even over empty input) and fold each
// select item per group, mirroring the row engine's grouping order and
// key construction byte for byte. Aggregates over NULL-free numeric
// columns fold for all groups in one pass over the selection into
// per-group accumulators; every other shape folds group by group
// through the scalar mirror.
func (e *DB) executeGrouped(s *sqldb.SelectStmt, rel *erel, orderExprs []sqldb.Expr, sc *scratch) ([]string, []vres, []vres, int, error) {
	names := make([]string, len(s.Items))
	exprs := make([]sqldb.Expr, 0, len(s.Items)+len(orderExprs))
	for i, it := range s.Items {
		if it.Star {
			return nil, nil, nil, 0, fmt.Errorf("sqldb: SELECT * cannot be combined with aggregation")
		}
		names[i] = sqldb.ItemName(it)
		exprs = append(exprs, it.Expr)
	}
	exprs = append(exprs, orderExprs...)
	g, err := e.groupRows(s.GroupBy, rel, sc)
	if err != nil {
		return nil, nil, nil, 0, err
	}
	if rel.n > 0 {
		for _, ex := range exprs {
			g.planFolds(ex)
		}
	}
	// Group-major, item-minor: the order the row engine evaluates in,
	// so the first error it would meet is the first met here.
	out := make([]vres, len(exprs))
	for i := range out {
		out[i].vec = &colVec{}
	}
	for grp := range g.first {
		for i, ex := range exprs {
			v, err := g.eval(ex, grp)
			if err != nil {
				return nil, nil, nil, 0, err
			}
			out[i].vec.appendVal(v)
		}
	}
	return names, out[:len(names)], out[len(names):], len(g.first), nil
}

// groupRows partitions the relation. A single key that is a NULL-free
// column of one kind is numbered by its typed key; any other key list
// builds the row engine's key string per row.
func (e *DB) groupRows(keys []sqldb.Expr, rel *erel, sc *scratch) (*grouping, error) {
	g := &grouping{e: e, rel: rel}
	if len(keys) == 0 {
		// A global aggregate over an empty input still yields one row.
		g.first, g.size = []int32{-1}, []int64{int64(rel.n)}
		if rel.n > 0 {
			g.first[0] = rel.row(0)
		}
		return g, nil
	}
	if rel.n == 0 {
		return g, nil
	}
	g.gid = sc.borrow(rel.n)[:rel.n]
	var vec *colVec
	if len(keys) == 1 {
		vec = plainColumn(keys[0], rel)
	}
	if vec != nil && vec.uniform() != 0 {
		switch vec.uniform() {
		case driver.KindByteText:
			_, g.first = numberKeys(g.gid, textKeys(rel, vec))
		case driver.KindByteBool:
			_, g.first = numberKeys(g.gid, boolKeys(rel, vec))
		default:
			_, g.first = numberKeys(g.gid, numericKeys(rel, vec))
		}
	} else {
		gvals := make([]vres, len(keys))
		for i, k := range keys {
			v, err := e.evalVec(k, rel, rel.sel, rel.n)
			if err != nil {
				return nil, err
			}
			gvals[i] = v
		}
		var kb strings.Builder
		_, g.first = numberKeys(g.gid, func(k int) (string, bool) {
			kb.Reset()
			for i := range gvals {
				kb.WriteString(gvals[i].value(k).GroupKey())
				kb.WriteByte('|')
			}
			return kb.String(), true
		})
	}
	g.size = make([]int64, len(g.first))
	for _, id := range g.gid {
		g.size[id]++
	}
	for id, k := range g.first {
		g.first[id] = rel.row(int(k))
	}
	return g, nil
}

// plainColumn returns the relation's vector when the expression is a
// plain column reference that resolves, else nil.
func plainColumn(ex sqldb.Expr, rel *erel) *colVec {
	c, ok := ex.(*sqldb.ColumnRef)
	if !ok {
		return nil
	}
	i, err := rel.resolve(c)
	if err != nil {
		return nil // the scalar mirror raises it where the row engine would
	}
	return rel.vecs[i]
}

// typedFold is one aggregate over a NULL-free numeric column, folded
// for every group at once. Rows are visited in relation order, so each
// group's float64 sum adds up in the order the row engine's does and
// MIN/MAX keep the first row achieving the extreme under strict float64
// comparison — Compare's tie behavior. It holds only what its function
// reads: COUNT needs neither array.
type typedFold struct {
	vec    *colVec
	sum    []float64 // SUM, AVG
	lo, hi []int32   // MIN, MAX: the rows holding them
}

// planFolds gives every aggregate the grouped evaluation will reach
// (eval's recursion) and that has a typed fold its accumulators. The
// folds cannot raise, so running them before the group-major evaluation
// reorders no error.
func (g *grouping) planFolds(ex sqldb.Expr) {
	switch x := ex.(type) {
	case *sqldb.BinaryExpr:
		g.planFolds(x.Left)
		g.planFolds(x.Right)
	case *sqldb.UnaryExpr:
		g.planFolds(x.X)
	case *sqldb.AggExpr:
		if x.Star || g.folds[x] != nil {
			return
		}
		vec := plainColumn(x.Arg, g.rel)
		if vec == nil || !isNumeric(vec.uniform()) {
			return
		}
		f := &typedFold{vec: vec}
		switch x.Func {
		case "COUNT":
		case "SUM", "AVG":
			f.sum = make([]float64, len(g.first))
			if vec.uniform() == driver.KindByteInt {
				foldSums(f.sum, vec.ints, g)
			} else {
				foldSums(f.sum, vec.floats, g)
			}
		case "MIN", "MAX":
			f.lo, f.hi = append([]int32(nil), g.first...), append([]int32(nil), g.first...)
			if vec.uniform() == driver.KindByteInt {
				foldExtremes(f.lo, f.hi, vec.ints, g)
			} else {
				foldExtremes(f.lo, f.hi, vec.floats, g)
			}
		default:
			return
		}
		if g.folds == nil {
			g.folds = make(map[*sqldb.AggExpr]*typedFold)
		}
		g.folds[x] = f
	}
}

func foldSums[T int64 | float64](sum []float64, vals []T, g *grouping) {
	for k := 0; k < g.rel.n; k++ {
		id := int32(0)
		if g.gid != nil {
			id = g.gid[k]
		}
		sum[id] += float64(vals[g.rel.row(k)])
	}
}

// foldExtremes starts from each group's first row in lo and hi.
func foldExtremes[T int64 | float64](lo, hi []int32, vals []T, g *grouping) {
	for k := 0; k < g.rel.n; k++ {
		id := int32(0)
		if g.gid != nil {
			id = g.gid[k]
		}
		r := g.rel.row(k)
		f := float64(vals[r])
		if f < float64(vals[lo[id]]) {
			lo[id] = r
		}
		if f > float64(vals[hi[id]]) {
			hi[id] = r
		}
	}
}

// eval mirrors the row engine's grouped evaluation for one group:
// aggregate nodes fold the group's rows, arithmetic combines folded
// operands, and anything else evaluates against the group's first row
// (NULL for an empty group).
func (g *grouping) eval(ex sqldb.Expr, grp int) (sqldb.Value, error) {
	switch x := ex.(type) {
	case *sqldb.AggExpr:
		return g.fold(x, grp)
	case *sqldb.BinaryExpr:
		l, err := g.eval(x.Left, grp)
		if err != nil {
			return sqldb.Null, err
		}
		r, err := g.eval(x.Right, grp)
		if err != nil {
			return sqldb.Null, err
		}
		return sqldb.ApplyBinary(x.Op, l, r)
	case *sqldb.UnaryExpr:
		v, err := g.eval(x.X, grp)
		if err != nil {
			return sqldb.Null, err
		}
		return sqldb.ApplyUnary(x.Op, v)
	default:
		if g.first[grp] < 0 {
			return sqldb.Null, nil
		}
		return g.e.evalScalar(ex, g.rel, int(g.first[grp]))
	}
}

// fold finishes one aggregate for one group: from its typed
// accumulators when it has them, otherwise by replaying the row
// engine's fold (NULL skipping, float64 sums, the int-preserving SUM,
// first-wins ties in MIN/MAX) value by value over the group's rows.
func (g *grouping) fold(a *sqldb.AggExpr, grp int) (sqldb.Value, error) {
	if a.Star {
		return sqldb.NewInt(g.size[grp]), nil
	}
	if f := g.folds[a]; f != nil {
		var sum float64
		var minV, maxV sqldb.Value
		if f.sum != nil {
			sum = f.sum[grp]
		}
		if f.lo != nil {
			minV, maxV = f.vec.value(int(f.lo[grp])), f.vec.value(int(f.hi[grp]))
		}
		return finishFold(a.Func, g.size[grp], sum, f.vec.uniform() == driver.KindByteInt, minV, maxV)
	}
	var count int64
	var sum float64
	allInt := true
	var minV, maxV sqldb.Value
	first := true
	for _, ri := range g.members(grp) {
		v, err := g.e.evalScalar(a.Arg, g.rel, int(ri))
		if err != nil {
			return sqldb.Null, err
		}
		if v.IsNull() {
			continue
		}
		count++
		if f, ok := v.AsFloat(); ok {
			sum += f
			if v.Kind != sqldb.KindInt {
				allInt = false
			}
		} else if a.Func == "SUM" || a.Func == "AVG" {
			return sqldb.Null, fmt.Errorf("sqldb: %s over non-numeric value %s", a.Func, v)
		}
		if first || sqldb.Compare(v, minV) < 0 {
			minV = v
		}
		if first || sqldb.Compare(v, maxV) > 0 {
			maxV = v
		}
		first = false
	}
	return finishFold(a.Func, count, sum, allInt, minV, maxV)
}

// members lists the rows of one group, in relation order.
func (g *grouping) members(grp int) []int32 {
	if g.gid == nil {
		if g.rel.sel == nil {
			return identity(0, g.rel.n)
		}
		return g.rel.sel
	}
	if g.start == nil {
		g.start, g.rows = bucketRows(g.gid, len(g.first), g.rel)
	}
	return g.rows[g.start[grp]:g.start[grp+1]]
}
