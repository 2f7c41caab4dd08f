package engine

import (
	"fmt"
	"hash/maphash"
	"math"
	"math/bits"
	"strings"

	"github.com/qamarket/qamarket/internal/driver"
	"github.com/qamarket/qamarket/internal/sqldb"
)

// Typed keys. GROUP BY and the hash join match values by
// sqldb.Value.GroupKey; over a NULL-free column of one kind the same
// equivalence has an unboxed form. Numbers — ints and floats alike —
// key by the bits of their float64 image, which is what GroupKey
// formats: ints that round to one float64 share a key, -0 and +0 do
// not, and every NaN is the one "NaN". Texts key by themselves and
// bools as the numbers 0 and 1. Every other column keys by the boxed
// GroupKey string, and its NULLs get no key: they never join.

var nanKey = math.Float64bits(math.NaN())

func numberBits(f float64) uint64 {
	if f != f {
		return nanKey
	}
	return math.Float64bits(f)
}

// keyClass is what two NULL-free one-kind columns must share for their
// typed keys to be comparable: 'n' for numbers of either kind, the kind
// itself for texts and bools, 0 for a column that has no typed key.
func keyClass(kind byte) byte {
	if kind == driver.KindByteInt || kind == driver.KindByteFloat {
		return 'n'
	}
	return kind
}

// keyTable numbers keys by first appearance: the row engine's group
// order, and the bucket numbers of a join's build side. It is an
// open-addressing table (power-of-two, linear probing) whose slots hold
// key numbers; the keys themselves sit in number order beside it. One
// table holds numbers or texts, never both.
type keyTable struct {
	sc    *scratch
	slots []int32 // 1 + the number of the key in the slot, 0 when empty
	shift uint    // 64 - log2(len(slots)): a hash's top bits are its slot
	nums  []uint64
	texts []string
}

// maxInitialKeys bounds the keys a table starts with room for, so
// grouping 100k rows into 100 groups does not clear a 100k-key table
// first; a column with more distinct keys than this doubles its way up.
const maxInitialKeys = 1024

// newKeyTable sizes the table from the n positions it will be fed, at
// four slots a key: a 50-row join side pays for 256 slots, and a
// 100-key dimension gets 512, where all but one of its keys sit in
// their hash's own slot (at 256, 13 do not), which is the slot
// numberIDs reads without a walk.
func newKeyTable(sc *scratch, n int) *keyTable {
	t := &keyTable{sc: sc}
	t.resize(max(3, bits.Len(uint(4*min(n, maxInitialKeys)))))
	return t
}

func (t *keyTable) len() int { return len(t.nums) + len(t.texts) }

// resize gives the table 2^log empty slots and puts its keys back: each
// is distinct, so its probe ends at an empty slot.
func (t *keyTable) resize(log int) {
	t.slots = t.sc.borrow(1 << log)[:1<<log]
	clear(t.slots)
	t.shift = uint(64 - log)
	for id, key := range t.nums {
		_, h := probe(t, t.nums, hashNumber(key), key)
		t.slots[h] = int32(id) + 1
	}
	for id, key := range t.texts {
		_, h := probe(t, t.texts, hashText(key), key)
		t.slots[h] = int32(id) + 1
	}
}

// hashNumber is Fibonacci hashing. The slot is the product's top bits
// because the keys' entropy is at the top: the float64 images of small
// integers share some 46 trailing zero bits, which the low bits of any
// product keep.
func hashNumber(key uint64) uint64 { return key * 0x9E3779B97F4A7C15 }

var textSeed = maphash.MakeSeed()

func hashText(key string) uint64 { return maphash.String(textSeed, key) }

// probe walks from a hash's slot to the key's — returning its number —
// or to the empty slot where the walk ends, returning -1 and the slot.
func probe[K comparable](t *keyTable, keys []K, hash uint64, key K) (int32, uint64) {
	for h := hash >> t.shift; ; h = (h + 1) & uint64(len(t.slots)-1) {
		id := t.slots[h] - 1
		if id < 0 || keys[id] == key {
			return id, h
		}
	}
}

// number returns the number of a key, giving it the next one when it is
// new and add is set and -1 when it is new and add is not.
func (t *keyTable) number(key uint64, add bool) int32 {
	id, h := probe(t, t.nums, hashNumber(key), key)
	if id < 0 && add {
		t.nums = append(t.nums, key)
		id = t.fill(h)
	}
	return id
}

// text is number for a text key.
func (t *keyTable) text(key string, add bool) int32 {
	id, h := probe(t, t.texts, hashText(key), key)
	if id < 0 && add {
		t.texts = append(t.texts, key)
		id = t.fill(h)
	}
	return id
}

// fill puts the key just appended in the empty slot its probe ended at,
// and doubles the table once it is half full.
func (t *keyTable) fill(h uint64) int32 {
	n := t.len()
	t.slots[h] = int32(n)
	if 2*n > len(t.slots) {
		t.resize(65 - int(t.shift))
	}
	return int32(n - 1)
}

// ids writes to dst the key number of each position of a column read
// through sel (nil = the column's first len(dst) rows), in position
// order, so with add set the numbers come out in order of first
// appearance. Without add an unseen key is -1. typed says the column's
// one kind keys unboxed; otherwise the key is the GroupKey string and a
// NULL's number is -1.
func (t *keyTable) ids(dst []int32, vec *colVec, sel []int32, typed, add bool) {
	switch kind := vec.uniform(); {
	case !typed:
		for k := range dst {
			if v := vec.value(rowAt(sel, k)); v.IsNull() {
				dst[k] = -1
			} else {
				dst[k] = t.text(v.GroupKey(), add)
			}
		}
	case kind == driver.KindByteInt:
		numberIDs(t, dst, vec.ints, sel, add)
	case kind == driver.KindByteFloat:
		numberIDs(t, dst, vec.floats, sel, add)
	case kind == driver.KindByteBool:
		for k := range dst {
			key := uint64(0)
			if vec.bools[rowAt(sel, k)] {
				key = 1
			}
			dst[k] = t.number(key, add)
		}
	case len(sel) > len(vec.texts):
		// More positions than rows — a dimension's column behind a join:
		// look each row up once and remember its number (as 2 + id, so
		// that 0 is "not looked up yet" and 1 a miss).
		rowID := t.sc.borrow(len(vec.texts))[:len(vec.texts)]
		clear(rowID)
		for k, r := range sel {
			if rowID[r] == 0 {
				rowID[r] = 2 + t.text(vec.texts[r], add)
			}
			dst[k] = rowID[r] - 2
		}
	default:
		for k := range dst {
			dst[k] = t.text(vec.texts[rowAt(sel, k)], add)
		}
	}
}

// numberIDs is ids over a numeric column. A key found in its hash's own
// slot — nearly every row of a column with few keys — is read here, from
// locals the stores to dst cannot alias; anything else takes the table's
// general walk, which may move the table.
func numberIDs[T int64 | float64](t *keyTable, dst []int32, vals []T, sel []int32, add bool) {
	slots, nums, shift := t.slots, t.nums, t.shift
	for k := range dst {
		key := numberBits(float64(vals[rowAt(sel, k)]))
		id := slots[hashNumber(key)>>shift] - 1
		if id < 0 || nums[id] != key {
			id = t.number(key, add)
			slots, nums, shift = t.slots, t.nums, t.shift
		}
		dst[k] = id
	}
}

// bucketRows lists positions bucket after bucket, in order within each:
// rows[start[b]:start[b+1]] are bucket b's. ids gives each position's
// bucket, -1 for none.
func bucketRows(ids []int32, buckets int, sc *scratch) (start, rows []int32) {
	start = sc.borrow(buckets + 1)[:buckets+1]
	clear(start)
	for _, id := range ids {
		if id >= 0 {
			start[id+1]++
		}
	}
	for b := 0; b < buckets; b++ {
		start[b+1] += start[b]
	}
	rows = sc.borrow(int(start[buckets]))[:start[buckets]]
	fill := append(sc.borrow(buckets), start[:buckets]...)
	for k, id := range ids {
		if id >= 0 {
			rows[fill[id]] = int32(k)
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
	sc    *scratch
	gid   []int32 // group of each position; nil = one group holds them all
	first []int32 // per group, the position of its first member; -1 when it has none
	size  []int64 // per group, its rows
	folds map[*sqldb.AggExpr]*typedFold
	// start and rows list each group's positions, group after group;
	// built when an aggregate without a typed fold first asks (members).
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
func (e *DB) groupRows(keys []sqldb.Expr, rel *erel, sc *scratch) (grouping, error) {
	g := grouping{e: e, rel: rel, sc: sc}
	if len(keys) == 0 {
		// A global aggregate over an empty input still yields one row.
		g.first, g.size = []int32{-1}, []int64{int64(rel.n)}
		if rel.n > 0 {
			g.first[0] = 0
		}
		return g, nil
	}
	if rel.n == 0 {
		return g, nil
	}
	g.gid = sc.borrow(rel.n)[:rel.n]
	t := newKeyTable(sc, rel.n)
	var col *ecol
	if len(keys) == 1 {
		col = plainColumn(keys[0], rel)
	}
	if col != nil && col.vec.uniform() != 0 {
		t.ids(g.gid, col.vec, col.sel, true, true)
	} else {
		gvals := make([]vres, len(keys))
		for i, k := range keys {
			v, err := e.evalVec(k, rel, nil, rel.n)
			if err != nil {
				return grouping{}, err
			}
			gvals[i] = v
		}
		var kb strings.Builder
		for k := range g.gid {
			kb.Reset()
			for i := range gvals {
				kb.WriteString(gvals[i].value(k).GroupKey())
				kb.WriteByte('|')
			}
			g.gid[k] = t.text(kb.String(), true)
		}
	}
	g.first, g.size = make([]int32, t.len()), make([]int64, t.len())
	for k, id := range g.gid {
		if g.size[id] == 0 {
			g.first[id] = int32(k)
		}
		g.size[id]++
	}
	return g, nil
}

// plainColumn returns the relation's column when the expression is a
// plain column reference that resolves, else nil.
func plainColumn(ex sqldb.Expr, rel *erel) *ecol {
	c, ok := ex.(*sqldb.ColumnRef)
	if !ok {
		return nil
	}
	i, err := rel.resolve(c)
	if err != nil {
		return nil // the scalar mirror raises it where the row engine would
	}
	return &rel.cols[i]
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
		col := plainColumn(x.Arg, g.rel)
		if col == nil || keyClass(col.vec.uniform()) != 'n' {
			return
		}
		vec, sel := col.vec, col.sel
		f := &typedFold{vec: vec}
		switch x.Func {
		case "COUNT":
		case "SUM", "AVG":
			f.sum = make([]float64, len(g.first))
			if vec.uniform() == driver.KindByteInt {
				foldSums(f.sum, vec.ints, sel, g.gid, g.rel.n)
			} else {
				foldSums(f.sum, vec.floats, sel, g.gid, g.rel.n)
			}
		case "MIN", "MAX":
			f.lo, f.hi = make([]int32, len(g.first)), make([]int32, len(g.first))
			for id, k := range g.first {
				f.lo[id], f.hi[id] = int32(rowAt(sel, int(k))), int32(rowAt(sel, int(k)))
			}
			if vec.uniform() == driver.KindByteInt {
				foldExtremes(f.lo, f.hi, vec.ints, sel, g.gid, g.rel.n)
			} else {
				foldExtremes(f.lo, f.hi, vec.floats, sel, g.gid, g.rel.n)
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

// foldSums adds the column's values, read through its own selection in
// relation order, into their groups' sums. One group (gid nil) keeps
// its running sum in a local, which the compiler holds in a register:
// the additions are the same in the same order, so the sum has the
// same bits.
func foldSums[T int64 | float64](sum []float64, vals []T, sel, gid []int32, n int) {
	if gid == nil {
		s := sum[0]
		if sel == nil {
			for _, v := range vals[:n] {
				s += float64(v)
			}
		} else {
			for _, i := range sel[:n] {
				s += float64(vals[i])
			}
		}
		sum[0] = s
		return
	}
	for k := 0; k < n; k++ {
		sum[gid[k]] += float64(vals[rowAt(sel, k)])
	}
}

// foldExtremes starts from each group's first row in lo and hi.
func foldExtremes[T int64 | float64](lo, hi []int32, vals []T, sel, gid []int32, n int) {
	for k := 0; k < n; k++ {
		id := int32(0)
		if gid != nil {
			id = gid[k]
		}
		r := int32(rowAt(sel, k))
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

// members lists the positions of one group, in relation order.
func (g *grouping) members(grp int) []int32 {
	if g.rows == nil {
		if g.gid == nil {
			g.rows = identity(0, g.rel.n)
		} else {
			g.start, g.rows = bucketRows(g.gid, len(g.first), g.sc)
		}
	}
	if g.gid == nil {
		return g.rows
	}
	return g.rows[g.start[grp]:g.start[grp+1]]
}
