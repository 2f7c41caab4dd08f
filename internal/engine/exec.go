package engine

import (
	"fmt"
	"sort"
	"strings"
	"sync"

	"github.com/qamarket/qamarket/internal/driver"
	"github.com/qamarket/qamarket/internal/sqldb"
)

// ebind names one column of an intermediate relation.
type ebind struct {
	qual string
	name string
}

// erel is the one intermediate form every operator reads and writes:
// column vectors plus one selection vector. The vectors alias table
// storage (or the output of a pipeline breaker below) and are never
// copied to drop a row; sel lists the rows the relation holds, in
// order, and filters only ever replace it. A join's output holds a nil
// vector for every column nothing after the join can name.
type erel struct {
	cols []ebind
	vecs []*colVec
	sel  []int32 // nil = every row of the vectors
	n    int     // rows in the relation: len(sel), or the vectors' length
	// card is the row count the row engine's relation has at this point
	// — it filters after its joins, so pushed-down conjuncts do not
	// lower it — and is what a join picks its build side from.
	card int
}

// row maps position k of the relation to a row of its vectors.
func (r *erel) row(k int) int32 {
	if r.sel != nil {
		return r.sel[k]
	}
	return int32(k)
}

// resolve finds the position of a column reference, enforcing the same
// ambiguity rules (and error text) as the row engine.
func (r *erel) resolve(c *sqldb.ColumnRef) (int, error) {
	found := -1
	for i, b := range r.cols {
		if c.Column != b.name {
			continue
		}
		if c.Table != "" && c.Table != b.qual {
			continue
		}
		if found >= 0 {
			return 0, fmt.Errorf("sqldb: ambiguous column %q", c.String())
		}
		found = i
	}
	if found < 0 {
		return 0, fmt.Errorf("sqldb: unknown column %q", c.String())
	}
	return found, nil
}

// selPool recycles selection vectors (row-index scratch) across
// queries; every selection the executor builds starts here.
var selPool = sync.Pool{New: func() any { s := make([]int32, 0, 1024); return &s }}

func getSel() *[]int32 { return selPool.Get().(*[]int32) }

func putSel(s *[]int32) {
	*s = (*s)[:0]
	selPool.Put(s)
}

// scratch is the pooled vectors one query holds until its result is
// built: a relation's selection outlives the operator that made it, so
// the query, not the operator, gives it back.
type scratch []*[]int32

// borrow returns an empty, non-nil vector with room for n entries.
func (sc *scratch) borrow(n int) []int32 {
	p := getSel()
	if cap(*p) < n {
		*p = make([]int32, 0, n)
	}
	*sc = append(*sc, p)
	return *p
}

func (sc *scratch) release() {
	for _, p := range *sc {
		putSel(p)
	}
	*sc = nil
}

// selectLocked runs the pipeline under the held read lock, mirroring
// the row engine's selectLocked stage for stage: scan (index-served
// when an equality conjunct pins an indexed column) → hash joins →
// filter → projection or aggregation → DISTINCT → stable sort →
// OFFSET/LIMIT. The leading conjuncts of WHERE that cannot raise run
// on the scans instead (pushdown). The result is the output columns'
// names and a relation holding them, its cols unset.
func (e *DB) selectLocked(s *sqldb.SelectStmt, depth int, sc *scratch) ([]string, erel, error) {
	if depth > sqldb.MaxViewDepth {
		return nil, erel{}, fmt.Errorf("sqldb: view nesting exceeds %d", sqldb.MaxViewDepth)
	}
	orderExprs, err := sqldb.OrderKeyExprs(s)
	if err != nil {
		return nil, erel{}, err
	}
	pushed, where := e.pushdown(s)

	rel, err := e.scanRef(s, 0, depth, pushed, sc)
	if err != nil {
		return nil, erel{}, err
	}
	var named colRefs
	if len(s.Joins) > 0 {
		named = namedColumns(s, where, orderExprs)
	}
	for i, join := range s.Joins {
		right, err := e.scanRef(s, i+1, depth, pushed, sc)
		if err != nil {
			return nil, erel{}, err
		}
		named.joined()
		rel, err = hashJoinVec(&rel, &right, join, &named)
		if err != nil {
			return nil, erel{}, err
		}
	}
	if where != nil && rel.n > 0 {
		if err := e.filter(where, &rel, sc); err != nil {
			return nil, erel{}, err
		}
	}

	var names []string
	var vis, keys []vres
	var nout int
	if sqldb.NeedsAggregation(s) {
		names, vis, keys, nout, err = e.executeGrouped(s, &rel, orderExprs, sc)
	} else {
		names, vis, keys, nout, err = e.executeProjection(s, &rel, orderExprs)
	}
	if err != nil {
		return nil, erel{}, err
	}

	// perm lists the output positions that survive DISTINCT, ORDER BY,
	// OFFSET and LIMIT, in output order; nil means all nout, in place.
	var perm []int32
	if s.Distinct {
		seen := make(map[string]bool, nout)
		kept := make([]int32, 0, nout)
		var kb strings.Builder
		for r := 0; r < nout; r++ {
			kb.Reset()
			for i := range vis {
				kb.WriteString(vis[i].value(r).GroupKey())
				kb.WriteByte('|')
			}
			k := kb.String()
			if !seen[k] {
				seen[k] = true
				kept = append(kept, int32(r))
			}
		}
		if len(kept) < nout {
			perm = kept
		}
	}
	if len(s.OrderBy) > 0 {
		if perm == nil {
			perm = identity(0, nout)
		}
		sort.SliceStable(perm, func(i, j int) bool {
			for k, o := range s.OrderBy {
				c := sqldb.Compare(keys[k].value(int(perm[i])), keys[k].value(int(perm[j])))
				if c == 0 {
					continue
				}
				if o.Desc {
					return c > 0
				}
				return c < 0
			}
			return false
		})
	}
	outLen := nout
	if perm != nil {
		outLen = len(perm)
	}
	lo := min(s.Offset, outLen)
	hi := outLen
	if s.Limit >= 0 && outLen-lo > s.Limit {
		hi = lo + s.Limit
	}
	if perm != nil {
		perm = perm[lo:hi]
	} else if hi-lo < nout {
		perm = identity(lo, hi)
	}
	return names, output(vis, nout, perm), nil
}

// identity lists lo, lo+1, …, hi-1.
func identity(lo, hi int) []int32 {
	p := make([]int32, hi-lo)
	for i := range p {
		p[i] = int32(lo + i)
	}
	return p
}

// output assembles a select's result relation from its output columns
// (n positions each) and the positions perm keeps. While every column
// is read through the same selection — plain references to a filtered
// scan — or through none, the result stays late: the vectors as they
// are and one selection, composed with perm. A mix of the two is the
// one shape that cannot be said that way and is gathered dense.
func output(vis []vres, n int, perm []int32) erel {
	out := erel{vecs: make([]*colVec, len(vis)), n: n}
	if perm != nil {
		out.n = len(perm)
	}
	out.card = out.n
	selected := 0
	for j := range vis {
		out.vecs[j] = vis[j].vec
		if vis[j].sel != nil {
			selected++
		}
	}
	switch selected {
	case 0:
		out.sel = perm
	case len(vis):
		out.sel = compose(vis[0].sel, perm)
	default:
		for j := range vis {
			if idx := compose(vis[j].sel, perm); idx != nil {
				out.vecs[j] = gather(vis[j].vec, idx)
			}
		}
	}
	return out
}

// compose reads positions perm through selection sel; nil is the
// identity on either side.
func compose(sel, perm []int32) []int32 {
	if perm == nil {
		return sel
	}
	if sel == nil {
		return perm
	}
	out := make([]int32, len(perm))
	for k, p := range perm {
		out[k] = sel[p]
	}
	return out
}

// block turns a select's result into the driver's result block. A
// selection over row-aligned columns (each one kind, no NULLs) leaves
// the engine as it is — Block.Sel, an exact-size copy the block owns,
// over columns that alias storage — and is gathered batch by batch at
// the socket, if it is read at all. Anything else is gathered here: the
// wire layout cannot address a row of a sparse column.
func (r *erel) block(names []string) *driver.Block {
	blk := &driver.Block{Columns: names, Rows: r.n, Cols: make([]driver.Col, len(r.vecs))}
	late := r.sel != nil && r.n > 0
	for _, v := range r.vecs {
		late = late && v.uniform() != 0
	}
	for j, v := range r.vecs {
		if r.sel != nil && !late {
			v = gather(v, r.sel)
		}
		blk.Cols[j] = v.asCol()
	}
	if late {
		blk.Sel = append(make([]int32, 0, r.n), r.sel...)
	}
	return blk
}

// colRefs is the column references that can still be asked of a join's
// output. The join is the one operator that copies columns, and it
// copies a column only when some reference after it can name it — same
// name, and no qualifier or the column's own binding — which is the
// rule resolve matches by, so "ambiguous column" and "unknown column"
// surface exactly as they would with every column carried along. A
// star item names them all.
type colRefs struct {
	star bool
	// refs holds two per join, in join order, then everything read
	// after the last join: the residual WHERE (the pushed-down
	// conjuncts ran on the scans), items, GROUP BY, ORDER BY. joined
	// drops a join's pair once its condition is about to run.
	refs []*sqldb.ColumnRef
}

func namedColumns(s *sqldb.SelectStmt, residual sqldb.Expr, orderExprs []sqldb.Expr) colRefs {
	c := colRefs{refs: make([]*sqldb.ColumnRef, 0, 8+2*len(s.Joins))}
	add := func(r *sqldb.ColumnRef) { c.refs = append(c.refs, r) }
	for i := range s.Joins {
		add(&s.Joins[i].Left)
		add(&s.Joins[i].Right)
	}
	if residual != nil {
		walkRefs(residual, add)
	}
	for _, it := range s.Items {
		if it.Star {
			c.star = true
			continue
		}
		walkRefs(it.Expr, add)
	}
	for _, g := range s.GroupBy {
		walkRefs(g, add)
	}
	for _, o := range orderExprs {
		walkRefs(o, add)
	}
	return c
}

// joined moves past one join condition.
func (c *colRefs) joined() { c.refs = c.refs[2:] }

// names reports whether a remaining reference can resolve to column b.
func (c *colRefs) names(b ebind) bool {
	if c.star {
		return true
	}
	for _, r := range c.refs {
		if r.Column == b.name && (r.Table == "" || r.Table == b.qual) {
			return true
		}
	}
	return false
}

// walkRefs calls visit for every column reference in an expression.
func walkRefs(ex sqldb.Expr, visit func(*sqldb.ColumnRef)) {
	switch x := ex.(type) {
	case *sqldb.ColumnRef:
		visit(x)
	case *sqldb.BinaryExpr:
		walkRefs(x.Left, visit)
		walkRefs(x.Right, visit)
	case *sqldb.UnaryExpr:
		walkRefs(x.X, visit)
	case *sqldb.AggExpr:
		if x.Arg != nil {
			walkRefs(x.Arg, visit)
		}
	case *sqldb.InExpr:
		walkRefs(x.X, visit)
		for _, item := range x.List {
			walkRefs(item, visit)
		}
	case *sqldb.BetweenExpr:
		walkRefs(x.X, visit)
		walkRefs(x.Lo, visit)
		walkRefs(x.Hi, visit)
	case *sqldb.LikeExpr:
		walkRefs(x.X, visit)
		walkRefs(x.Pattern, visit)
	case *sqldb.IsNullExpr:
		walkRefs(x.X, visit)
	}
}

// cmpLit is one pushed-down conjunct: column col of FROM entry from,
// NULL-free and numeric, compared with the constant c.
type cmpLit struct {
	from, col int
	keep      ordering
	c         float64
}

// pushdown splits WHERE into the conjuncts that run on the scans and
// the residual that runs where the row engine runs all of it, after the
// joins. A conjunct is pushed when it cannot raise and cannot be NULL —
// a comparison of a NULL-free numeric base-table column with a numeric
// constant, compareKernel's precondition — and only while every
// conjunct before it was pushed too: the row engine evaluates a row's
// conjuncts left to right and stops at the first false one, so a row
// the pushed prefix rejects is a row on which it evaluates nothing
// else, and a row the prefix accepts reaches the residual exactly as
// it would have. Pushing a conjunct from behind one that can raise
// would hide the error on the rows it rejects.
//
// The column must resolve the way IndexableEq's does: qualified by a
// binding exactly one FROM entry carries, or unqualified over a single
// FROM entry. And since a join picks its build side from its inputs'
// unfiltered cardinalities (erel.card), which an intermediate join
// output only has when nothing below it was filtered, a query of two or
// more joins pushes onto its last scan alone.
func (e *DB) pushdown(s *sqldb.SelectStmt) ([]cmpLit, sqldb.Expr) {
	if s.Where == nil {
		return nil, nil
	}
	spine := leftSpine(s.Where)
	var pushed []cmpLit
	for _, conj := range spine {
		lit, ok := e.pushable(s, conj)
		if !ok {
			break
		}
		pushed = append(pushed, lit)
	}
	if len(pushed) == 0 {
		return nil, s.Where
	}
	var residual sqldb.Expr
	for _, conj := range spine[len(pushed):] {
		if residual == nil {
			residual = conj
		} else {
			residual = &sqldb.BinaryExpr{Op: "AND", Left: residual, Right: conj}
		}
	}
	return pushed, residual
}

// leftSpine lists the conjuncts of a left-deep AND chain in evaluation
// order. A right operand stays whole even when it is an AND itself:
// regrouping it would change which NULLs short-circuit.
func leftSpine(ex sqldb.Expr) []sqldb.Expr {
	if b, ok := ex.(*sqldb.BinaryExpr); ok && b.Op == "AND" {
		return append(leftSpine(b.Left), b.Right)
	}
	return []sqldb.Expr{ex}
}

func (e *DB) pushable(s *sqldb.SelectStmt, conj sqldb.Expr) (cmpLit, bool) {
	b, ok := conj.(*sqldb.BinaryExpr)
	if !ok {
		return cmpLit{}, false
	}
	keep, ok := orderingOf(b.Op)
	if !ok {
		return cmpLit{}, false
	}
	ref, isRef := b.Left.(*sqldb.ColumnRef)
	c, isNum := numericConst(b.Right)
	if !isRef || !isNum {
		// constant op column reads as column (op mirrored) constant.
		ref, isRef = b.Right.(*sqldb.ColumnRef)
		c, isNum = numericConst(b.Left)
		keep = keep.mirrored()
		if !isRef || !isNum {
			return cmpLit{}, false
		}
	}
	from := -1
	for i, f := range s.From {
		if ref.Table == f.Name() || (ref.Table == "" && len(s.From) == 1) {
			if from >= 0 {
				return cmpLit{}, false // two entries share the binding: ambiguous
			}
			from = i
		}
	}
	if from < 0 || (len(s.Joins) > 1 && from != len(s.Joins)) {
		return cmpLit{}, false
	}
	t, ok := e.tables[s.From[from].Table]
	if !ok {
		return cmpLit{}, false
	}
	col, ok := t.idx[ref.Column]
	if !ok {
		return cmpLit{}, false
	}
	if u := t.vecs[col].uniform(); u != driver.KindByteInt && u != driver.KindByteFloat {
		return cmpLit{}, false
	}
	return cmpLit{from: from, col: col, keep: keep, c: c}, true
}

// numericConst reads a numeric literal, negated or not.
func numericConst(ex sqldb.Expr) (float64, bool) {
	switch x := ex.(type) {
	case *sqldb.Literal:
		return x.Val.AsFloat()
	case *sqldb.UnaryExpr:
		if lit, ok := x.X.(*sqldb.Literal); ok && x.Op == "-" {
			if v, err := sqldb.ApplyUnary("-", lit.Val); err == nil {
				return v.AsFloat()
			}
		}
	}
	return 0, false
}

// scanRef opens one FROM entry as a relation without copying a row: a
// base table's vectors alias storage, an index that an equality
// conjunct pins supplies its posting list as the selection, a view is a
// recursive select. The conjuncts pushed onto this entry then refine
// the selection.
func (e *DB) scanRef(s *sqldb.SelectStmt, refIdx, depth int, pushed []cmpLit, sc *scratch) (erel, error) {
	ref := s.From[refIdx]
	qual := ref.Name()
	var rel erel
	if t, ok := e.tables[ref.Table]; ok {
		rel = erel{cols: make([]ebind, len(t.cols)), vecs: t.vecs, n: t.nrows()}
		for i, c := range t.cols {
			rel.cols[i] = ebind{qual: qual, name: c.Name}
		}
		if col, val, ok := sqldb.IndexableEq(s, refIdx); ok {
			if ix := e.lookupIndex(ref.Table, col); ix != nil {
				rel.sel = ix.m[val.GroupKey()]
				if rel.sel == nil {
					rel.sel = []int32{}
				}
				rel.n = len(rel.sel)
			}
		}
	} else if v, ok := e.views[ref.Table]; ok {
		var names []string
		var err error
		if names, rel, err = e.selectLocked(v, depth+1, sc); err != nil {
			return erel{}, fmt.Errorf("sqldb: expanding view %q: %w", ref.Table, err)
		}
		rel.cols = make([]ebind, len(names))
		for i, name := range names {
			rel.cols[i] = ebind{qual: qual, name: name}
		}
	} else {
		return erel{}, fmt.Errorf("sqldb: unknown relation %q", ref.Table)
	}
	rel.card = rel.n

	owned := false // rel.sel is this scan's to overwrite, not an index's posting list
	for _, p := range pushed {
		if p.from != refIdx {
			continue
		}
		dst := rel.sel
		if !owned {
			dst, owned = sc.borrow(rel.n), true
		}
		if vec := rel.vecs[p.col]; vec.uniform() == driver.KindByteInt {
			rel.sel = refine(dst, vec.ints, rel.sel, rel.n, p.keep, p.c)
		} else {
			rel.sel = refine(dst, vec.floats, rel.sel, rel.n, p.keep, p.c)
		}
		rel.n = len(rel.sel)
	}
	return rel, nil
}

// refine keeps the rows of src (nil = the first n rows) whose value
// compares with c as keep allows, writing them to dst, which has room
// for all of them and may be src itself: the write never passes the
// read. The loop stores every candidate and advances past the kept
// ones, so it has no data-dependent branch.
func refine[T int64 | float64](dst []int32, vals []T, src []int32, n int, keep ordering, c float64) []int32 {
	dst = dst[:n]
	w := 0
	if src == nil {
		for i, v := range vals[:n] {
			dst[w] = int32(i)
			w += keep.holds(float64(v), c)
		}
	} else {
		for _, i := range src {
			dst[w] = i
			w += keep.holds(float64(vals[i]), c)
		}
	}
	return dst[:w]
}

// hashJoinVec performs the equi-join over its inputs' selections: hash
// the build side's key column, probe with the other, collect the
// matching row-index pairs, then gather — the join is a pipeline
// breaker — only the columns something after it still names. The build
// side is the input with the smaller card, the row engine's choice, so
// the pairs come out in its order; key semantics mirror it exactly too:
// NULLs never join and keys match by value group-key, which for two
// NULL-free numeric columns is their float64 image and for two
// NULL-free text columns the string itself, so those stay unboxed.
func hashJoinVec(left, right *erel, on sqldb.JoinOn, named *colRefs) (erel, error) {
	lcol, rcol, err := splitJoinColsVec(left, right, on)
	if err != nil {
		return erel{}, err
	}
	buildLeft := left.card <= right.card
	build, probe := left, right
	bcol, pcol := lcol, rcol
	if !buildLeft {
		build, probe = right, left
		bcol, pcol = rcol, lcol
	}
	bvec, pvec := build.vecs[bcol], probe.vecs[pcol]

	bIdx := getSel()
	pIdx := getSel()
	defer putSel(bIdx)
	defer putSel(pIdx)

	switch bu, pu := bvec.uniform(), pvec.uniform(); {
	case isNumeric(bu) && isNumeric(pu):
		joinPairs(build, probe, numericKeys(build, bvec), numericKeys(probe, pvec), bIdx, pIdx)
	case bu == driver.KindByteText && pu == driver.KindByteText:
		joinPairs(build, probe, textKeys(build, bvec), textKeys(probe, pvec), bIdx, pIdx)
	default:
		joinPairs(build, probe, boxedKeys(build, bvec), boxedKeys(probe, pvec), bIdx, pIdx)
	}

	leftSel, rightSel := *bIdx, *pIdx
	if !buildLeft {
		leftSel, rightSel = *pIdx, *bIdx
	}
	out := erel{
		cols: append(append(make([]ebind, 0, len(left.cols)+len(right.cols)), left.cols...), right.cols...),
		vecs: append(append(make([]*colVec, 0, len(left.vecs)+len(right.vecs)), left.vecs...), right.vecs...),
		n:    len(leftSel),
		card: len(leftSel),
	}
	for j, v := range out.vecs {
		sel := leftSel
		if j >= len(left.vecs) {
			sel = rightSel
		}
		if v != nil && named.names(out.cols[j]) {
			out.vecs[j] = gather(v, sel)
		} else {
			out.vecs[j] = nil
		}
	}
	return out, nil
}

// joinPairs appends the matching (build row, probe row) pairs in the
// row engine's emission order: probe order, and build order within one
// probe row's matches. The build side's keys are numbered by first
// appearance and its rows laid out bucket by bucket, so the table is a
// map of integers and three arrays whatever the number of keys. A key
// function reports false for NULL, which never joins.
func joinPairs[K comparable](build, probe *erel, bkey, pkey func(int) (K, bool), bIdx, pIdx *[]int32) {
	bucket := make([]int32, build.n)
	ids, first := numberKeys(bucket, bkey)
	start, rows := bucketRows(bucket, len(first), build)
	for k := 0; k < probe.n; k++ {
		key, ok := pkey(k)
		if !ok {
			continue
		}
		id, hit := ids[key]
		if !hit {
			continue
		}
		p := probe.row(k)
		for _, b := range rows[start[id]:start[id+1]] {
			*bIdx = append(*bIdx, b)
			*pIdx = append(*pIdx, p)
		}
	}
}

// splitJoinColsVec resolves the ON condition's two sides, either order.
func splitJoinColsVec(left, right *erel, on sqldb.JoinOn) (int, int, error) {
	l := on.Left
	r := on.Right
	if li, err := left.resolve(&l); err == nil {
		ri, err := right.resolve(&r)
		if err != nil {
			return 0, 0, fmt.Errorf("sqldb: join condition: %w", err)
		}
		return li, ri, nil
	}
	li, err := left.resolve(&r)
	if err != nil {
		return 0, 0, fmt.Errorf("sqldb: join condition %s = %s matches neither side", on.Left.String(), on.Right.String())
	}
	ri, err := right.resolve(&l)
	if err != nil {
		return 0, 0, fmt.Errorf("sqldb: join condition: %w", err)
	}
	return li, ri, nil
}

// filter evaluates the residual WHERE over the relation and replaces
// its selection with the rows that pass (predicate strictly true, like
// the row engine: NULL filters out).
func (e *DB) filter(where sqldb.Expr, rel *erel, sc *scratch) error {
	v, err := e.evalVec(where, rel, rel.sel, rel.n)
	if err != nil {
		return err
	}
	if v.isConst && v.c.Kind == sqldb.KindBool && v.c.Bool {
		return nil
	}
	keep := sc.borrow(rel.n)
	switch {
	case v.isConst:
	case v.sel == nil && v.vec.uniform() == driver.KindByteBool:
		for k, b := range v.vec.bools {
			if b {
				keep = append(keep, rel.row(k))
			}
		}
	default:
		for k := 0; k < rel.n; k++ {
			if val := v.value(k); val.Kind == sqldb.KindBool && val.Bool {
				keep = append(keep, rel.row(k))
			}
		}
	}
	rel.sel, rel.n = keep, len(keep)
	return nil
}

// executeProjection is the non-aggregating path: each projected item
// (and hidden ORDER BY key) becomes one output column over the
// relation's positions. A plain column reference is the relation's own
// vector read through its selection — nothing is copied; expressions
// evaluate vectorized into an owned vector. An empty input produces
// empty vectors without evaluating anything, mirroring the row engine's
// per-row loop.
func (e *DB) executeProjection(s *sqldb.SelectStmt, rel *erel, orderExprs []sqldb.Expr) ([]string, []vres, []vres, int, error) {
	items, names := expandItemsVec(s, rel)
	out := make([]vres, len(items)+len(orderExprs))
	for i, ex := range append(items, orderExprs...) {
		if rel.n == 0 {
			out[i].vec = &colVec{}
			continue
		}
		v, err := e.evalVec(ex, rel, rel.sel, rel.n)
		if err != nil {
			return nil, nil, nil, 0, err
		}
		if _, plain := ex.(*sqldb.ColumnRef); !plain {
			v = vres{vec: toVec(&v, rel.n)}
		}
		out[i] = v
	}
	return names, out[:len(items)], out[len(items):], rel.n, nil
}

// expandItemsVec flattens SELECT * into explicit column references.
func expandItemsVec(s *sqldb.SelectStmt, rel *erel) ([]sqldb.Expr, []string) {
	items := make([]sqldb.Expr, 0, len(s.Items))
	names := make([]string, 0, len(s.Items))
	for _, it := range s.Items {
		if it.Star {
			for _, b := range rel.cols {
				items = append(items, &sqldb.ColumnRef{Table: b.qual, Column: b.name})
				names = append(names, b.name)
			}
			continue
		}
		items = append(items, it.Expr)
		names = append(names, sqldb.ItemName(it))
	}
	return items, names
}

// toVec materializes an evaluation result over n positions as a
// standalone vector.
func toVec(v *vres, n int) *colVec {
	if !v.isConst && v.sel == nil {
		return v.vec
	}
	out := &colVec{}
	if v.isConst {
		for k := 0; k < n; k++ {
			out.appendVal(v.c)
		}
		return out
	}
	return gather(v.vec, v.sel)
}
