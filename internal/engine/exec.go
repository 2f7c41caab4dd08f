package engine

import (
	"fmt"
	"sort"
	"strings"
	"sync"

	"github.com/qamarket/qamarket/internal/driver"
	"github.com/qamarket/qamarket/internal/sqldb"
)

// ecol is one column of an intermediate relation: the binding it is
// named by, its vector, and the selection the vector is read through.
type ecol struct {
	qual, name string
	vec        *colVec
	sel        []int32 // nil = the vector's rows as they are
}

// erel is the one intermediate form every operator reads and writes:
// column vectors, each read through a selection. The vectors alias table
// storage (or the owned output of an expression or an aggregation below)
// and are never copied to drop, repeat or reorder a row; position k of
// the relation holds, in column c, row c.sel[k] of c.vec. A scan's
// columns share one selection and filters only ever replace it; a
// join's output keeps each input's vectors and reads them through that
// input's half of the matching pairs.
type erel struct {
	cols []ecol
	n    int // positions in the relation
	// card is the row count the row engine's relation has at this point
	// — it filters after its joins, so pushed-down conjuncts do not
	// lower it — and is what a join picks its build side from.
	card int
}

// sameSel reports whether two selections are one: the same array, not
// equal contents. Columns that came from one input share theirs.
func sameSel(a, b []int32) bool {
	return len(a) == len(b) && (len(a) == 0 || &a[0] == &b[0])
}

// restrict makes the relation hold positions pos of what it held, in
// that order — a filter's survivors, a join's half of the pairs, a
// sort's permutation — by reading each distinct selection through pos.
// No selection is written: one may be an index's posting list.
func (r *erel) restrict(pos []int32, sc *scratch) {
	var from, to []int32
	for j := range r.cols {
		c := &r.cols[j]
		switch {
		case c.sel == nil:
			c.sel = pos
		case from != nil && sameSel(c.sel, from):
			c.sel = to
		default:
			from, to = c.sel, sc.borrow(len(pos))[:len(pos)]
			for k, p := range pos {
				to[k] = from[p]
			}
			c.sel = to
		}
	}
	r.n = len(pos)
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
// names and a relation holding them, its columns unbound.
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
	for i, join := range s.Joins {
		right, err := e.scanRef(s, i+1, depth, pushed, sc)
		if err != nil {
			return nil, erel{}, err
		}
		rel, err = hashJoinVec(&rel, &right, join, sc)
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
	// The result stays late: each output column as it is — a relation's
	// vector behind its selection, or an owned one — read through perm.
	out := erel{cols: make([]ecol, len(vis)), n: nout}
	for j := range vis {
		out.cols[j].vec, out.cols[j].sel = vis[j].vec, vis[j].sel
	}
	if perm != nil {
		out.restrict(perm, sc)
	}
	out.card = out.n
	return names, out, nil
}

// identity lists lo, lo+1, …, hi-1.
func identity(lo, hi int) []int32 {
	p := make([]int32, hi-lo)
	for i := range p {
		p[i] = int32(lo + i)
	}
	return p
}

// rowAt reads position k through a selection; nil is the identity.
func rowAt(sel []int32, k int) int {
	if sel != nil {
		return int(sel[k])
	}
	return k
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

// block turns a select's result into the driver's result block, and is
// where a join's output is finally gathered. One selection shared by
// row-aligned columns (each one kind, no NULLs) leaves the engine as it
// is — Block.Sel, an exact-size copy the block owns, over columns that
// alias storage — and is gathered batch by batch at the socket, if it
// is read at all. Anything else is gathered here, each column through
// its own selection: the wire layout has one selection to offer and
// cannot address a row of a sparse column.
func (r *erel) block(names []string) *driver.Block {
	blk := &driver.Block{Columns: names, Rows: r.n, Cols: make([]driver.Col, len(r.cols))}
	late := r.n > 0 && len(r.cols) > 0 && r.cols[0].sel != nil
	for _, c := range r.cols {
		late = late && c.vec.uniform() != 0 && sameSel(c.sel, r.cols[0].sel)
	}
	for j, c := range r.cols {
		if c.sel != nil && !late {
			c.vec = gather(c.vec, c.sel)
		}
		blk.Cols[j] = c.vec.asCol()
	}
	if late {
		blk.Sel = append(make([]int32, 0, r.n), r.cols[0].sel...)
	}
	return blk
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
	t, ok := e.tables[ref.Table]
	if !ok {
		v, ok := e.views[ref.Table]
		if !ok {
			return erel{}, fmt.Errorf("sqldb: unknown relation %q", ref.Table)
		}
		names, rel, err := e.selectLocked(v, depth+1, sc)
		if err != nil {
			return erel{}, fmt.Errorf("sqldb: expanding view %q: %w", ref.Table, err)
		}
		for i, name := range names {
			rel.cols[i].qual, rel.cols[i].name = qual, name
		}
		return rel, nil // pushable names a base table's column: nothing was pushed onto a view
	}
	rel := erel{cols: make([]ecol, len(t.cols)), n: t.nrows()}
	var sel []int32
	if col, val, ok := sqldb.IndexableEq(s, refIdx); ok {
		if ix := e.lookupIndex(ref.Table, col); ix != nil {
			if sel = ix.m[val.GroupKey()]; sel == nil {
				sel = []int32{}
			}
			rel.n = len(sel)
		}
	}
	rel.card = rel.n

	owned := false // sel is this scan's to overwrite, not an index's posting list
	for _, p := range pushed {
		if p.from != refIdx {
			continue
		}
		dst := sel
		if !owned {
			dst, owned = sc.borrow(rel.n), true
		}
		if vec := t.vecs[p.col]; vec.uniform() == driver.KindByteInt {
			sel = refine(dst, vec.ints, sel, rel.n, p.keep, p.c)
		} else {
			sel = refine(dst, vec.floats, sel, rel.n, p.keep, p.c)
		}
		rel.n = len(sel)
	}
	for i, c := range t.cols {
		rel.cols[i] = ecol{qual: qual, name: c.Name, vec: t.vecs[i], sel: sel}
	}
	return rel, nil
}

// refine keeps the rows of src (nil = the first n rows) whose value
// compares with c as keep allows, writing them to dst, which has room
// for all of them and may be src itself: the write never passes the
// read. The loop is the one keep's kernel compiles to; it stores every
// candidate and advances past the kept ones, so it has no
// data-dependent branch.
func refine[T int64 | float64](dst []int32, vals []T, src []int32, n int, keep ordering, c float64) []int32 {
	dst = dst[:n]
	w, eq := 0, keep.eq
	switch keep.kernel() {
	case kernelLess:
		if src == nil {
			for i, v := range vals[:n] {
				dst[w] = int32(i)
				w += less(float64(v), c) ^ eq
			}
			break
		}
		for _, i := range src {
			dst[w] = i
			w += less(float64(vals[i]), c) ^ eq
		}
	case kernelGreater:
		if src == nil {
			for i, v := range vals[:n] {
				dst[w] = int32(i)
				w += less(c, float64(v)) ^ eq
			}
			break
		}
		for _, i := range src {
			dst[w] = i
			w += less(c, float64(vals[i])) ^ eq
		}
	default:
		if src == nil {
			for i, v := range vals[:n] {
				dst[w] = int32(i)
				w += keep.holds(float64(v), c)
			}
			break
		}
		for _, i := range src {
			dst[w] = i
			w += keep.holds(float64(vals[i]), c)
		}
	}
	return dst[:w]
}

// hashJoinVec performs the equi-join and copies no value: its output is
// both inputs' vectors, each read through its input's half of the
// matching pairs. The build side is the input with the smaller card,
// the row engine's choice, so the pairs come out in its order; key
// semantics mirror it exactly too: NULLs never join and keys match by
// value group-key, which two NULL-free columns of one class (keyClass)
// match by unboxed.
func hashJoinVec(left, right *erel, on sqldb.JoinOn, sc *scratch) (erel, error) {
	lcol, rcol, err := splitJoinColsVec(left, right, on)
	if err != nil {
		return erel{}, err
	}
	var lpos, rpos []int32
	if left.card <= right.card {
		lpos, rpos = joinPairs(left, right, lcol, rcol, sc)
	} else {
		rpos, lpos = joinPairs(right, left, rcol, lcol, sc)
	}
	left.restrict(lpos, sc)
	right.restrict(rpos, sc)
	return erel{
		cols: append(append(make([]ecol, 0, len(left.cols)+len(right.cols)), left.cols...), right.cols...),
		n:    len(lpos),
		card: len(lpos),
	}, nil
}

// joinPairs lists the matching (build position, probe position) pairs
// in the row engine's emission order: probe order, and build order
// within one probe row's matches. The build side's keys are numbered by
// first appearance and its positions laid out bucket by bucket; the
// probe side's are looked up in the same table, which says how many
// pairs there are before one is written. When every key sits on exactly
// one build row — a foreign key probing a primary key — bucket id is
// the one row rows[id], and a probe row has one pair when its key was
// found and none when not: no bucket to walk.
func joinPairs(build, probe *erel, bcol, pcol int, sc *scratch) (bpos, ppos []int32) {
	b, p := &build.cols[bcol], &probe.cols[pcol]
	class := keyClass(b.vec.uniform())
	typed := class != 0 && class == keyClass(p.vec.uniform())
	t := newKeyTable(sc, build.n)
	bid, pid := sc.borrow(build.n)[:build.n], sc.borrow(probe.n)[:probe.n]
	t.ids(bid, b.vec, b.sel, typed, true)
	start, rows := bucketRows(bid, t.len(), sc)
	t.ids(pid, p.vec, p.sel, typed, false)
	pairs := 0
	for _, id := range pid {
		if id >= 0 {
			pairs += int(start[id+1] - start[id])
		}
	}
	bpos, ppos = sc.borrow(pairs)[:pairs], sc.borrow(pairs)[:pairs]
	w := 0
	if len(rows) == t.len() {
		for k, id := range pid {
			if id >= 0 {
				bpos[w], ppos[w] = rows[id], int32(k)
				w++
			}
		}
		return bpos, ppos
	}
	for k, id := range pid {
		if id < 0 {
			continue
		}
		for _, b := range rows[start[id]:start[id+1]] {
			bpos[w], ppos[w] = b, int32(k)
			w++
		}
	}
	return bpos, ppos
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
	v, err := e.evalVec(where, rel, nil, rel.n)
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
				keep = append(keep, int32(k))
			}
		}
	default:
		for k := 0; k < rel.n; k++ {
			if val := v.value(k); val.Kind == sqldb.KindBool && val.Bool {
				keep = append(keep, int32(k))
			}
		}
	}
	rel.restrict(keep, sc)
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
		v, err := e.evalVec(ex, rel, nil, rel.n)
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
