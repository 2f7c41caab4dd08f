package engine

import (
	"fmt"

	"github.com/qamarket/qamarket/internal/driver"
	"github.com/qamarket/qamarket/internal/sqldb"
)

// vres is the result of evaluating an expression over a selection of
// relation rows: a constant, an aliased relation column (vec indexed
// through sel), or an owned vector aligned with the selection (sel nil,
// entry k is row k of vec). A nil sel on an aliased column means the
// identity selection.
type vres struct {
	isConst bool
	c       sqldb.Value
	vec     *colVec
	sel     []int32
}

// value boxes entry k.
func (v *vres) value(k int) sqldb.Value {
	if v.isConst {
		return v.c
	}
	if v.sel != nil {
		return v.vec.value(int(v.sel[k]))
	}
	return v.vec.value(k)
}

// numericAt reads entry k as a float64 when it is numeric. Used by the
// comparison kernels, whose semantics are exactly the row engine's
// Compare: every numeric comparison goes through float64.
func (v *vres) numericAt(k int) (float64, bool) {
	if v.isConst {
		return v.c.AsFloat()
	}
	i := k
	if v.sel != nil {
		i = int(v.sel[k])
	}
	switch v.vec.kinds[i] {
	case driver.KindByteInt:
		return float64(v.vec.ints[v.vec.offs[i]]), true
	case driver.KindByteFloat:
		return v.vec.floats[v.vec.offs[i]], true
	}
	return 0, false
}

// numericKind classifies an operand for the comparison kernel: 'c' for
// a numeric constant, 'i'/'f' for a NULL-free numeric column, 0
// otherwise.
func (v *vres) numericKind() byte {
	if v.isConst {
		if _, ok := v.c.AsFloat(); ok {
			return 'c'
		}
		return 0
	}
	switch u := v.vec.uniform(); u {
	case driver.KindByteInt, driver.KindByteFloat:
		return u
	}
	return 0
}

// evalVec evaluates an expression over the n positions pos of rel (nil
// pos = all of them, in order). Logical AND/OR keep the row engine's lazy
// semantics per entry — the right side is only ever evaluated for
// entries the left side did not short-circuit — so data-dependent
// errors surface for exactly the same set of rows as the row engine.
// Comparisons over NULL-free numeric columns run as typed kernels; any
// node shape without a kernel falls back to the scalar mirror row by
// row.
func (e *DB) evalVec(ex sqldb.Expr, rel *erel, pos []int32, n int) (vres, error) {
	switch x := ex.(type) {
	case *sqldb.Literal:
		return vres{isConst: true, c: x.Val}, nil
	case *sqldb.ColumnRef:
		if n == 0 {
			// The row engine's per-row loop never resolves over an empty
			// input; do not error here either.
			return vres{vec: &colVec{}}, nil
		}
		i, err := rel.resolve(x)
		if err != nil {
			return vres{}, err
		}
		return vres{vec: rel.cols[i].vec, sel: compose(rel.cols[i].sel, pos)}, nil
	case *sqldb.BinaryExpr:
		switch x.Op {
		case "AND", "OR":
			return e.evalLogical(x, rel, pos, n)
		case "=", "<>", "<", "<=", ">", ">=":
			l, err := e.evalVec(x.Left, rel, pos, n)
			if err != nil {
				return vres{}, err
			}
			r, err := e.evalVec(x.Right, rel, pos, n)
			if err != nil {
				return vres{}, err
			}
			if out, ok := compareKernel(x.Op, &l, &r, n); ok {
				return out, nil
			}
			return applyElementwise(x.Op, &l, &r, n)
		default:
			l, err := e.evalVec(x.Left, rel, pos, n)
			if err != nil {
				return vres{}, err
			}
			r, err := e.evalVec(x.Right, rel, pos, n)
			if err != nil {
				return vres{}, err
			}
			return applyElementwise(x.Op, &l, &r, n)
		}
	case *sqldb.UnaryExpr:
		v, err := e.evalVec(x.X, rel, pos, n)
		if err != nil {
			return vres{}, err
		}
		if v.isConst {
			c, err := sqldb.ApplyUnary(x.Op, v.c)
			if err != nil {
				return vres{}, err
			}
			return vres{isConst: true, c: c}, nil
		}
		out := &colVec{}
		for k := 0; k < n; k++ {
			r, err := sqldb.ApplyUnary(x.Op, v.value(k))
			if err != nil {
				return vres{}, err
			}
			out.appendVal(r)
		}
		return vres{vec: out}, nil
	case *sqldb.IsNullExpr:
		if c, ok := x.X.(*sqldb.ColumnRef); ok && n > 0 {
			i, err := rel.resolve(c)
			if err != nil {
				return vres{}, err
			}
			vec, sel := rel.cols[i].vec, compose(rel.cols[i].sel, pos)
			out := &colVec{}
			for k := 0; k < n; k++ {
				out.appendVal(sqldb.NewBool((vec.kinds[rowAt(sel, k)] == driver.KindByteNull) != x.Neg))
			}
			return vres{vec: out}, nil
		}
		return e.evalFallback(ex, rel, pos, n)
	default:
		return e.evalFallback(ex, rel, pos, n)
	}
}

// evalFallback runs the scalar mirror row by row — bitwise-faithful
// semantics for every node shape without a vectorized kernel.
func (e *DB) evalFallback(ex sqldb.Expr, rel *erel, pos []int32, n int) (vres, error) {
	out := &colVec{}
	for k := 0; k < n; k++ {
		v, err := e.evalScalar(ex, rel, rowAt(pos, k))
		if err != nil {
			return vres{}, err
		}
		out.appendVal(v)
	}
	return vres{vec: out}, nil
}

// evalLogical is vectorized AND/OR with the row engine's short-circuit
// rule: AND answers false immediately when the left is boolean false
// (OR answers true when it is boolean true) and only the surviving
// subset of positions ever evaluates the right side.
func (e *DB) evalLogical(x *sqldb.BinaryExpr, rel *erel, pos []int32, n int) (vres, error) {
	l, err := e.evalVec(x.Left, rel, pos, n)
	if err != nil {
		return vres{}, err
	}
	shortOn := x.Op == "OR" // left bool value that short-circuits
	if l.isConst {
		if l.c.Kind == sqldb.KindBool && l.c.Bool == shortOn {
			return vres{isConst: true, c: sqldb.NewBool(shortOn)}, nil
		}
		r, err := e.evalVec(x.Right, rel, pos, n)
		if err != nil {
			return vres{}, err
		}
		return applyElementwise(x.Op, &l, &r, n)
	}
	rest := getSel()
	defer putSel(rest)
	restPos := getSel()
	defer putSel(restPos)
	for k := 0; k < n; k++ {
		if lv := l.value(k); lv.Kind == sqldb.KindBool && lv.Bool == shortOn {
			continue
		}
		*rest = append(*rest, int32(rowAt(pos, k)))
		*restPos = append(*restPos, int32(k))
	}
	var r vres
	if len(*rest) > 0 {
		r, err = e.evalVec(x.Right, rel, *rest, len(*rest))
		if err != nil {
			return vres{}, err
		}
	}
	out := &colVec{}
	next := 0
	for k := 0; k < n; k++ {
		if next < len(*restPos) && int((*restPos)[next]) == k {
			// ApplyBinary on AND/OR never errors.
			v, _ := sqldb.ApplyBinary(x.Op, l.value(k), r.value(next))
			out.appendVal(v)
			next++
			continue
		}
		out.appendVal(sqldb.NewBool(shortOn))
	}
	return vres{vec: out}, nil
}

// applyElementwise combines two evaluated operands entry by entry with
// the row engine's exported operator kernel (which owns the NULL logic
// and error text).
func applyElementwise(op string, l, r *vres, n int) (vres, error) {
	if l.isConst && r.isConst {
		c, err := sqldb.ApplyBinary(op, l.c, r.c)
		if err != nil {
			return vres{}, err
		}
		return vres{isConst: true, c: c}, nil
	}
	out := &colVec{}
	for k := 0; k < n; k++ {
		v, err := sqldb.ApplyBinary(op, l.value(k), r.value(k))
		if err != nil {
			return vres{}, err
		}
		out.appendVal(v)
	}
	return vres{vec: out}, nil
}

// ordering is a comparison operator as the set of outcomes of comparing
// its left operand with its right that it accepts. The outcome is
// Compare's: less, greater, or — everything else, a NaN on either side
// included — equal. It is stored the way holds reads it, as 0 or 1: the
// answer for "equal", and whether "less" and "greater" are answered
// differently.
type ordering struct{ eq, ltFlips, gtFlips int }

func accepts(lt, eq, gt int) ordering { return ordering{eq: eq, ltFlips: lt ^ eq, gtFlips: gt ^ eq} }

func orderingOf(op string) (ordering, bool) {
	switch op {
	case "=":
		return accepts(0, 1, 0), true
	case "<>":
		return accepts(1, 0, 1), true
	case "<":
		return accepts(1, 0, 0), true
	case "<=":
		return accepts(1, 1, 0), true
	case ">":
		return accepts(0, 0, 1), true
	case ">=":
		return accepts(0, 1, 1), true
	}
	return ordering{}, false
}

// mirrored is the operator with its operands swapped.
func (o ordering) mirrored() ordering {
	return ordering{eq: o.eq, ltFlips: o.gtFlips, gtFlips: o.ltFlips}
}

// holds is 1 when a compares with b as the operator accepts, else 0:
// the answer for "equal", flipped when a is less and less is answered
// differently, likewise greater. The two flags compile to SETcc and the
// rest is integer arithmetic, so a filter over unsorted values — where
// a branch on the data would mispredict every other row — has none.
// It is the general form, two compares and the flag arithmetic; refine,
// which filters a scanned column by a constant, runs it only for = and
// <> (kernel).
func (o ordering) holds(a, b float64) int {
	var lt, gt int
	if a < b {
		lt = 1
	}
	if a > b {
		gt = 1
	}
	return o.eq ^ lt&o.ltFlips ^ gt&o.gtFlips
}

// less is 1 when a < b, else 0, as a SETcc.
func less(a, b float64) int {
	var lt int
	if a < b {
		lt = 1
	}
	return lt
}

// kernel is the loop refine compiles a comparison of a column with a
// constant to. An operator that answers "greater" as it answers
// "equal" — <, >= — is one compare, v < c, XOR-ed with its answer for
// "equal"; one that answers "less" as it answers "equal" — >, <= — is
// c < v, likewise.
// The XOR keeps Compare's NaN: no compare holds on one, so a NaN gets
// the answer for "equal" (NaN <= c holds). = and <> keep holds.
type kernel int

const (
	kernelHolds kernel = iota
	kernelLess
	kernelGreater
)

func (o ordering) kernel() kernel {
	switch {
	case o.ltFlips == 1 && o.gtFlips == 0:
		return kernelLess
	case o.ltFlips == 0 && o.gtFlips == 1:
		return kernelGreater
	}
	return kernelHolds
}

// compareKernel runs =, <>, <, <=, >, >= over NULL-free numeric
// operands as a typed float64 loop. It is exactly Compare's numeric
// semantics (all numeric comparisons in the row engine go through
// float64), so results are bit-identical.
func compareKernel(op string, l, r *vres, n int) (vres, bool) {
	lk, rk := l.numericKind(), r.numericKind()
	keep, _ := orderingOf(op)
	if lk == 0 || rk == 0 || (lk == 'c' && rk == 'c') {
		return vres{}, false
	}
	out := &colVec{
		kinds: make([]byte, n),
		offs:  make([]int32, n),
		bools: make([]bool, n),
	}
	for i := range out.kinds {
		out.kinds[i] = driver.KindByteBool
		out.offs[i] = int32(i)
	}
	if lk != 'c' && rk != 'c' {
		for k := range out.bools {
			af, _ := l.numericAt(k)
			bf, _ := r.numericAt(k)
			out.bools[k] = keep.holds(af, bf) != 0
		}
		return vres{vec: out}, true
	}
	// The common shape, a column against a constant, runs typed.
	col, c := l, r
	if lk == 'c' {
		col, c, keep = r, l, keep.mirrored()
	}
	cf, _ := c.c.AsFloat()
	if col.vec.uniform() == driver.KindByteInt {
		compareConst(out.bools, col.vec.ints, col.sel, keep, cf)
	} else {
		compareConst(out.bools, col.vec.floats, col.sel, keep, cf)
	}
	return vres{vec: out}, true
}

// compareConst writes, per entry, whether the column value compares
// with c as keep accepts.
func compareConst[T int64 | float64](out []bool, vals []T, sel []int32, keep ordering, c float64) {
	if sel == nil {
		for k := range out {
			out[k] = keep.holds(float64(vals[k]), c) != 0
		}
		return
	}
	for k, i := range sel {
		out[k] = keep.holds(float64(vals[i]), c) != 0
	}
}

// evalScalar mirrors the row engine's evalExpr against one position of
// a relation, node for node — same short-circuits, same NULL handling, same
// error text — using the scalar kernels sqldb exports.
func (e *DB) evalScalar(ex sqldb.Expr, rel *erel, ri int) (sqldb.Value, error) {
	switch x := ex.(type) {
	case *sqldb.Literal:
		return x.Val, nil
	case *sqldb.ColumnRef:
		i, err := rel.resolve(x)
		if err != nil {
			return sqldb.Null, err
		}
		return rel.cols[i].vec.value(rowAt(rel.cols[i].sel, ri)), nil
	case *sqldb.BinaryExpr:
		l, err := e.evalScalar(x.Left, rel, ri)
		if err != nil {
			return sqldb.Null, err
		}
		switch x.Op {
		case "AND":
			if l.Kind == sqldb.KindBool && !l.Bool {
				return sqldb.NewBool(false), nil
			}
		case "OR":
			if l.Kind == sqldb.KindBool && l.Bool {
				return sqldb.NewBool(true), nil
			}
		}
		r, err := e.evalScalar(x.Right, rel, ri)
		if err != nil {
			return sqldb.Null, err
		}
		return sqldb.ApplyBinary(x.Op, l, r)
	case *sqldb.UnaryExpr:
		v, err := e.evalScalar(x.X, rel, ri)
		if err != nil {
			return sqldb.Null, err
		}
		return sqldb.ApplyUnary(x.Op, v)
	case *sqldb.InExpr:
		v, err := e.evalScalar(x.X, rel, ri)
		if err != nil {
			return sqldb.Null, err
		}
		if v.IsNull() {
			return sqldb.Null, nil
		}
		found := false
		for _, item := range x.List {
			iv, err := e.evalScalar(item, rel, ri)
			if err != nil {
				return sqldb.Null, err
			}
			if !iv.IsNull() && sqldb.Equal(v, iv) {
				found = true
				break
			}
		}
		return sqldb.NewBool(found != x.Neg), nil
	case *sqldb.BetweenExpr:
		v, err := e.evalScalar(x.X, rel, ri)
		if err != nil {
			return sqldb.Null, err
		}
		lo, err := e.evalScalar(x.Lo, rel, ri)
		if err != nil {
			return sqldb.Null, err
		}
		hi, err := e.evalScalar(x.Hi, rel, ri)
		if err != nil {
			return sqldb.Null, err
		}
		if v.IsNull() || lo.IsNull() || hi.IsNull() {
			return sqldb.Null, nil
		}
		in := sqldb.Compare(v, lo) >= 0 && sqldb.Compare(v, hi) <= 0
		return sqldb.NewBool(in != x.Neg), nil
	case *sqldb.LikeExpr:
		v, err := e.evalScalar(x.X, rel, ri)
		if err != nil {
			return sqldb.Null, err
		}
		pat, err := e.evalScalar(x.Pattern, rel, ri)
		if err != nil {
			return sqldb.Null, err
		}
		if v.IsNull() || pat.IsNull() {
			return sqldb.Null, nil
		}
		if v.Kind != sqldb.KindText || pat.Kind != sqldb.KindText {
			return sqldb.Null, fmt.Errorf("sqldb: LIKE requires text operands")
		}
		return sqldb.NewBool(sqldb.LikeMatch(v.Str, pat.Str) != x.Neg), nil
	case *sqldb.IsNullExpr:
		v, err := e.evalScalar(x.X, rel, ri)
		if err != nil {
			return sqldb.Null, err
		}
		return sqldb.NewBool(v.IsNull() != x.Neg), nil
	case *sqldb.AggExpr:
		return sqldb.Null, fmt.Errorf("sqldb: aggregate %s outside GROUP BY context", x.String())
	default:
		return sqldb.Null, fmt.Errorf("sqldb: unhandled expression %T", ex)
	}
}

// finishFold is the row engine's aggregate finalization, shared by both
// fold paths.
func finishFold(fn string, count int64, sum float64, allInt bool, minV, maxV sqldb.Value) (sqldb.Value, error) {
	switch fn {
	case "COUNT":
		return sqldb.NewInt(count), nil
	case "SUM":
		if count == 0 {
			return sqldb.Null, nil
		}
		if allInt {
			return sqldb.NewInt(int64(sum)), nil
		}
		return sqldb.NewFloat(sum), nil
	case "AVG":
		if count == 0 {
			return sqldb.Null, nil
		}
		return sqldb.NewFloat(sum / float64(count)), nil
	case "MIN":
		if count == 0 {
			return sqldb.Null, nil
		}
		return minV, nil
	case "MAX":
		if count == 0 {
			return sqldb.Null, nil
		}
		return maxV, nil
	default:
		return sqldb.Null, fmt.Errorf("sqldb: unknown aggregate %q", fn)
	}
}
