package engine

import (
	"encoding/binary"
	"fmt"
	"math"
	"slices"
	"testing"

	"github.com/qamarket/qamarket/internal/sqldb"
)

// The comparison kernels' truth table: the values on which a compare
// compiled per operator could part from Compare. Two NaN bit patterns
// (Compare calls a NaN equal to everything), both zeros (equal to each
// other), both infinities, and the integers around 2^53, where
// neighbouring ints share one float64 image.
var (
	cmpOps    = []string{"=", "<>", "<", "<=", ">", ">="}
	cmpFloats = []float64{
		math.NaN(), math.Float64frombits(math.Float64bits(math.NaN()) ^ 1),
		0, math.Copysign(0, -1), math.Inf(1), math.Inf(-1),
		1<<53 - 1, 1 << 53, 1<<53 + 2, -(1 << 53), 1.5, -2.5, 3,
	}
	cmpInts = []int64{
		1<<53 - 1, 1 << 53, 1<<53 + 1, -(1<<53 + 1), -(1 << 53),
		0, 3, -2, math.MaxInt64, math.MinInt64,
	}
)

// acceptsOutcome is what op means for Compare's outcome, written without
// ordering, so the test does not share the code it checks.
func acceptsOutcome(op string, cmp int) bool {
	switch op {
	case "=":
		return cmp == 0
	case "<>":
		return cmp != 0
	case "<":
		return cmp < 0
	case "<=":
		return cmp <= 0
	case ">":
		return cmp > 0
	case ">=":
		return cmp >= 0
	}
	panic("unknown operator " + op)
}

// TestCompareKernelsTruthTable holds refine and compareConst to
// sqldb.Compare for every operator, over an INT and a FLOAT column, with
// and without an incoming selection, written as column op constant and
// mirrored (constant op column, which the kernels run as column
// op-mirrored constant).
func TestCompareKernelsTruthTable(t *testing.T) {
	for _, op := range cmpOps {
		for _, mirror := range []bool{false, true} {
			keep, _ := orderingOf(op)
			if mirror {
				keep = keep.mirrored()
			}
			for _, c := range cmpFloats {
				want := func(v sqldb.Value) bool {
					if mirror {
						return acceptsOutcome(op, sqldb.Compare(sqldb.NewFloat(c), v))
					}
					return acceptsOutcome(op, sqldb.Compare(v, sqldb.NewFloat(c)))
				}
				what := fmt.Sprintf("x %s %v", op, c)
				if mirror {
					what = fmt.Sprintf("%v %s x", c, op)
				}
				checkKernels(t, what+" over FLOAT", cmpFloats, keep, c, func(v float64) bool { return want(sqldb.NewFloat(v)) })
				checkKernels(t, what+" over INT", cmpInts, keep, c, func(v int64) bool { return want(sqldb.NewInt(v)) })
			}
		}
	}
}

// FuzzCompareKernel takes an operator (byte: op%6 picks it, bit 3
// mirrors it), a constant's float64 bits, and raw eight-byte values read
// both as float64 bits and as int64s, and holds both kernels to holds,
// the general form refine compiles away. The truth table is its seed
// corpus.
func FuzzCompareKernel(f *testing.F) {
	var raw []byte
	for _, v := range cmpFloats {
		raw = binary.LittleEndian.AppendUint64(raw, math.Float64bits(v))
	}
	for _, v := range cmpInts {
		raw = binary.LittleEndian.AppendUint64(raw, uint64(v))
	}
	for op := range cmpOps {
		for _, mirror := range []byte{0, 8} {
			for _, c := range cmpFloats {
				f.Add(byte(op)|mirror, math.Float64bits(c), raw)
			}
		}
	}
	f.Fuzz(func(t *testing.T, op byte, cbits uint64, raw []byte) {
		keep, _ := orderingOf(cmpOps[op%6])
		if op&8 != 0 {
			keep = keep.mirrored()
		}
		c := math.Float64frombits(cbits)
		var floats []float64
		var ints []int64
		for ; len(raw) >= 8; raw = raw[8:] {
			bits := binary.LittleEndian.Uint64(raw)
			floats, ints = append(floats, math.Float64frombits(bits)), append(ints, int64(bits))
		}
		what := fmt.Sprintf("%+v against %v", keep, c)
		checkKernels(t, what, floats, keep, c, func(v float64) bool { return keep.holds(v, c) == 1 })
		checkKernels(t, what, ints, keep, c, func(v int64) bool { return keep.holds(float64(v), c) == 1 })
	})
}

// checkKernels runs refine and compareConst over vals — as they are,
// then through a selection that reads them back to front, each row
// twice, refined in place as a scan's second pushed conjunct is — and
// fails the test where a row's answer is not want's.
func checkKernels[T int64 | float64](t *testing.T, what string, vals []T, keep ordering, c float64, want func(T) bool) {
	t.Helper()
	sel := make([]int32, 0, 2*len(vals))
	for i := len(vals) - 1; i >= 0; i-- {
		sel = append(sel, int32(i), int32(i))
	}
	for _, src := range [][]int32{nil, sel} {
		n, form := len(vals), "all rows"
		if src != nil {
			n, form = len(src), "through a selection"
		}
		var wantSel []int32
		wantOut := make([]bool, n)
		for k := range wantOut {
			if r := rowAt(src, k); want(vals[r]) {
				wantSel, wantOut[k] = append(wantSel, int32(r)), true
			}
		}
		out := make([]bool, n)
		if compareConst(out, vals, src, keep, c); !slices.Equal(out, wantOut) {
			t.Errorf("compareConst: %s, %s: answered %v, want %v", what, form, out, wantOut)
		}
		dst := make([]int32, n)
		if src != nil {
			copy(dst, src)
			src = dst
		}
		if got := refine(dst, vals, src, n, keep, c); !slices.Equal(got, wantSel) {
			t.Errorf("refine: %s, %s: kept rows %v, want %v", what, form, got, wantSel)
		}
	}
}
