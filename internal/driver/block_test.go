package driver

import (
	"bytes"
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"github.com/qamarket/qamarket/internal/sqldb"
)

// seededRows draws n rows of (INT, FLOAT, TEXT, BOOL). With nulls the
// columns are sparse — NULLs, and an INT column that sometimes holds a
// float — which only a block without Sel may carry.
func seededRows(rng *rand.Rand, n int, nulls bool) []sqldb.Row {
	rows := make([]sqldb.Row, n)
	for i := range rows {
		rows[i] = sqldb.Row{
			sqldb.NewInt(int64(rng.Intn(1000) - 500)),
			sqldb.NewFloat(float64(rng.Intn(1000)) / 8),
			sqldb.NewText(fmt.Sprintf("w%03d", rng.Intn(200))),
			sqldb.NewBool(rng.Intn(2) == 0),
		}
		if nulls {
			if rng.Intn(5) == 0 {
				rows[i][rng.Intn(4)] = sqldb.Null
			}
			if rng.Intn(7) == 0 {
				rows[i][0] = sqldb.NewFloat(float64(i) + 0.5)
			}
		}
	}
	return rows
}

var testColumns = []string{"a", "b", "c", "d"}

// blockCase is a block and the rows it must read as.
type blockCase struct {
	name string
	blk  func() *Block // a fresh block each call: Drop and Truncate mutate
	want []sqldb.Row
}

func blockCases(n int) []blockCase {
	rng := rand.New(rand.NewSource(int64(n)))
	sparse := seededRows(rng, n, true)
	base := seededRows(rng, 2*n, false)
	// An ascending selection (a filter's), and one in no order with
	// repeats (a sort's, a join's).
	var asc, any []int32
	for len(asc) < n {
		asc = asc[:0]
		for i := range base {
			if rng.Intn(2) == 0 && len(asc) < n {
				asc = append(asc, int32(i))
			}
		}
	}
	for i := 0; i < n; i++ {
		any = append(any, int32(rng.Intn(len(base))))
	}
	pickRows := func(sel []int32) []sqldb.Row {
		out := make([]sqldb.Row, len(sel))
		for k, i := range sel {
			out[k] = base[i]
		}
		return out
	}
	selected := func(sel []int32) func() *Block {
		return func() *Block {
			b := &Block{}
			b.FillFromRows(testColumns, base)
			b.Sel, b.Rows = append([]int32(nil), sel...), len(sel)
			return b
		}
	}
	return []blockCase{
		{"dense", func() *Block { b := &Block{}; b.FillFromRows(testColumns, sparse); return b }, sparse},
		{"sel ascending", selected(asc), pickRows(asc)},
		{"sel any order", selected(any), pickRows(any)},
	}
}

func mustRows(t *testing.T, b *Block) []sqldb.Row {
	t.Helper()
	rows, err := b.AppendRows(nil)
	if err != nil {
		t.Fatalf("AppendRows: %v", err)
	}
	if len(rows) != b.Rows {
		t.Fatalf("AppendRows built %d rows of a block with Rows = %d", len(rows), b.Rows)
	}
	return rows
}

func sameRows(t *testing.T, what string, got, want []sqldb.Row) {
	t.Helper()
	if len(got) == 0 && len(want) == 0 {
		return
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("%s: %d rows differ from the %d expected", what, len(got), len(want))
	}
}

func TestBlockReadsAgreeWithDense(t *testing.T) {
	for _, c := range blockCases(300) {
		t.Run(c.name, func(t *testing.T) {
			b := c.blk()
			sameRows(t, "AppendRows", mustRows(t, b), c.want)
			kept, err := b.AppendRows([]sqldb.Row{{sqldb.NewInt(7)}})
			if err != nil || len(kept) != len(c.want)+1 || kept[0][0].Int != 7 {
				t.Fatalf("AppendRows onto a non-empty dst: %d rows, err %v", len(kept), err)
			}
			for i, row := range c.want {
				for j, want := range row {
					got, err := b.Value(i, j)
					if err != nil || got != want {
						t.Fatalf("Value(%d,%d) = %v, %v; want %v", i, j, got, err, want)
					}
				}
			}
			d := b.Dense()
			if (d == b) != (b.Sel == nil) {
				t.Fatalf("Dense returned the block itself = %v with Sel nil = %v", d == b, b.Sel == nil)
			}
			if d.Sel != nil || d.Rows != len(c.want) {
				t.Fatalf("Dense: Sel %v, Rows %d", d.Sel != nil, d.Rows)
			}
			for j := range d.Cols {
				if len(d.Cols[j].Kinds) != d.Rows {
					t.Fatalf("Dense column %d has %d kind bytes for %d rows", j, len(d.Cols[j].Kinds), d.Rows)
				}
			}
			sameRows(t, "Dense", mustRows(t, d), c.want)
			sameRows(t, "source after Dense", mustRows(t, b), c.want)
		})
	}
}

func TestBlockNextBatchAgreesWithDense(t *testing.T) {
	for _, c := range blockCases(9000) {
		for _, size := range []int{1, 7, 4096} {
			t.Run(fmt.Sprintf("%s/%d", c.name, size), func(t *testing.T) {
				b := c.blk()
				var cur Cursor
				var batch Block
				var got []sqldb.Row
				for b.NextBatch(&cur, size, &batch) {
					if batch.Sel != nil || batch.Rows == 0 || batch.Rows > size {
						t.Fatalf("batch: Sel %v, Rows %d at size %d", batch.Sel != nil, batch.Rows, size)
					}
					if !reflect.DeepEqual(batch.Columns, testColumns) {
						t.Fatalf("batch columns %v", batch.Columns)
					}
					rows, err := batch.AppendRows(nil)
					if err != nil {
						t.Fatal(err)
					}
					got = append(got, rows...)
				}
				if cur.Row != len(c.want) || b.NextBatch(&cur, size, &batch) {
					t.Fatalf("cursor stopped at %d of %d", cur.Row, len(c.want))
				}
				sameRows(t, "batches", got, c.want)
				sameRows(t, "source after the walk", mustRows(t, b), c.want)
			})
		}
	}
}

// A batch of a dense block aliases the block's arrays. Handing the same
// out to a walk over a selection must not gather into them.
func TestBlockNextBatchGatherSparesAliasedOut(t *testing.T) {
	cases := blockCases(500)
	dense, sel := cases[0].blk(), cases[1].blk()
	var out Block
	var cur Cursor
	for dense.NextBatch(&cur, 128, &out) {
	}
	cur = Cursor{}
	for sel.NextBatch(&cur, 128, &out) {
	}
	sameRows(t, "dense block after a selection reused its batch", mustRows(t, dense), cases[0].want)
}

// TestGatherKinds: gather fills the kind bytes of a column of one value
// kind with that kind and gathers everyone else's row by row — a column
// of NULLs, one that holds some NULLs and one that mixes kinds — into
// buffers it reuses, shorter or longer than the selection.
func TestGatherKinds(t *testing.T) {
	for _, tc := range []struct {
		name string
		src  Col
	}{
		{"ints", Col{Kinds: []byte("iiii"), Ints: []int64{1, 2, 3, 4}}},
		{"floats", Col{Kinds: []byte("ffff"), Floats: []float64{1, 2, 3, 4}}},
		{"texts", Col{Kinds: []byte("ssss"), Texts: []string{"a", "b", "c", "d"}}},
		{"bools", Col{Kinds: []byte("bbbb"), Bools: []bool{true, false, true, false}}},
		{"all NULL", Col{Kinds: []byte("nnnn")}},
		{"some NULL", Col{Kinds: []byte("inin"), Ints: []int64{1, 2}}},
		{"mixed", Col{Kinds: []byte("ifif"), Ints: []int64{1, 2}, Floats: []float64{1, 2}}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			// Every typed array holds at least two values, so these picks
			// stay inside them; only the kinds are read here.
			sel := []int32{1, 0, 1}
			want := []byte{tc.src.Kinds[1], tc.src.Kinds[0], tc.src.Kinds[1]}
			for _, prior := range [][]byte{nil, []byte("x"), []byte("xxxxxxxx")} {
				c := Col{Kinds: prior}
				c.gather(&tc.src, sel)
				if !bytes.Equal(c.Kinds, want) {
					t.Fatalf("over %q: kinds %q, want %q", prior, c.Kinds, want)
				}
			}
		})
	}
}

func TestBlockDropAndTruncateAgreeWithDense(t *testing.T) {
	for _, c := range blockCases(300) {
		n := len(c.want)
		t.Run(c.name, func(t *testing.T) {
			for _, k := range []int{-1, 0, 1, 5, n - 1, n, n + 3} {
				b := c.blk()
				b.Drop(k)
				sameRows(t, fmt.Sprintf("Drop(%d)", k), mustRows(t, b), c.want[min(max(k, 0), n):])
			}
			for _, k := range []int{-1, 0, 1, 5, n - 1, n, n + 3} {
				b := c.blk()
				b.Truncate(k)
				sameRows(t, fmt.Sprintf("Truncate(%d)", k), mustRows(t, b), c.want[:min(max(k, 0), n)])
			}
			// Both, then a batch walk: what a resumed, truncated stream reads.
			b := c.blk()
			b.Truncate(n - 10)
			b.Drop(20)
			var cur Cursor
			var batch Block
			var got []sqldb.Row
			for b.NextBatch(&cur, 64, &batch) {
				rows, err := batch.AppendRows(nil)
				if err != nil {
					t.Fatal(err)
				}
				got = append(got, rows...)
			}
			sameRows(t, "Truncate, Drop, batches", got, c.want[20:n-10])
		})
	}
}

// TestCountKindsMatchesASwitch: the bulk counter agrees with a per-byte
// switch on uniform, mixed and empty runs, and on runs holding a byte
// that is no kind, wherever it sits.
func TestCountKindsMatchesASwitch(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	alphabet := []byte{KindByteNull, KindByteInt, KindByteFloat, KindByteText, KindByteBool}
	var runs [][]byte
	for _, n := range []int{0, 1, 7, 64, 4096} {
		for _, k := range append(alphabet, 'x') {
			runs = append(runs, bytes.Repeat([]byte{k}, n))
		}
		for kinds := 2; kinds <= len(alphabet); kinds++ {
			run := make([]byte, n)
			for i := range run {
				run[i] = alphabet[rng.Intn(kinds)]
			}
			runs = append(runs, run)
			if n > 0 {
				bad := append([]byte(nil), run...)
				bad[rng.Intn(n)] = byte(rng.Intn(256))
				runs = append(runs, bad)
			}
		}
	}
	for _, run := range runs {
		var want [4]int
		wantOK := true
		for _, k := range run {
			switch k {
			case KindByteInt:
				want[0]++
			case KindByteFloat:
				want[1]++
			case KindByteText:
				want[2]++
			case KindByteBool:
				want[3]++
			case KindByteNull:
			default:
				wantOK = false
			}
		}
		ni, nf, ns, nb, ok := CountKinds(run)
		if [4]int{ni, nf, ns, nb} != want || ok != wantOK {
			t.Fatalf("CountKinds(%q) = %d %d %d %d %v, want %v %v", run, ni, nf, ns, nb, ok, want, wantOK)
		}
	}
}
