package engine

import (
	"errors"
	"fmt"
	"math"
	"slices"
	"strings"
	"testing"

	"github.com/qamarket/qamarket/internal/driver"
	"github.com/qamarket/qamarket/internal/sqldb"
)

// FuzzAppendBlock drives the ingest a fetch stream feeds: Reserve with
// the row count a stream's header announces — any int64, so a header
// that lies, by far or by a little, in either direction — then up to
// eight batches through AppendBlock, as the Distributor hands them over.
// Each batch is a block built from rows by FillFromRows, the model,
// which a script may break the way a bad block could be broken (a row
// count its kinds do not reach, a typed value missing or extra, a byte
// that is no kind) or turn into a selection that reads it back to front.
// The invariant: a broken block is refused with driver.ErrMalformed and
// leaves the table as it was, never a panic; any other lands, and the
// table then reads back exactly the model's rows (AppendRows of what
// went in), bit for bit; and no array grows past the reservation's clamp
// plus the rows that arrived.
func FuzzAppendBlock(f *testing.F) {
	f.Add(int64(3), uint8(1), []byte{2, 0x09, 0x12, 0x1b, 0x24, 0x01, 0x03, 0x0a, 0x13})
	f.Add(int64(1<<40), uint8(3), []byte{0x84, 1, 2, 3, 4, 5, 6, 7, 8, 0xa2, 9, 10, 11, 12, 13, 14, 15, 16})
	f.Add(int64(-5), uint8(0), []byte{0x61, 1, 0xc1, 2, 0xe1, 3})
	f.Add(int64(0), uint8(2), []byte{0x63, 1, 1, 1, 9, 9, 9, 0x11, 0x11, 0x11})
	f.Fuzz(func(t *testing.T, claim int64, ncols uint8, script []byte) {
		cols := make([]string, 1+ncols%4)
		for j := range cols {
			cols[j] = fmt.Sprintf("c%d", j)
		}
		e := Open()
		if err := e.Reserve("t", cols, int(claim)); err != nil {
			t.Fatal(err)
		}
		var want []sqldb.Row
		for batch := 0; batch < 8 && len(script) > 0; batch++ {
			op, nrows := script[0]>>5, int(script[0]%17)
			script = script[1:]
			rows := make([]sqldb.Row, nrows)
			for i := range rows {
				rows[i] = make(sqldb.Row, len(cols))
				for j := range rows[i] {
					var c byte
					if len(script) > 0 {
						c, script = script[0], script[1:]
					}
					rows[i][j] = fuzzValue(c)
				}
			}
			blk := &driver.Block{}
			blk.FillFromRows(cols, rows)
			model, err := blk.AppendRows(nil)
			if err != nil {
				t.Fatalf("batch %d: the model's own block: %v", batch, err)
			}
			broken := breakBlock(blk, op)
			if op == 3 && rowAligned(blk) {
				// A selection reading the block back to front.
				blk.Sel = make([]int32, blk.Rows)
				for k := range blk.Sel {
					blk.Sel[k] = int32(blk.Rows - 1 - k)
				}
				slices.Reverse(model)
			}
			err = e.AppendBlock("t", blk)
			switch {
			case broken && !errors.Is(err, driver.ErrMalformed):
				t.Fatalf("batch %d: a broken block (op %d) appended with err = %v", batch, op, err)
			case !broken && err != nil:
				t.Fatalf("batch %d: a sound block refused: %v", batch, err)
			case err == nil:
				want = append(want, model...)
			}
			got, err := e.Query("SELECT " + strings.Join(cols, ", ") + " FROM t")
			if err != nil {
				t.Fatal(err)
			}
			gotRows, err := got.AppendRows(nil)
			if err != nil {
				t.Fatal(err)
			}
			if !sameRows(gotRows, want) {
				t.Fatalf("batch %d: table reads back\n%v\nwant\n%v", batch, gotRows, want)
			}
		}
		limit := 2 * (MaxReserveRows + len(want))
		for j, v := range e.tables["t"].vecs {
			if c := max(cap(v.kinds), cap(v.offs), cap(v.ints), cap(v.floats), cap(v.texts), cap(v.bools)); c > limit {
				t.Fatalf("column %d holds an array of cap %d after %d rows (reservation claimed %d)", j, c, len(want), claim)
			}
		}
	})
}

// fuzzValue is the cell one script byte names: its low bits pick the
// kind, the rest the value, the int64 extremes, NaN, −0 and ±Inf among
// them.
func fuzzValue(c byte) sqldb.Value {
	v := c >> 3
	switch c % 5 {
	case 1:
		return sqldb.NewInt([]int64{math.MinInt64, math.MaxInt64, -1, 0}[v%4] + int64(v/4))
	case 2:
		return sqldb.NewFloat([]float64{math.NaN(), math.Copysign(0, -1), math.Inf(1), math.Inf(-1), 0.5}[v%5])
	case 3:
		return sqldb.NewText(strings.Repeat("ab", int(v%3)))
	case 4:
		return sqldb.NewBool(v%2 == 1)
	}
	return sqldb.Null
}

// breakBlock breaks blk the way op names, if it can, and reports
// whether it did: 4 claims a row its kinds do not reach, 5 drops a
// column's last typed value, 6 gives the first column an int its kinds
// do not list, 7 turns a kind byte into one that is no kind. Any other
// op leaves blk sound.
func breakBlock(blk *driver.Block, op byte) bool {
	switch op {
	case 4:
		blk.Rows++
		return true
	case 5:
		for j := range blk.Cols {
			c := &blk.Cols[j]
			switch {
			case len(c.Ints) > 0:
				c.Ints = c.Ints[:len(c.Ints)-1]
			case len(c.Floats) > 0:
				c.Floats = c.Floats[:len(c.Floats)-1]
			case len(c.Texts) > 0:
				c.Texts = c.Texts[:len(c.Texts)-1]
			case len(c.Bools) > 0:
				c.Bools = c.Bools[:len(c.Bools)-1]
			default:
				continue
			}
			return true
		}
	case 6:
		blk.Cols[0].Ints = append(blk.Cols[0].Ints, 1)
		return true
	case 7:
		if blk.Rows > 0 {
			blk.Cols[0].Kinds[0] = 'x'
			return true
		}
	}
	return false
}

// rowAligned reports whether every column of blk has one kind and no
// NULLs, the only block a selection may be made over.
func rowAligned(blk *driver.Block) bool {
	for j := range blk.Cols {
		c := &blk.Cols[j]
		if driver.SingleKind(blk.Rows, len(c.Ints), len(c.Floats), len(c.Texts), len(c.Bools)) == 0 {
			return false
		}
	}
	return blk.Rows > 0
}

// sameRows compares rows cell by cell, floats by their bits.
func sameRows(a, b []sqldb.Row) bool {
	return slices.EqualFunc(a, b, func(x, y sqldb.Row) bool {
		return slices.EqualFunc(x, y, func(u, v sqldb.Value) bool {
			return u.Kind == v.Kind && u.Int == v.Int && math.Float64bits(u.Float) == math.Float64bits(v.Float) &&
				u.Str == v.Str && u.Bool == v.Bool
		})
	})
}
