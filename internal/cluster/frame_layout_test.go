package cluster

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"strings"
	"testing"

	"github.com/qamarket/qamarket/internal/driver"
	"github.com/qamarket/qamarket/internal/engine"
	"github.com/qamarket/qamarket/internal/sqldb"
)

// shapeTestDB holds the benchmark's result shapes at one batch's scale:
// big is bulk-fetch's and dist-join's table (a INT in [0,100), b FLOAT
// with every value distinct, c a 4-byte TEXT, d BOOL) at four batches,
// and star the table a small-fetch join groups into eight rows.
func shapeTestDB(t *testing.T) *engine.DB {
	t.Helper()
	db := sqldb.Open()
	for _, ddl := range []string{
		"CREATE TABLE big (a INT, b FLOAT, c TEXT, d BOOL)",
		"CREATE TABLE star (id INT, k INT, v FLOAT, grp INT)",
	} {
		if _, _, err := db.Exec(ddl); err != nil {
			t.Fatal(err)
		}
	}
	rng := rand.New(rand.NewSource(1))
	big := make([]sqldb.Row, 4*4096)
	for i, p := range rng.Perm(len(big)) {
		big[i] = sqldb.Row{
			sqldb.NewInt(int64(rng.Intn(100))),
			sqldb.NewFloat(0.5 * float64(p)),
			sqldb.NewText(fmt.Sprintf("t%03d", rng.Intn(997))),
			sqldb.NewBool(rng.Intn(2) == 0),
		}
	}
	star := make([]sqldb.Row, 50)
	for i := range star {
		star[i] = sqldb.Row{sqldb.NewInt(int64(i)), sqldb.NewInt(int64(rng.Intn(64))), sqldb.NewFloat(rng.Float64() * 100), sqldb.NewInt(int64(i % 8))}
	}
	if err := db.AppendTableRows("big", big); err != nil {
		t.Fatal(err)
	}
	if err := db.AppendTableRows("star", star); err != nil {
		t.Fatal(err)
	}
	return engine.FromDB(db)
}

// TestBatchFrameBytesPerShape pins the payload bytes of the first batch
// frame a node writes for each of the benchmark's result shapes: the
// three bulk-fetch projections (4,096 rows aliasing storage), a
// dist-join fragment (a selection of (a INT, b FLOAT), gathered per
// batch) and a small-fetch reply (8 grouped rows). A change that moves a
// number names it and says why, as a golden re-pin does.
func TestBatchFrameBytesPerShape(t *testing.T) {
	e := shapeTestDB(t)
	for _, tc := range []struct {
		name, sql string
		rows      int
		want      int
	}{
		// b, a multiple of 0.5 below 8,192, travels as 2-byte deltas of
		// 2b: 6 bytes a row less than raw words, for an 11-byte scale.
		{"bulk a,b,c,d", "SELECT a, b, c, d FROM big", 4096, 33393},
		{"bulk a,b", "SELECT a, b FROM big", 4096, 12358},
		{"bulk c", "SELECT c FROM big", 4096, 20510},
		{"dist-join fragment", "SELECT a, b FROM big WHERE b >= 1000 AND b < 4000", 4096, 12358},
		// total sums random floats, which scale by no power of two short
		// of 2^53: raw words, behind a width byte.
		{"small-fetch", "SELECT grp, COUNT(*) AS n, SUM(v) AS total FROM star GROUP BY grp", 8, 170},
	} {
		t.Run(tc.name, func(t *testing.T) {
			res, err := e.Query(tc.sql)
			if err != nil {
				t.Fatal(err)
			}
			var (
				cur          driver.Cursor
				batch, piece ColBlock
			)
			// A node's batch size (NodeConfig.fetchBatchRows' default).
			if !res.NextBatch(&cur, 4096, &batch) {
				t.Fatal("no batch")
			}
			frame, rows := appendFittingBatch(nil, 1, &batch, &piece)
			if rows != tc.rows {
				t.Fatalf("the batch carries %d rows, want %d", rows, tc.rows)
			}
			got := len(frame) - frameHdrLen
			t.Logf("%d payload bytes, %.2f B/row", got, float64(got)/float64(rows))
			if got != tc.want {
				t.Fatalf("%d payload bytes (%.2f B/row), pinned %d", got, float64(got)/float64(rows), tc.want)
			}
		})
	}
}

// TestFrameDecodeRefusesHostileBatches: each batch below is one a
// correct node never writes, and the decoder refuses it with
// errFrameDecode before sizing anything from what it claims. The first
// four claim more rows or columns than their bytes can hold — every column
// costs 21 bytes and at least a bit a row, and a column of NULLs is no
// mode of its own but per-row kind bytes — and the rest are the
// non-canonical choices, each of which would decode to a block the
// encoder writes otherwise.
func TestFrameDecodeRefusesHostileBatches(t *testing.T) {
	le := binary.LittleEndian
	// batch assembles a payload: the row and column counts, then the
	// columns' bytes as given.
	batch := func(nrows, ncols uint32, cols ...[]byte) []byte {
		p := le.AppendUint32(le.AppendUint32(nil, nrows), ncols)
		for _, c := range cols {
			p = append(p, c...)
		}
		return p
	}
	u32 := func(v uint32) []byte { return le.AppendUint32(nil, v) }
	cat := func(parts ...[]byte) []byte {
		var b []byte
		for _, p := range parts {
			b = append(b, p...)
		}
		return b
	}
	none := u32(0)
	nullCol := cat([]byte{driver.KindByteNull}, none, none, none, none, none) // 21 bytes, no mode
	boolCol := func(n uint32, bits ...byte) []byte {
		return cat([]byte{driver.KindByteBool}, none, none, none, none, u32(n), bits)
	}
	// intCol is a uniform int column of deltas at width w from base,
	// followed by the four empty kinds.
	intCol := func(base int64, w byte, deltas ...byte) []byte {
		n := uint32(len(deltas)) / uint32(w)
		return cat([]byte{driver.KindByteInt}, u32(n), le.AppendUint64(nil, uint64(base)), []byte{w}, deltas, none, none, none, none)
	}
	// textCol is a uniform text column with a w-byte length table.
	textCol := func(w byte, lens []byte, blob string) []byte {
		n := uint32(len(lens)) / uint32(w)
		return cat([]byte{driver.KindByteText}, none, none, u32(n), u32(uint32(len(blob))), []byte{w}, lens, []byte(blob), none)
	}
	// floatCol is a uniform float column: width w, scale k and base, then
	// the deltas as given.
	floatCol := func(n uint32, w byte, k uint16, base int64, deltas ...byte) []byte {
		return cat([]byte{driver.KindByteFloat}, none, u32(n), []byte{w}, le.AppendUint16(nil, k), le.AppendUint64(nil, uint64(base)), deltas, none, none, none)
	}
	rawFloatCol := func(vals ...float64) []byte {
		col := cat([]byte{driver.KindByteFloat}, none, u32(uint32(len(vals))), []byte{0})
		for _, v := range vals {
			col = le.AppendUint64(col, math.Float64bits(v))
		}
		return cat(col, none, none, none)
	}
	eight := make([]byte, 16)
	eight[8] = 1
	for _, tc := range []struct {
		name    string
		payload []byte
		why     string // what the refusal names
	}{
		{"uniform NULL column claiming 2^32-1 rows", batch(math.MaxUint32, 1, nullCol), "cells"},
		{"cells past maxFramePayload", batch(maxFramePayload/2+1, 2, nullCol, nullCol), "cells"},
		{"bools one row past their bits", batch(9, 1, boolCol(9, 0xff)), "cells"},
		{"columns past the payload", batch(0, 1<<30, nullCol), "cells"},
		{"NULL mode", batch(1, 1, nullCol, []byte{0}), "one kind"},
		{"mode 0 over a column of one kind", batch(2, 1, cat([]byte{0, 'b', 'b'}, none, none, none, none, u32(2), []byte{1})), "one kind"},
		{"mode that is no kind", batch(1, 1, cat([]byte{'x'}, none, none, none, none, none), []byte{0}), "one kind"},
		{"mode over no rows", batch(0, 1, boolCol(0)), "one kind"},
		{"base below the minimum", batch(2, 1, intCol(5, 1, 1, 2)), "minimum"},
		{"base past MaxInt64's reach", batch(2, 1, intCol(math.MaxInt64, 1, 0, 1)), "minimum"},
		{"int width wider than needed", batch(2, 1, intCol(0, 2, 0, 0, 1, 0)), "fewest bytes"},
		{"int width 3", batch(1, 1, intCol(0, 3, 0, 0, 0)), "ints"},
		{"text width wider than needed", batch(2, 1, textCol(2, []byte{1, 0, 2, 0}, "abc")), "fewest bytes"},
		{"text width 8", batch(1, 1, textCol(8, []byte{1, 0, 0, 0, 0, 0, 0, 0}, "a")), "text table"},
		{"blob for an absent kind", batch(1, 1, cat([]byte{0, driver.KindByteNull}, none, none, none, u32(3), none, []byte("abc"))), "blob"},
		{"ints missing from a column of ints", batch(1, 1, cat([]byte{driver.KindByteInt}, none, none, none, none, none), []byte{0}), "ints"},
		{"float scale not the least", batch(2, 1, floatCol(2, 1, 1, 2, 0, 2)), "least power of two"},
		{"float scale of a zero column", batch(1, 1, floatCol(1, 1, 1, 0, 0)), "least power of two"},
		{"float base below the minimum", batch(2, 1, floatCol(2, 1, 0, 5, 1, 2)), "minimum"},
		{"float width wider than needed", batch(2, 1, floatCol(2, 2, 0, 0, 0, 0, 1, 0)), "fewest bytes"},
		{"float width 8", batch(2, 1, floatCol(2, 8, 0, 0, eight...)), "no layout"},
		{"float width 3", batch(1, 1, floatCol(1, 3, 0, 0, 0, 0, 0)), "no layout"},
		{"float scale past 2^1023", batch(1, 1, floatCol(1, 1, 1024, 1, 0)), "no layout"},
		{"scaled float past 2^53", batch(2, 1, floatCol(2, 1, 0, 1<<53, 0, 1)), "minimum"},
		{"scaled float below -2^53", batch(2, 1, floatCol(2, 1, 0, -1<<53-1, 1, 0)), "minimum"},
		{"raw floats that scale", batch(2, 1, rawFloatCol(0.5, 1)), "least power of two"},
		{"floats for an absent kind", batch(1, 1, cat([]byte{0, driver.KindByteNull}, none, u32(1), le.AppendUint64(nil, 0), none, none, none)), "floats"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var blk ColBlock
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			err := decodeFetchBatch(tc.payload, &blk)
			runtime.ReadMemStats(&after)
			if !errors.Is(err, errFrameDecode) || !strings.Contains(err.Error(), tc.why) {
				t.Fatalf("err = %v, want errFrameDecode naming %q", err, tc.why)
			}
			if grew := after.TotalAlloc - before.TotalAlloc; grew > 64<<10 {
				t.Fatalf("refusing a %d-byte payload allocated %d bytes", len(tc.payload), grew)
			}
		})
	}
}

// TestFloatColumnsRoundTripBitExact: every float comes back with its
// own bits — NaN payloads, −0, infinities and subnormals among them —
// each column travels in the width it should, raw or scaled, and the
// decoded block re-encodes to the same bytes.
func TestFloatColumnsRoundTripBitExact(t *testing.T) {
	for _, fc := range floatColumns() {
		t.Run(fc.name, func(t *testing.T) {
			kinds := driver.FillKinds(nil, driver.KindByteFloat, len(fc.vals))
			blk := &ColBlock{Rows: len(fc.vals), Cols: []Col{{Kinds: kinds, Floats: fc.vals}}}
			if w := scaleFloats(fc.vals).w; w != fc.w {
				t.Fatalf("travels in width %d, want %d", w, fc.w)
			}
			frame := appendFetchBatchCols(nil, 1, blk)
			var back ColBlock
			if err := decodeFetchBatch(frame[frameHdrLen:], &back); err != nil {
				t.Fatal(err)
			}
			for i, v := range fc.vals {
				if got := back.Cols[0].Floats[i]; math.Float64bits(got) != math.Float64bits(v) {
					t.Fatalf("float %d: %v (%#x) comes back as %v (%#x)", i, v, math.Float64bits(v), got, math.Float64bits(got))
				}
			}
			if re := appendFetchBatchCols(nil, 1, &back); !bytes.Equal(re, frame) {
				t.Fatalf("decoded column re-encodes to\n%x\nnot\n%x", re, frame)
			}
		})
	}
}
