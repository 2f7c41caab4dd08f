package engine

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math"
	"slices"
	"testing"

	"github.com/qamarket/qamarket/internal/sqldb"
)

// FuzzKeyTable drives keyTable with arbitrary add / find scripts over
// numbers and texts against the thing it replaced: a Go map from key to
// number and the slice of keys in order of first appearance.
func FuzzKeyTable(f *testing.F) {
	num := func(ops ...uint64) []byte { // mode, size hint, then (add flag, key)…
		b := []byte{byte(ops[0]), byte(ops[1])}
		for i := 2; i+1 < len(ops); i += 2 {
			b = binary.LittleEndian.AppendUint64(append(b, byte(ops[i])), ops[i+1])
		}
		return b
	}
	f.Add(num(0, 0, 1, 7, 1, 7, 0, 7, 0, 8, 1, 8, 1, math.Float64bits(math.NaN()), 1, 1<<63, 1, 0))
	f.Add(num(2, 3, 1, 1, 1, 2, 1, 3, 1, 4, 1, 5, 1, 6, 1, 7, 1, 8, 1, 9, 0, 9, 0, 10)) // keys << 46: low bits all zero
	f.Add(num(4, 1, 1, 1, 1, 2, 1, 3, 1, 4, 1, 5, 1, 6, 1, 7, 1, 8, 1, 9, 0, 2, 0, 99)) // float images of small ints
	f.Add([]byte("\x01\x02\x01a|\x00\x01\x00\x01a\x00\x00a|\x00\x00b\x00\x01a|\x00\x01\xff\xfe"))
	f.Fuzz(checkKeyTable)
}

// keyOracle is what keyTable replaced: a Go map from key to number and
// the keys in order of first appearance.
type keyOracle[K comparable] struct {
	ids   map[K]int32
	order []K
}

// check holds one table operation to the oracle's answer.
func (o *keyOracle[K]) check(t *testing.T, key K, add bool, got int32) {
	t.Helper()
	want, seen := o.ids[key]
	if !seen {
		want = -1
		if add {
			want = int32(len(o.order))
			o.ids[key], o.order = want, append(o.order, key)
		}
	}
	if got != want {
		t.Fatalf("key %v (add=%v) numbered %d, want %d after %d keys", key, add, got, want, len(o.order))
	}
}

// checkKeyTable reads data as a script. Byte 0 picks texts (bit 0) or
// numbers and, for numbers, how a script key becomes a table key (bits
// 1–2): as it is, shifted so only the high bits vary, or the float64
// image of a small integer — the shapes a weak hash collapses. Byte 1 is
// the row count the table is sized from, so growth starts from the
// smallest table. A number op is a flag byte (bit 0 = add) and eight key
// bytes; a text op is a flag byte and the key, closed by a zero byte.
// At the end the table must hold the keys in order of first appearance
// and find every one of them.
func checkKeyTable(t *testing.T, data []byte) {
	if len(data) < 2 {
		return
	}
	mode, script := data[0], data[2:]
	var sc scratch
	defer sc.release()
	tab := newKeyTable(&sc, int(data[1]))

	if mode&1 == 0 {
		o := keyOracle[uint64]{ids: map[uint64]int32{}}
		for ; len(script) >= 9; script = script[9:] {
			add, key := script[0]&1 == 1, binary.LittleEndian.Uint64(script[1:9])
			switch mode >> 1 & 3 {
			case 1:
				key <<= 46
			case 2:
				key = math.Float64bits(float64(key & 0xFFFF))
			}
			o.check(t, key, add, tab.number(key, add))
		}
		if !slices.Equal(tab.nums, o.order) || tab.len() != len(o.order) {
			t.Fatalf("table holds %x, want %x in order of first appearance", tab.nums, o.order)
		}
		for _, key := range o.order {
			o.check(t, key, false, tab.number(key, false))
		}
		return
	}
	o := keyOracle[string]{ids: map[string]int32{}}
	for len(script) > 0 {
		add := script[0]&1 == 1
		end := bytes.IndexByte(script[1:], 0)
		if end < 0 {
			end = len(script) - 1
		}
		key := string(script[1 : 1+end])
		script = script[min(len(script), 2+end):]
		o.check(t, key, add, tab.text(key, add))
	}
	if !slices.Equal(tab.texts, o.order) || tab.len() != len(o.order) {
		t.Fatalf("table holds %q, want %q in order of first appearance", tab.texts, o.order)
	}
	for _, key := range o.order {
		o.check(t, key, false, tab.text(key, false))
	}
}

// BenchmarkKeyTable is the table alone, per key: numbering a 100k-row
// column whose keys mostly repeat (hit-heavy: 100 distinct) or never do
// (insert-heavy, which also pays for the doublings), for the three key
// shapes the engine feeds it.
func BenchmarkKeyTable(b *testing.B) {
	const rows = 100_000
	for _, load := range []struct {
		name     string
		distinct int
	}{{"hit", 100}, {"insert", rows}} {
		ints, small, texts := &colVec{}, &colVec{}, &colVec{}
		for i := 0; i < rows; i++ {
			k := i * 7919 % load.distinct
			ints.appendVal(sqldb.NewInt(int64(k) * 0x9E3779B9)) // bits all over the float64 image
			small.appendVal(sqldb.NewInt(int64(k)))             // 46 trailing zero bits and more
			texts.appendVal(sqldb.NewText(fmt.Sprintf("t%06d", k)))
		}
		for _, c := range []struct {
			name string
			vec  *colVec
		}{{"ints", ints}, {"smallints", small}, {"texts", texts}} {
			b.Run(load.name+"/"+c.name, func(b *testing.B) {
				var sc scratch
				ids := make([]int32, rows)
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					tab := newKeyTable(&sc, rows)
					tab.ids(ids, c.vec, nil, true, true)
					if tab.len() != load.distinct {
						b.Fatalf("%d keys, want %d", tab.len(), load.distinct)
					}
					sc.release()
				}
				b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/rows, "ns/key")
			})
		}
	}
}
