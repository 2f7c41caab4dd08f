package cluster

import (
	"bufio"
	"bytes"
	"fmt"
	"math/rand"
	"testing"
	"time"

	"github.com/qamarket/qamarket/internal/driver"
	"github.com/qamarket/qamarket/internal/engine"
	"github.com/qamarket/qamarket/internal/market"
	"github.com/qamarket/qamarket/internal/sqldb"
)

// startBenchNode stands up one federation node over a tiny seeded
// dataset for transport benchmarks.
func startBenchNode(b *testing.B) (*Node, string) {
	b.Helper()
	ds, err := GenerateDataset(DatasetParams{
		Nodes: 1, Tables: 2, Views: 2, RowsPerTable: 20, MinCopies: 1, MaxCopies: 1,
	}, rand.New(rand.NewSource(17)))
	if err != nil {
		b.Fatal(err)
	}
	n, err := StartNode("127.0.0.1:0", NodeConfig{
		Driver: engine.FromDB(ds.DBs[0]), MsPerCostUnit: 0.001, PeriodMs: 50, Market: market.DefaultConfig(1),
	})
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(func() { n.Close() })
	return n, n.Addr()
}

func benchClient(b *testing.B, addr string) *Client {
	b.Helper()
	c, err := NewClient(ClientConfig{
		Addrs: []string{addr}, Timeout: 5 * time.Second,
	})
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(c.Close)
	return c
}

// BenchmarkTransportRPC measures one sequential stats exchange on a
// pooled connection that is already up.
func BenchmarkTransportRPC(b *testing.B) {
	_, addr := startBenchNode(b)
	c := benchClient(b, addr)
	if _, err := c.Stats(addr); err != nil { // warm the pool / plan caches
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := c.Stats(addr); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTransportConcurrent is the acceptance benchmark's shape:
// 8 concurrent callers per proc hammering one node, their RPCs
// multiplexed on a handful of pooled connections.
func BenchmarkTransportConcurrent(b *testing.B) {
	_, addr := startBenchNode(b)
	c := benchClient(b, addr)
	if _, err := c.Stats(addr); err != nil {
		b.Fatal(err)
	}
	b.SetParallelism(8)
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			if _, err := c.Stats(addr); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// benchResult builds the acceptance criterion's 1,000-row, 4-column
// result (int, float, text, bool; every tenth row has a NULL).
func benchResult() *sqldb.Result {
	res := &sqldb.Result{Columns: []string{"id", "score", "name", "ok"}}
	for i := 0; i < 1000; i++ {
		row := sqldb.Row{
			sqldb.NewInt(int64(i)),
			sqldb.NewFloat(float64(i) * 1.5),
			sqldb.NewText(fmt.Sprintf("name-%d", i)),
			sqldb.NewBool(i%2 == 0),
		}
		if i%10 == 0 {
			row[1] = sqldb.Null
		}
		res.Rows = append(res.Rows, row)
	}
	return res
}

// resetFetchStream rewinds a fetchStream for the next decode while
// keeping its reusable header/block buffers warm.
func resetFetchStream(fs *fetchStream) {
	fs.gotHeader, fs.done = false, false
	fs.recv, fs.delivered, fs.batches, fs.skip = 0, 0, 0, 0
	fs.end = frameEnd{}
}

// benchFrameRoundTrip is one full frame-path fetch: server-side encode
// of header + batches + end into a pooled buffer, then client-side
// decode through fetchStream into reusable column blocks. The input is
// a driver block — the same columnar shape a storage driver's Execute
// returns — so the encode half exercises the zero-transposition path
// the server runs in production. Returns the rows delivered to the
// sink.
func benchFrameRoundTrip(blk *ColBlock, batch int, fb *frameBuf, src *bytes.Reader, br *bufio.Reader, fs *fetchStream, cur *driver.Cursor, chunk *ColBlock) (int64, error) {
	buf := appendFetchHeader(fb.b[:0], 1, blk.Columns, 1, batch, blk.Rows, 0)
	cur.Row = 0
	for blk.NextBatch(cur, batch, chunk) {
		buf = appendFetchBatchCols(buf, 1, chunk)
	}
	buf = appendFetchEnd(buf, 1, uint64(blk.Rows), (blk.Rows+batch-1)/batch, "")
	fb.b = buf
	src.Reset(buf)
	br.Reset(src)
	resetFetchStream(fs)
	for !fs.done {
		fm, err := readFrame(br, maxFramePayload)
		if err != nil {
			return fs.delivered, err
		}
		_, err = fs.onFrame(fm.typ, fm.payload)
		fm.release()
		if err != nil {
			return fs.delivered, err
		}
	}
	return fs.delivered, nil
}

// bulkBlock is bulk-fetch's result shape: rows of INT, FLOAT, TEXT and
// BOOL with no NULLs, so every batch NextBatch cuts aliases the block.
func bulkBlock(rows int) *ColBlock {
	res := &sqldb.Result{Columns: []string{"a", "b", "c", "d"}}
	for i := 0; i < rows; i++ {
		res.Rows = append(res.Rows, sqldb.Row{
			sqldb.NewInt(int64(i % 1000)),
			sqldb.NewFloat(float64(i) / 2),
			sqldb.NewText(fmt.Sprintf("w%03d", i%997)),
			sqldb.NewBool(i%3 == 0),
		})
	}
	return driver.FromResult(res)
}

// selFragment is dist-join's fragment shape: a selection of every other
// row of an (INT, FLOAT) table, walked by gathering each batch.
func selFragment(rows int) *ColBlock {
	res := &sqldb.Result{Columns: []string{"a", "b"}}
	sel := make([]int32, rows)
	for i := 0; i < 2*rows; i++ {
		res.Rows = append(res.Rows, sqldb.Row{sqldb.NewInt(int64(i % 100)), sqldb.NewFloat(float64(i) / 2)})
	}
	for k := range sel {
		sel[k] = int32(2 * k)
	}
	blk := driver.FromResult(res)
	blk.Sel, blk.Rows = sel, rows
	return blk
}

// BenchmarkFetchFrameRoundTrip is a result through frame encode +
// streamed decode. "acceptance" is the 1,000-row mixed result in
// 256-row batches whose allocation budget TestFetchFrameAllocs pins;
// "bulk" is bulk-fetch's 4,096-row batches aliasing storage; "sel" is a
// 20,000-row dist-join fragment that carries its selection. Beside the
// time per row it reports the stream's frame bytes per row, wire-B/row.
func BenchmarkFetchFrameRoundTrip(b *testing.B) {
	for _, bc := range []struct {
		name  string
		blk   *ColBlock
		batch int
	}{
		{"acceptance", driver.FromResult(benchResult()), 256},
		{"bulk", bulkBlock(16_384), 4096},
		{"sel", selFragment(20_000), 4096},
	} {
		b.Run(bc.name, func(b *testing.B) {
			blk := bc.blk
			fb := getFrameBuf()
			defer putFrameBuf(fb)
			var (
				src   bytes.Reader
				sum   int64
				cur   driver.Cursor
				chunk ColBlock
			)
			br := bufio.NewReader(&src)
			fs := &fetchStream{sink: fetchSink{block: func(blk *ColBlock) error {
				for _, v := range blk.Cols[0].Ints {
					sum += v
				}
				return nil
			}}}
			b.ReportAllocs()
			b.ResetTimer()
			var bytesPerOp int
			for i := 0; i < b.N; i++ {
				n, err := benchFrameRoundTrip(blk, bc.batch, fb, &src, br, fs, &cur, &chunk)
				if err != nil {
					b.Fatal(err)
				}
				if n != int64(blk.Rows) {
					b.Fatalf("delivered %d rows", n)
				}
				bytesPerOp = len(fb.b)
			}
			b.SetBytes(int64(bytesPerOp))
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*blk.Rows), "ns/row")
			b.ReportMetric(float64(bytesPerOp)/float64(blk.Rows), "wire-B/row")
		})
	}
}

// TestFetchFrameAllocs pins the framing tentpole's allocation budget:
// a 1,000-row frame-path fetch must stay at or under 16 allocs — the
// remaining steady-state allocations are the per-batch text blob and
// the header's column-name strings.
func TestFetchFrameAllocs(t *testing.T) {
	if raceEnabled {
		// sync.Pool deliberately bypasses itself at random under the
		// race detector, so pooled-path allocation counts are
		// nondeterministic there.
		t.Skip("allocation counts are not deterministic under -race")
	}
	res := benchResult()
	blk := driver.FromResult(res)
	fb := getFrameBuf()
	defer putFrameBuf(fb)
	var src bytes.Reader
	br := bufio.NewReader(&src)
	var sum int64
	var (
		cur   driver.Cursor
		chunk ColBlock
	)
	fs := &fetchStream{sink: fetchSink{block: func(blk *ColBlock) error {
		for _, v := range blk.Cols[0].Ints {
			sum += v
		}
		return nil
	}}}
	allocs := testing.AllocsPerRun(50, func() {
		if n, err := benchFrameRoundTrip(blk, 256, fb, &src, br, fs, &cur, &chunk); err != nil || n != int64(blk.Rows) {
			t.Fatalf("round trip: n=%d err=%v", n, err)
		}
	})
	if allocs > 16 {
		t.Fatalf("frame fetch round trip costs %.0f allocs/op, budget is 16", allocs)
	}
}
