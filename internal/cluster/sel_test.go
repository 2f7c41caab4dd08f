package cluster

import (
	"bytes"
	"fmt"
	"reflect"
	"testing"
	"time"

	"github.com/qamarket/qamarket/internal/driver"
	"github.com/qamarket/qamarket/internal/engine"
	"github.com/qamarket/qamarket/internal/market"
	"github.com/qamarket/qamarket/internal/metrics"
	"github.com/qamarket/qamarket/internal/sqldb"
)

// A filtered scan of NULL-free columns leaves the vector engine as a
// selection over storage (driver.Block.Sel), not a copy. These tests
// hold the cluster's side of that: whatever reads the block — the frame
// writer, the dedup window's replay and its packed form, the mock
// driver's truncation — delivers the rows a dense block would have.

const selTestRows = 600

// selTestDB is a NULL-free table of every kind: b is the row number
// halved, so "b < x" keeps the first 2x rows.
func selTestDB(t *testing.T) *sqldb.DB {
	t.Helper()
	db := sqldb.Open()
	if _, _, err := db.Exec("CREATE TABLE big (a INT, b FLOAT, c TEXT, d BOOL)"); err != nil {
		t.Fatal(err)
	}
	rows := make([]sqldb.Row, selTestRows)
	for i := range rows {
		rows[i] = sqldb.Row{
			sqldb.NewInt(int64(i * 7 % 100)),
			sqldb.NewFloat(float64(i) / 2),
			sqldb.NewText(fmt.Sprintf("w%03d", i%97)),
			sqldb.NewBool(i%3 == 0),
		}
	}
	if err := db.AppendTableRows("big", rows); err != nil {
		t.Fatal(err)
	}
	return db
}

const (
	selTestWide   = "SELECT a, b, c, d FROM big WHERE b >= 10 AND b < 150" // 280 rows: kept by the dedup window as produced
	selTestNarrow = "SELECT a, b, c, d FROM big WHERE b >= 10 AND b < 20"  // 20 rows: kept packed
)

// selFederation starts one node over drv (nil = the vector engine over
// selTestDB) and a client, and returns the row engine as the oracle.
func selFederation(t *testing.T, drv driver.Driver, batchRows int, ccfg ClientConfig) (*Node, *Client, *sqldb.DB) {
	t.Helper()
	db := selTestDB(t)
	if drv == nil {
		drv = engine.FromDB(db)
	}
	n, err := StartNode("127.0.0.1:0", NodeConfig{
		network: memWall,
		Driver:  drv, MsPerCostUnit: 0.02, PeriodMs: 50, Market: market.DefaultConfig(1),
		fetchBatchRows: batchRows,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { n.Close() })
	ccfg.Addrs = []string{n.Addr()}
	ccfg.PeriodMs, ccfg.network = 50, memWall
	c, err := NewClient(ccfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(c.Close)
	return n, c, db
}

func selBlock(t *testing.T, sql string) *ColBlock {
	t.Helper()
	blk, err := engine.FromDB(selTestDB(t)).Query(sql)
	if err != nil {
		t.Fatal(err)
	}
	if blk.Sel == nil {
		t.Fatalf("the engine gathered %q: these tests need a block that carries its selection", sql)
	}
	return blk
}

// streamBytes is streamFetch's encoding of a result, frame after frame.
func streamBytes(res *ColBlock, batchRows int) []byte {
	buf := appendFetchHeader(nil, 9, res.Columns, 1.5, batchRows, res.Rows, 0)
	var cur driver.Cursor
	var batch ColBlock
	for res.NextBatch(&cur, batchRows, &batch) {
		buf = appendFetchBatchCols(buf, 9, &batch)
	}
	return buf
}

func TestSelBlockFramesMatchDense(t *testing.T) {
	blk := selBlock(t, selTestWide)
	for _, batchRows := range []int{1, 7, 64, 4096} {
		if !bytes.Equal(streamBytes(blk, batchRows), streamBytes(blk.Dense(), batchRows)) {
			t.Fatalf("frames of the selection differ from the frames of its dense copy at %d rows a batch", batchRows)
		}
	}
	// The dedup window packs a small result as its frames.
	small := selBlock(t, selTestNarrow)
	viaSel := packRecord(executeReply{Accepted: true}, small)
	viaDense := packRecord(executeReply{Accepted: true}, small.Dense())
	if viaSel.big != nil || !bytes.Equal(viaSel.packed, viaDense.packed) {
		t.Fatal("packed form of the selection differs from its dense copy's")
	}
	if _, got := viaSel.outcome(); !reflect.DeepEqual(mustAppendRows(t, got), mustAppendRows(t, small.Dense())) {
		t.Fatal("unpacked rows differ")
	}
}

func mustAppendRows(t *testing.T, b *ColBlock) []sqldb.Row {
	t.Helper()
	rows, err := b.AppendRows(nil)
	if err != nil {
		t.Fatal(err)
	}
	return rows
}

// A filtered fetch, and its retransmit answered from the dedup window:
// the same rows as the row engine's, both times. Frames are the only
// encoding a fetch is answered in.
func TestSelFetchSameRowsOnEveryEncoding(t *testing.T) {
	t.Run("frames", func(t *testing.T) {
		node, c, oracle := selFederation(t, nil, 50, ClientConfig{})
		for id, sql := range []string{selTestWide, selTestNarrow} {
			want, err := oracle.Query(sql)
			if err != nil {
				t.Fatal(err)
			}
			// Twice: the second is the dedup window's copy, re-streamed.
			// A client that held the first stream whole would have released
			// it; this one drops the release, as a client does that lost the
			// first reply and sends the fetch again.
			for attempt := 0; attempt < 2; attempt++ {
				c.lookup(node.Addr()).transport.rel.take(node.boot)
				res, out := c.Fetch(int64(id+1), sql)
				if out.Err != nil {
					t.Fatalf("Fetch: %v", out.Err)
				}
				if !reflect.DeepEqual(res.Columns, want.Columns) || !reflect.DeepEqual(res.Rows, want.Rows) {
					t.Fatalf("attempt %d of %q: %d rows differ from the oracle's %d", attempt, sql, len(res.Rows), len(want.Rows))
				}
			}
		}
		if hits := node.health.Snapshot()[metrics.DedupHitsTotal]; hits != 2 {
			t.Fatalf("dedup hits = %v, want each query's second fetch answered from the window", hits)
		}
	})
}

// A filtered fetch cut mid-stream resumes from the dedup
// window's replay of the retained selection; every row arrives once.
func TestSelFetchSeveredStreamResumes(t *testing.T) {
	node, c, oracle := selFederation(t, nil, 32, ClientConfig{
		execRetries: 3, Timeout: 2 * time.Second,
	})
	want, err := oracle.Query(selTestWide)
	if err != nil {
		t.Fatal(err)
	}
	node.frameSever.Store(2) // two batches out, then the connection drops
	var got []sqldb.Row
	out := c.FetchEach(1, selTestWide, func(blk *ColBlock) error {
		var err error
		got, err = blk.AppendRows(got)
		return err
	})
	if out.Err != nil {
		t.Fatalf("FetchEach across the severed stream: %v", out.Err)
	}
	if !reflect.DeepEqual(got, want.Rows) {
		t.Fatalf("delivered %d rows, want the oracle's %d exactly once each", len(got), len(want.Rows))
	}
	snap := node.health.Snapshot()
	if out.Retries == 0 || snap[metrics.DedupHitsTotal] == 0 {
		t.Fatalf("retries %d, dedup hits %v: the resume should have been a replay", out.Retries, snap[metrics.DedupHitsTotal])
	}
	if st, err := c.Stats(node.ID()); err != nil || st.Executed != 1 {
		t.Fatalf("executed %d times (err %v), want once", st.Executed, err)
	}
}

// The mock driver's partial-batch fault truncates whatever block the
// wrapped driver produced, a selection included.
func TestSelBlockMockTruncates(t *testing.T) {
	mock := driver.NewMock(engine.FromDB(selTestDB(t)), driver.MockConfig{TruncateRows: 5})
	st, err := mock.Prepare(selTestWide)
	if err != nil {
		t.Fatal(err)
	}
	blk, err := st.Execute()
	if err != nil {
		t.Fatal(err)
	}
	if blk.Sel == nil || blk.Rows != 5 {
		t.Fatalf("truncated block: Sel %v, Rows %d", blk.Sel != nil, blk.Rows)
	}
	_, c, oracle := selFederation(t, mock, 0, ClientConfig{})
	want, err := oracle.Query(selTestWide)
	if err != nil {
		t.Fatal(err)
	}
	res, out := c.Fetch(1, selTestWide)
	if out.Err != nil {
		t.Fatalf("Fetch: %v", out.Err)
	}
	if !reflect.DeepEqual(res.Rows, want.Rows[:5]) {
		t.Fatalf("fetched %d rows through the truncating mock, want the first 5", len(res.Rows))
	}
}
