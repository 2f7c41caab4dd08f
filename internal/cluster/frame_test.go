package cluster

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"encoding/hex"
	"errors"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net"
	"net/http"
	"net/http/httptest"
	"reflect"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"github.com/qamarket/qamarket/internal/driver"
	"github.com/qamarket/qamarket/internal/engine"
	"github.com/qamarket/qamarket/internal/metrics"
	"github.com/qamarket/qamarket/internal/sqldb"
)

// frameTestResult builds a deterministic mixed-kind result: every value
// kind, nulls sprinkled through every column, unicode and empty
// strings — the codec's worst case.
func frameTestResult(rows int) *sqldb.Result {
	res := &sqldb.Result{Columns: []string{"id", "score", "name", "ok"}}
	for i := 0; i < rows; i++ {
		row := sqldb.Row{
			sqldb.NewInt(int64(i * 3)),
			sqldb.NewFloat(float64(i) * 1.5),
			sqldb.NewText(fmt.Sprintf("näme-%d-✓", i)),
			sqldb.NewBool(i%3 == 0),
		}
		switch i % 5 {
		case 1:
			row[0] = sqldb.Null
		case 2:
			row[1] = sqldb.Null
		case 3:
			row[2] = sqldb.NewText("")
		case 4:
			row[3] = sqldb.Null
		}
		res.Rows = append(res.Rows, row)
	}
	return res
}

func TestFrameBatchRoundTrip(t *testing.T) {
	for _, rows := range []int{0, 1, 7, 100} {
		res := frameTestResult(rows)
		buf := appendFetchBatch(nil, 42, res, 0, rows)

		fm := mustReadOneFrame(t, buf)
		if fm.typ != frameTypeBatch || fm.id != 42 {
			t.Fatalf("frame typ=%d id=%d", fm.typ, fm.id)
		}
		var blk ColBlock
		if err := decodeFetchBatch(fm.payload, &blk); err != nil {
			t.Fatalf("decode %d rows: %v", rows, err)
		}
		if blk.Rows != rows {
			t.Fatalf("decoded %d rows, want %d", blk.Rows, rows)
		}
		got, err := blk.AppendRows(nil)
		if err != nil {
			t.Fatalf("AppendRows: %v", err)
		}
		if !reflect.DeepEqual([]sqldb.Row(res.Rows), got) && rows > 0 {
			t.Fatalf("round trip mismatch at %d rows:\n got %v\nwant %v", rows, got, res.Rows)
		}
		// The cell accessor must agree with the materialized rows.
		for i := 0; i < blk.Rows; i++ {
			for j := range blk.Cols {
				v, err := blk.Value(i, j)
				if err != nil {
					t.Fatalf("value(%d,%d): %v", i, j, err)
				}
				if v != res.Rows[i][j] {
					t.Fatalf("value(%d,%d) = %v, want %v", i, j, v, res.Rows[i][j])
				}
			}
		}
	}
}

func TestFrameHeaderEndRoundTrip(t *testing.T) {
	cols := []string{"a", "long_column_name", "ünïcode"}
	buf := appendFetchHeader(nil, 7, cols, 12.25, 512, 9001, 1<<40+3)
	fm := mustReadOneFrame(t, buf)
	var h frameHeader
	if err := decodeFetchHeader(fm.payload, &h); err != nil {
		t.Fatalf("decode header: %v", err)
	}
	if h.execMs != 12.25 || h.batchRows != 512 || h.totalRows != 9001 || h.seq != 1<<40+3 ||
		!reflect.DeepEqual(h.columns, cols) {
		t.Fatalf("header round trip: %+v", h)
	}

	buf = appendFetchEnd(nil, 7, 9001, 18, msgNodeStopping)
	fm = mustReadOneFrame(t, buf)
	end, err := decodeFetchEnd(fm.payload)
	if err != nil {
		t.Fatalf("decode end: %v", err)
	}
	if end.rows != 9001 || end.batches != 18 || end.errMsg != msgNodeStopping {
		t.Fatalf("end round trip: %+v", end)
	}
}

func mustReadOneFrame(t *testing.T, buf []byte) frameMsg {
	t.Helper()
	fm, err := readFrame(bufio.NewReader(strings.NewReader(string(buf))), maxFramePayload)
	if err != nil {
		t.Fatalf("readFrame: %v", err)
	}
	return fm
}

// TestFrameDecodeRejectsMalformed truncates and corrupts golden frames
// at every byte: the decoders must answer errFrameDecode (or an IO
// error for short reads), never panic and never accept.
func TestFrameDecodeRejectsMalformed(t *testing.T) {
	res := frameTestResult(9)
	batch := appendFetchBatch(nil, 1, res, 0, 9)
	header := appendFetchHeader(nil, 1, res.Columns, 1, 4, 9, 0)
	end := appendFetchEnd(nil, 1, 9, 3, "")

	scaled := appendFetchBatchCols(nil, 1, goldenScaledBlock())
	for name, golden := range map[string][]byte{"header": header, "batch": batch, "scaled batch": scaled, "end": end} {
		for cut := 0; cut < len(golden); cut++ {
			r := bufio.NewReader(strings.NewReader(string(golden[:cut])))
			if fm, err := readFrame(r, maxFramePayload); err == nil {
				// A truncated payload length can still form a complete
				// shorter frame; the payload decoder must then reject it.
				if decodeAny(fm) == nil {
					t.Fatalf("%s truncated at %d accepted", name, cut)
				}
			}
		}
		// Corrupt each payload byte and require the decoder to stay
		// panic-free (it may accept — some bytes are value bits).
		for i := frameHdrLen; i < len(golden); i++ {
			mut := append([]byte(nil), golden...)
			mut[i] ^= 0xFF
			if fm, err := readFrame(bufio.NewReader(strings.NewReader(string(mut))), maxFramePayload); err == nil {
				decodeAny(fm)
			}
		}
	}

	// A corrupt length prefix must be refused before allocation, as a
	// frame over the reader's bound.
	huge := append([]byte(nil), batch...)
	huge[12], huge[13], huge[14], huge[15] = 0xFF, 0xFF, 0xFF, 0x7F
	if _, err := readFrame(bufio.NewReader(strings.NewReader(string(huge))), maxFramePayload); !errors.Is(err, ErrTooLarge) {
		t.Fatalf("oversized payload length: %v", err)
	}
	// Read as a node's answer, the same frame is the node's fault:
	// malformed, which charges its breaker, not ErrTooLarge, which spares it.
	if _, err := readReply(bufio.NewReader(strings.NewReader(string(huge)))); !errors.Is(err, errFrameDecode) || errors.Is(err, ErrTooLarge) {
		t.Fatalf("oversized reply frame: %v", err)
	}
}

func decodeAny(fm frameMsg) error {
	switch fm.typ {
	case frameTypeHeader:
		var h frameHeader
		return decodeFetchHeader(fm.payload, &h)
	case frameTypeBatch:
		var blk ColBlock
		if err := decodeFetchBatch(fm.payload, &blk); err != nil {
			return err
		}
		_, err := blk.AppendRows(nil)
		return err
	case frameTypeEnd:
		_, err := decodeFetchEnd(fm.payload)
		return err
	}
	return errFrameDecode
}

// TestStreamedFetchBoundedMemory is the tentpole's memory guarantee: a
// 1M-row result crosses the wire without either side ever buffering
// more than O(batch). The server half streams from a materialized
// result (the engine's output), so the bound under test is the wire
// path: every frame payload and every decoded block must stay batch-
// sized, while all 1M rows arrive exactly once.
func TestStreamedFetchBoundedMemory(t *testing.T) {
	const totalRows = 1_000_000
	const batch = 2048
	res := &sqldb.Result{Columns: []string{"n", "label"}}
	res.Rows = make([]sqldb.Row, totalRows)
	for i := range res.Rows {
		res.Rows[i] = sqldb.Row{sqldb.NewInt(int64(i)), sqldb.NewText("r")}
	}

	srv := &Node{health: metrics.NewHealth()}
	cliConn, srvConn := net.Pipe()
	defer cliConn.Close()
	var wmu sync.Mutex
	errCh := make(chan error, 1)
	go func() {
		defer srvConn.Close()
		w := bufio.NewWriter(srvConn)
		errCh <- srv.streamFetch(srvConn, w, &wmu, 3, &frameStream{res: driver.FromResult(res), execMs: 1, batch: batch})
	}()

	var (
		delivered int64
		sum       int64
		maxRows   int
		// sentAtFirst is how many batches the server had written when
		// the first reached the client: frames wait in the connection's
		// buffer only until it fills, never for the end frame.
		sentAtFirst = -1.0
	)
	fs := &fetchStream{sink: fetchSink{
		block: func(blk *ColBlock) error {
			if sentAtFirst < 0 {
				sentAtFirst = srv.health.Snapshot()[metrics.FetchBatchesTotal]
			}
			if blk.Rows > maxRows {
				maxRows = blk.Rows
			}
			delivered += int64(blk.Rows)
			for _, v := range blk.Cols[0].Ints {
				sum += v
			}
			return nil
		},
	}}
	r := bufio.NewReader(cliConn)
	maxPayload := 0
	for {
		fm, err := readFrame(r, maxFramePayload)
		if err != nil {
			t.Fatalf("readFrame after %d rows: %v", delivered, err)
		}
		if len(fm.payload) > maxPayload {
			maxPayload = len(fm.payload)
		}
		done, err := fs.onFrame(fm.typ, fm.payload)
		fm.release()
		if err != nil {
			t.Fatalf("onFrame: %v", err)
		}
		if done {
			break
		}
	}
	if err := <-errCh; err != nil {
		t.Fatalf("streamFetch: %v", err)
	}
	if delivered != totalRows || fs.end.errMsg != "" {
		t.Fatalf("delivered %d rows (end=%+v), want %d", delivered, fs.end, totalRows)
	}
	if want := int64(totalRows) * (totalRows - 1) / 2; sum != want {
		t.Fatalf("row content sum %d, want %d", sum, want)
	}
	if maxRows > batch {
		t.Fatalf("a block carried %d rows, batch bound is %d", maxRows, batch)
	}
	// One batch is ~18 bytes/row here; anything near the full result
	// size would mean the stream buffered everything in one frame.
	if bound := batch * 64; maxPayload > bound {
		t.Fatalf("a frame carried %d bytes, per-batch bound is %d", maxPayload, bound)
	}
	if got := srv.health.Snapshot()[metrics.FetchBatchesTotal]; got != float64((totalRows+batch-1)/batch) {
		t.Fatalf("fetch_batches_total = %v", got)
	}
	if sentAtFirst > 2 {
		t.Fatalf("the first batch arrived after the server had written %v batches", sentAtFirst)
	}
}

// fetchFederation starts one fast node and returns a fetch-capable
// client plus a query and its locally-computed expected result.
func fetchFederation(t *testing.T, batchRows int, ccfg ClientConfig) (*Node, *Client, string, *sqldb.Result) {
	t.Helper()
	ds, nodes, addrs := startTestFederation(t, []float64{1}, func(_ int, cfg *NodeConfig) { cfg.fetchBatchRows = batchRows })
	rng := rand.New(rand.NewSource(23))
	templates, err := ds.GenerateTemplates(4, 1, rng)
	if err != nil {
		t.Fatal(err)
	}
	sql := templates[0].Instantiate(rng)
	want, err := ds.DBs[0].Query(sql)
	if err != nil {
		t.Fatal(err)
	}
	ccfg.Addrs, ccfg.network = addrs, memWall
	if ccfg.PeriodMs == 0 {
		ccfg.PeriodMs = 50
	}
	c, err := NewClient(ccfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(c.Close)
	return nodes[0], c, sql, want
}

// TestFetchFrameMatchesJSON: a fetch request, a JSON message that carries
// no negotiation field at all, is answered with a frame stream whose
// rows match the oracle's; and through the client the same query's
// Fetch returns those rows while Run and Stats keep working beside it.
// Frames are the only result lane, so the frame client against the
// frame server is the one row of the matrix this test used to be.
func TestFetchFrameMatchesJSON(t *testing.T) {
	node, c, sql, want := fetchFederation(t, 0, ClientConfig{})
	t.Run("raw-fetch-line", func(t *testing.T) { checkRawFetchFrames(t, node, sql, want) })
	t.Run("frame-client-frame-server", func(t *testing.T) {
		if out := c.Run(1, sql); out.Err != nil {
			t.Fatalf("Run: %v", out.Err)
		}
		res, out := c.Fetch(2, sql)
		if out.Err != nil {
			t.Fatalf("Fetch: %v", out.Err)
		}
		if !reflect.DeepEqual(res.Columns, want.Columns) || !reflect.DeepEqual(res.Rows, want.Rows) {
			t.Fatalf("fetched result differs:\n got %v %v\nwant %v %v", res.Columns, res.Rows, want.Columns, want.Rows)
		}
		if out.Rows != len(want.Rows) {
			t.Fatalf("outcome rows %d, want %d", out.Rows, len(want.Rows))
		}
		if _, err := c.Stats(node.ID()); err != nil {
			t.Fatalf("Stats: %v", err)
		}
	})
}

// checkRawFetchFrames writes a bare fetch request frame to node, after
// the hello, and checks the answer is a result frame stream carrying want.
func checkRawFetchFrames(t *testing.T, node *Node, sql string, want *sqldb.Result) {
	t.Helper()
	conn, r := dialGreeted(t, node.Addr(), MechGreedy)
	msg := &request{Op: "fetch", SQL: sql, QueryID: 1}
	if err := writeRequest(bufio.NewWriter(conn), 1, msg); err != nil {
		t.Fatal(err)
	}
	raw := &sqldb.Result{}
	fs := &fetchStream{sink: *accumulateSink(raw)}
	for !fs.done {
		fm, err := readFrame(r, maxFramePayload)
		if err != nil {
			t.Fatalf("readFrame: %v", err)
		}
		if fm.typ == frameTypeMsg {
			t.Fatalf("fetch %v answered with a message frame %q, want result frames", msg, fm.payload)
		}
		_, err = fs.onFrame(fm.typ, fm.payload)
		fm.release()
		if err != nil {
			t.Fatalf("onFrame: %v", err)
		}
	}
	if !reflect.DeepEqual(fs.header.columns, want.Columns) || !reflect.DeepEqual(raw.Rows, want.Rows) {
		t.Fatalf("raw fetch differs:\n got %v %v\nwant %v %v", fs.header.columns, raw.Rows, want.Columns, want.Rows)
	}
}

// TestFetchEachStreamsBatches drives the callback API end to end over
// a real federation and checks the rows arrive in order, once each.
func TestFetchEachStreamsBatches(t *testing.T) {
	_, c, sql, want := fetchFederation(t, 2, ClientConfig{})
	var got []sqldb.Row
	blocks := 0
	out := c.FetchEach(1, sql, func(blk *ColBlock) error {
		blocks++
		if blk.Rows > 2 {
			t.Fatalf("block carried %d rows, node batch size 2", blk.Rows)
		}
		var err error
		got, err = blk.AppendRows(got)
		return err
	})
	if out.Err != nil {
		t.Fatalf("FetchEach: %v", out.Err)
	}
	if !reflect.DeepEqual(got, []sqldb.Row(want.Rows)) {
		t.Fatalf("streamed rows differ:\n got %v\nwant %v", got, want.Rows)
	}
	if len(want.Rows) > 2 && blocks < 2 {
		t.Fatalf("%d rows arrived in %d blocks; batching not honored", len(want.Rows), blocks)
	}
	if out.Rows != len(want.Rows) {
		t.Fatalf("outcome rows %d, want %d", out.Rows, len(want.Rows))
	}
}

// TestFetchSinkAbortKeepsConnectionUsable: a sink that refuses the
// stream kills that query terminally (errStreamAbort) but must not
// poison the pooled connection or the breaker — the next fetch on the
// same client succeeds.
func TestFetchSinkAbortKeepsConnectionUsable(t *testing.T) {
	_, c, sql, want := fetchFederation(t, 1, ClientConfig{})
	boom := errors.New("sink full")
	out := c.FetchEach(1, sql, func(*ColBlock) error { return boom })
	if out.Err == nil || !strings.Contains(out.Err.Error(), "sink") {
		t.Fatalf("aborted fetch err = %v", out.Err)
	}
	if st := c.nodes()[0].breaker.snapshot(); st != breakerClosed {
		t.Fatalf("breaker %v after sink abort, want closed", st)
	}
	res, out := c.Fetch(2, sql)
	if out.Err != nil {
		t.Fatalf("fetch after abort: %v", out.Err)
	}
	if !reflect.DeepEqual(res.Rows, want.Rows) {
		t.Fatal("fetch after abort returned wrong rows")
	}
}

// TestPartialStreamResume is the exactly-once acceptance test for
// callback-mode delivery: the server severs the connection after the
// first streamed batch; the client must resume on the same node via
// the dedup window's replay, skipping the delivered prefix, so the
// caller sees every row exactly once.
func TestPartialStreamResume(t *testing.T) {
	node, c, sql, want := fetchFederation(t, 1, ClientConfig{
		execRetries: 3, Timeout: 2 * time.Second,
	})
	if len(want.Rows) < 2 {
		t.Skipf("need a multi-row result, got %d", len(want.Rows))
	}
	node.frameSever.Store(1) // cut the stream after one batch

	var got []sqldb.Row
	out := c.FetchEach(1, sql, func(blk *ColBlock) error {
		var err error
		got, err = blk.AppendRows(got)
		return err
	})
	if out.Err != nil {
		t.Fatalf("FetchEach with severed stream: %v", out.Err)
	}
	if !reflect.DeepEqual(got, []sqldb.Row(want.Rows)) {
		t.Fatalf("resume delivered wrong rows:\n got %v\nwant %v", got, want.Rows)
	}
	if out.Retries == 0 {
		t.Fatal("resume should have charged a retry")
	}
	if hits := node.health.Snapshot()[metrics.DedupHitsTotal]; hits == 0 {
		t.Fatal("resume should have replayed from the dedup window")
	}
}

// TestOversizedRequestTypedRefusal is the satellite regression test: a
// request over maxRequestBytes gets a typed too_large refusal before
// the server hangs up, the client classifies it as terminal, and the
// breaker never trips (the node is healthy; retrying cannot shrink the
// request).
func TestOversizedRequestTypedRefusal(t *testing.T) {
	_, _, addr, _ := protectionQuery(t, nil)

	t.Run("raw-wire", func(t *testing.T) {
		conn, err := memWall.dial(addr, time.Second)
		if err != nil {
			t.Fatal(err)
		}
		defer conn.Close()
		conn.SetDeadline(time.Now().Add(5 * time.Second))
		// Handcraft a >1MiB request that a current client's own pre-write
		// check would refuse to send. The node answers from the header and
		// hangs up with most of the payload unread, so the write may fail.
		big := appendRequest(nil, 1, &request{Op: "negotiate",
			SQL: "SELECT 1 FROM t WHERE x = '" + strings.Repeat("a", maxRequestBytes) + "'"})
		go conn.Write(big)
		var rep reply
		if _, err := recvMsg(bufio.NewReader(conn), &rep); err != nil {
			t.Fatalf("expected a typed refusal before close, got %v", err)
		}
		if rep.Code != CodeTooLarge {
			t.Fatalf("refusal = %+v, want code %q", rep, CodeTooLarge)
		}
	})

	t.Run("client-classification", func(t *testing.T) {
		c, err := NewClient(ClientConfig{network: memWall, Addrs: []string{addr}, PeriodMs: 50})
		if err != nil {
			t.Fatal(err)
		}
		defer c.Close()
		bigSQL := "SELECT 1 FROM t WHERE x = '" + strings.Repeat("a", maxRequestBytes) + "'"
		ns := c.nodes()[0]
		_, kind, err := c.executeOn(ns, 1, bigSQL, nil, time.Time{})
		if kind != attemptFatal || !errors.Is(err, ErrTooLarge) {
			t.Fatalf("oversized execute: kind=%v err=%v", kind, err)
		}
		if st := ns.breaker.snapshot(); st != breakerClosed {
			t.Fatalf("breaker %v after too-large refusal, want closed", st)
		}
		out := c.Run(2, bigSQL)
		if !errors.Is(out.Err, ErrTooLarge) {
			t.Fatalf("Run with oversized query: %v", out.Err)
		}
		if out.Retries != 0 {
			t.Fatalf("too-large failed after %d retries, want fast fail", out.Retries)
		}
	})
}

// TestFrameMetricsExposition: a fetch moves the stream counters, and
// the exposition renders them.
func TestFrameMetricsExposition(t *testing.T) {
	node, c, sql, _ := fetchFederation(t, 0, ClientConfig{})
	if _, out := c.Fetch(1, sql); out.Err != nil {
		t.Fatalf("Fetch: %v", out.Err)
	}
	srv := httptest.NewServer(node.MetricsHandler())
	defer srv.Close()
	resp, err := http.Get(srv.URL)
	if err != nil {
		t.Fatal(err)
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	rec := string(body)
	for _, want := range []string{
		"qa_fetch_batches_total{",
		"qa_fetch_bytes_total{",
	} {
		if !strings.Contains(rec, want) {
			t.Errorf("exposition missing %q", want)
		}
	}
}

// appendFetchBatch appends one batch frame carrying res.Rows[lo:hi]: the
// row-input convenience over appendFetchBatchCols for the frame tests.
func appendFetchBatch(buf []byte, id uint64, res *sqldb.Result, lo, hi int) []byte {
	var blk ColBlock
	blk.FillFromRows(res.Columns, res.Rows[lo:hi])
	return appendFetchBatchCols(buf, id, &blk)
}

// frameLimitNode starts a node over a one-column table t of rows rows
// and a client that gives up after two retries.
func frameLimitNode(t *testing.T, rows int, ccfg ClientConfig) (*Node, *Client) {
	t.Helper()
	db := sqldb.Open()
	if _, _, err := db.Exec("CREATE TABLE t (a INT)"); err != nil {
		t.Fatal(err)
	}
	data := make([]sqldb.Row, rows)
	for i := range data {
		data[i] = sqldb.Row{sqldb.NewInt(int64(i))}
	}
	if err := db.AppendTableRows("t", data); err != nil {
		t.Fatal(err)
	}
	n, err := StartNode("127.0.0.1:0", NodeConfig{network: memWall, Driver: engine.FromDB(db), MsPerCostUnit: 1e-6, PeriodMs: 50})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { n.CloseNow() })
	ccfg.Addrs, ccfg.PeriodMs, ccfg.MaxRetries, ccfg.network = []string{n.Addr()}, 50, 2, memWall
	c, err := NewClient(ccfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(c.Close)
	return n, c
}

// TestLongColumnNameFetchFailsOnce: an unaliased expression is named by
// its text, and a name longer than the header frame's 16-bit length
// field cannot be framed. The node answers such a fetch with an error
// before it packs or streams anything, so the query fails once with a
// readable error, the breaker stays closed and the node keeps serving.
// (It used to send a header the client could not decode; the client's
// retransmit then made the node read back its own dedup record and
// panic.)
func TestLongColumnNameFetchFailsOnce(t *testing.T) {
	n, c := frameLimitNode(t, 1, ClientConfig{Timeout: 5 * time.Second})
	_, out := c.Fetch(1, "SELECT '"+strings.Repeat("a", 65_537)+"' FROM t")
	if out.Err == nil || !strings.Contains(out.Err.Error(), "alias it") {
		t.Fatalf("err = %v, want the node's readable refusal", out.Err)
	}
	if out.Retries != 0 {
		t.Fatalf("failed after %d retries, want at once", out.Retries)
	}
	if st := c.nodes()[0].breaker.snapshot(); st != breakerClosed {
		t.Fatalf("breaker %v, want closed", st)
	}
	if res, out := c.Fetch(2, "SELECT a FROM t"); out.Err != nil || len(res.Rows) != 1 {
		t.Fatalf("the node stopped serving: %v", out.Err)
	}
	if st, err := c.Stats(n.ID()); err != nil || st.Executed != 2 {
		t.Fatalf("executed %v (err %v), want each query once", st, err)
	}
}

// TestOversizedBatchIsCut: 4,096 rows of 17,000-byte texts make a
// default batch of 69.7 MB, past the 64 MiB a reader accepts. The writer
// cuts the batch where its frame would pass the limit, so the result
// arrives intact in one attempt. (It used to write the batch whole: the
// client dropped the connection, and the query re-ran every round until
// the retries ran out.)
func TestOversizedBatchIsCut(t *testing.T) {
	const rows, width = 4096, 17_000
	n, c := frameLimitNode(t, rows, ClientConfig{Timeout: 10 * time.Second})
	var got int
	out := c.FetchEach(1, "SELECT a, '"+strings.Repeat("x", width)+"' AS s FROM t", func(blk *ColBlock) error {
		for i, v := range blk.Cols[0].Ints {
			if v != int64(got+i) || len(blk.Cols[1].Texts[i]) != width {
				return fmt.Errorf("row %d: a=%d, %d-byte text", got+i, v, len(blk.Cols[1].Texts[i]))
			}
		}
		got += blk.Rows
		return nil
	})
	if out.Err != nil || out.Retries != 0 {
		t.Fatalf("err %v after %d retries, want the result in one attempt", out.Err, out.Retries)
	}
	if got != rows {
		t.Fatalf("delivered %d rows, want %d", got, rows)
	}
	if frames := n.health.Snapshot()[metrics.FetchBatchesTotal]; frames < 2 {
		t.Fatalf("%v batch frames, want the batch cut", frames)
	}
}

// TestOversizedRowEndsStream: a row that alone passes maxFramePayload
// cannot be framed at all. The stream ends with an error in its end
// frame and no batch frame is written. The row's 65 columns share one
// 1 MiB text, so the test holds the text once.
func TestOversizedRowEndsStream(t *testing.T) {
	text := strings.Repeat("x", 1<<20)
	row := make(sqldb.Row, 65)
	cols := make([]string, len(row))
	for j := range row {
		row[j], cols[j] = sqldb.NewText(text), fmt.Sprintf("c%d", j)
	}
	var res ColBlock
	res.FillFromRows(cols, []sqldb.Row{row})
	srv := &Node{health: metrics.NewHealth()}
	conn := &countingConn{}
	var wmu sync.Mutex
	if err := srv.streamFetch(conn, bufio.NewWriter(conn), &wmu, 1, &frameStream{res: &res, batch: 4096}); err != nil {
		t.Fatal(err)
	}
	r := bufio.NewReader(&conn.buf)
	var types []byte
	var end frameEnd
	for {
		fm, err := readFrame(r, maxFramePayload)
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatalf("readFrame: %v", err)
		}
		types = append(types, fm.typ)
		if fm.typ == frameTypeEnd {
			if end, err = decodeFetchEnd(fm.payload); err != nil {
				t.Fatal(err)
			}
		}
		fm.release()
	}
	if !reflect.DeepEqual(types, []byte{frameTypeHeader, frameTypeEnd}) || !strings.Contains(end.errMsg, "frame limit") {
		t.Fatalf("frames %v, end %+v: want a header and an end frame carrying the error", types, end)
	}
}

// goldenBatchBlock is a mixed-kind block with the values a codec most
// easily gets wrong: NULLs in every column, empty texts, nine bools (a
// partial last byte), the int64 extremes and other negative ints, NaN,
// −0 and ±Inf, and a column that mixes all four kinds.
func goldenBatchBlock() *ColBlock {
	in, fl, tx, bo, nul := sqldb.NewInt, sqldb.NewFloat, sqldb.NewText, sqldb.NewBool, sqldb.Null
	rows := []sqldb.Row{
		{in(-1), fl(math.NaN()), tx(""), bo(true), in(5)},
		{nul, fl(math.Copysign(0, -1)), tx("a"), bo(false), fl(-0.5)},
		{in(math.MinInt64), fl(1.5), nul, bo(true), tx("mixed")},
		{in(7), nul, tx("näme-✓"), bo(true), bo(true)},
		{in(-42), fl(math.Inf(1)), tx("xyz"), nul, nul},
		{in(0), fl(-2.25), tx(""), bo(false), in(-6)},
		{nul, nul, nul, bo(true), fl(math.Inf(-1))},
		{in(3), fl(0), tx("q"), bo(false), tx("")},
		{in(-9), fl(1e300), tx("✓"), bo(true), bo(false)},
		{in(math.MaxInt64), fl(-1), tx(""), bo(true), nul},
		{in(2), fl(3), tx("z"), nul, in(0)},
	}
	var blk ColBlock
	blk.FillFromRows([]string{"i", "f", "s", "b", "m"}, rows)
	return &blk
}

// goldenUniformBlock is a block whose every column has one kind, each
// value kind written once for the column: ints from a negative base in
// 2-byte deltas, floats with NaN and −0, texts (an empty one among
// them) with 1-byte lengths, five bools (a partial last byte); and
// NULLs throughout, which keep their per-row kind bytes.
func goldenUniformBlock() *ColBlock {
	in, fl, tx, bo, nul := sqldb.NewInt, sqldb.NewFloat, sqldb.NewText, sqldb.NewBool, sqldb.Null
	rows := []sqldb.Row{
		{in(-300), fl(1.5), tx("näme-✓"), bo(true), nul},
		{in(-1), fl(math.NaN()), tx(""), bo(false), nul},
		{in(200), fl(math.Copysign(0, -1)), tx("a"), bo(true), nul},
		{in(-300), fl(-2.25), tx("xyz"), bo(true), nul},
		{in(7), fl(1e300), tx("q"), bo(false), nul},
	}
	var blk ColBlock
	blk.FillFromRows([]string{"i", "f", "s", "b", "n"}, rows)
	return &blk
}

// goldenScaledBlock is a block whose floats travel scaled: quarters from
// a negative base in 1-byte deltas (k = 2), whole numbers spanning 2-byte
// deltas (k = 0, a zero among them), and halves between NULLs and an
// int, whose kind bytes travel per row.
func goldenScaledBlock() *ColBlock {
	in, fl, nul := sqldb.NewInt, sqldb.NewFloat, sqldb.Null
	rows := []sqldb.Row{
		{fl(-1.25), fl(300), fl(0.5)},
		{fl(0.75), fl(0), nul},
		{fl(-1.25), fl(-2), in(4)},
		{fl(2), fl(1000), fl(-3.5)},
	}
	var blk ColBlock
	blk.FillFromRows([]string{"q", "w", "h"}, rows)
	return &blk
}

// goldenBatchHex, goldenUniformHex and goldenScaledHex are the batch
// frames (request id 7) of goldenBatchBlock, goldenUniformBlock and
// goldenScaledBlock. The second byte is the frame version,
// protocolVersion (7, which left the batch payload as it was); the
// payload layout is version 6's, which writes a
// column of one value kind without per-row kind bytes, ints as deltas
// from their minimum, floats as a width byte and then either raw words
// (width 0: the first two blocks' floats hold NaN, −0, ±Inf or 1e300) or
// the least scale k and deltas from the scaled minimum, and text lengths
// at the width the longest needs.
const (
	goldenBatchHex = "fa0702000700000000000000860100000b0000000500000000696e696969696e6969696909000000" +
		"000000000000008008ffffffffffffff7f00000000000000000700000000000080d6ffffffffffff" +
		"7f00000000000000800300000000000080f7ffffffffffff7fffffffffffffffff02000000000000" +
		"8000000000000000000000000000000000006666666e66666e666666660000000009000000000100" +
		"00000000f87f0000000000000080000000000000f83f000000000000f07f00000000000002c00000" +
		"0000000000009c7500883ce4377e000000000000f0bf000000000000084000000000000000000000" +
		"00000073736e7373736e737373730000000000000000090000001200000001000109030001030001" +
		"616ec3a46d652de29c9378797a71e29c937a0000000000626262626e62626262626e000000000000" +
		"0000000000000000000009000000ad0100696673626e696673626e6903000000faffffffffffffff" +
		"010b00060200000000000000000000e0bf000000000000f0ff02000000050000000105006d697865" +
		"640200000001"
	goldenUniformHex = "fa0702000700000000000000c700000005000000050000006905000000d4feffffffffffff020000" +
		"2b01f401000033010000000000000000000000000000000066000000000500000000000000000000" +
		"f83f010000000000f87f000000000000008000000000000002c09c7500883ce4377e000000000000" +
		"000000000000730000000000000000050000000e0000000109000103016ec3a46d652de29c936178" +
		"797a71000000006200000000000000000000000000000000050000000d006e6e6e6e6e0000000000" +
		"000000000000000000000000000000"
	goldenScaledHex = "fa0702000700000000000000840000000400000003000000660000000004000000010200fbffffff" +
		"ffffffff0008000d000000000000000000000000660000000004000000020000feffffffffffffff" +
		"2e0102000000ea0300000000000000000000000000666e6966010000000400000000000000010002" +
		"000000010100f9ffffffffffffff0800000000000000000000000000"
)

// TestFrameBatchGoldenBytes pins the batch layout itself, not only the
// round trip: the encoder must write the committed bytes, planBatch
// must size them exactly, and they must decode back to a block that
// re-encodes to them.
func TestFrameBatchGoldenBytes(t *testing.T) {
	for _, tc := range []struct {
		name string
		blk  *ColBlock
		hex  string
	}{
		{"mixed", goldenBatchBlock(), goldenBatchHex},
		{"uniform", goldenUniformBlock(), goldenUniformHex},
		{"scaled", goldenScaledBlock(), goldenScaledHex},
	} {
		t.Run(tc.name, func(t *testing.T) {
			want, err := hex.DecodeString(tc.hex)
			if err != nil {
				t.Fatal(err)
			}
			if got := appendFetchBatchCols(nil, 7, tc.blk); !bytes.Equal(got, want) {
				t.Fatalf("batch frame differs from the golden bytes:\n got %x\nwant %x", got, want)
			}
			if _, size := planBatch(nil, tc.blk); size != len(want)-frameHdrLen {
				t.Fatalf("planBatch sizes %d bytes, the frame carries %d", size, len(want)-frameHdrLen)
			}
			var back ColBlock
			if err := decodeFetchBatch(want[frameHdrLen:], &back); err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(back.Cols[len(back.Cols)-1].Kinds, tc.blk.Cols[len(tc.blk.Cols)-1].Kinds) {
				t.Fatalf("last column decodes to kinds %q, want %q", back.Cols[len(back.Cols)-1].Kinds, tc.blk.Cols[len(tc.blk.Cols)-1].Kinds)
			}
			back.Columns = tc.blk.Columns
			if got := appendFetchBatchCols(nil, 7, &back); !bytes.Equal(got, want) {
				t.Fatalf("decoded golden batch re-encodes to %x", got)
			}
		})
	}
}

// TestFrameDecodeRejectsNonCanonical: the encoder zeroes a bool column's
// padding bits and always marks a header accepted, so a payload that
// sets either decodes to a block or header some other payload already
// encodes. The decoders refuse it, which makes decode → encode the
// identity FuzzFrameDecode checks.
func TestFrameDecodeRejectsNonCanonical(t *testing.T) {
	golden, err := hex.DecodeString(goldenBatchHex)
	if err != nil {
		t.Fatal(err)
	}
	// Column b's nine bools end in 0x01: bit 0 is the ninth bool, bits
	// 1-7 pad. Column m's two bools end the payload in one byte.
	for _, at := range []int{bytes.Index(golden, []byte{0xad, 0x01}) + 1, len(golden) - 1} {
		for bit := 7; bit >= 2; bit-- {
			mut := append([]byte(nil), golden...)
			mut[at] |= 1 << bit
			var blk ColBlock
			if err := decodeFetchBatch(mut[frameHdrLen:], &blk); !errors.Is(err, errFrameDecode) {
				t.Fatalf("padding bit %d of byte %d set: err = %v", bit, at, err)
			}
		}
	}
	header := appendFetchHeader(nil, 1, []string{"a"}, 1, 4, 9, 0)
	for _, flag := range []byte{0, 2, 0xff} {
		mut := append([]byte(nil), header...)
		mut[frameHdrLen] = flag
		var h frameHeader
		if err := decodeFetchHeader(mut[frameHdrLen:], &h); !errors.Is(err, errFrameDecode) {
			t.Fatalf("header flag %d: err = %v", flag, err)
		}
	}
}

// TestFetchStreamRejectsColumnCountMismatch: a batch must carry exactly
// the header's columns. A 2-column header followed by a 1-column batch
// used to come out of Fetch as columns [a b] with one-cell rows, and a
// zero-column batch — 8 payload bytes — as however many rows it
// claimed.
func TestFetchStreamRejectsColumnCountMismatch(t *testing.T) {
	res := &sqldb.Result{Columns: []string{"a", "b"}}
	oneCol := appendFetchBatch(nil, 1, &sqldb.Result{Columns: []string{"a"}, Rows: []sqldb.Row{{sqldb.NewInt(1)}}}, 0, 1)
	noCols := appendFetchBatchCols(nil, 1, &ColBlock{Rows: 1_000_000})
	for name, batch := range map[string][]byte{"one column": oneCol, "no columns": noCols} {
		t.Run(name, func(t *testing.T) {
			res.Rows = nil
			fs := &fetchStream{sink: *accumulateSink(res)}
			header := appendFetchHeader(nil, 1, res.Columns, 1, 4096, 1, 0)
			if _, err := fs.onFrame(frameTypeHeader, header[frameHdrLen:]); err != nil {
				t.Fatal(err)
			}
			_, err := fs.onFrame(frameTypeBatch, batch[frameHdrLen:])
			if !errors.Is(err, errFrameDecode) || fs.recv != 0 || fs.delivered != 0 || len(res.Rows) != 0 {
				t.Fatalf("err = %v after %d received and %d delivered rows (%d accumulated), want errFrameDecode and none",
					err, fs.recv, fs.delivered, len(res.Rows))
			}
		})
	}
}

// TestFetchStreamRefusesRowsItsBytesLack: every column of a batch costs
// at least a bit a row, so a one-column batch of a few bytes claiming
// 2^26−1 rows — a run of NULLs written once for the column, or bools
// with their bits missing — is refused before a row is sized, let alone
// delivered to the sink.
func TestFetchStreamRefusesRowsItsBytesLack(t *testing.T) {
	le := binary.LittleEndian
	counts := make([]byte, 20) // ints, floats, texts, blob, bools: all 0
	bools := append(make([]byte, 16), le.AppendUint32(nil, maxFramePayload-1)...)
	for name, col := range map[string][]byte{
		"NULL mode": append([]byte{driver.KindByteNull}, counts...),
		"bool mode": append(append([]byte{driver.KindByteBool}, bools...), 0xff),
	} {
		t.Run(name, func(t *testing.T) {
			res := &sqldb.Result{Columns: []string{"a"}}
			fs := &fetchStream{sink: *accumulateSink(res)}
			header := appendFetchHeader(nil, 1, res.Columns, 1, 4096, maxFramePayload-1, 0)
			if _, err := fs.onFrame(frameTypeHeader, header[frameHdrLen:]); err != nil {
				t.Fatal(err)
			}
			batch := append(le.AppendUint32(le.AppendUint32(nil, maxFramePayload-1), 1), col...)
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			_, err := fs.onFrame(frameTypeBatch, batch)
			runtime.ReadMemStats(&after)
			if !errors.Is(err, errFrameDecode) || fs.recv != 0 || fs.delivered != 0 || len(res.Rows) != 0 {
				t.Fatalf("err = %v after %d received and %d delivered rows (%d accumulated), want errFrameDecode and none",
					err, fs.recv, fs.delivered, len(res.Rows))
			}
			if grew := after.TotalAlloc - before.TotalAlloc; grew > 64<<10 {
				t.Fatalf("refusing a %d-byte batch allocated %d bytes", len(batch), grew)
			}
		})
	}
}

// TestFetchStreamChecksHeaderCount: the header's row count sizes the
// Distributor's scratch tables, so a clean end frame must agree with it
// — a header that announces more (or fewer) rows than the stream
// carries is malformed, and a batch that passes the count is refused
// before it reaches the sink — while an end frame carrying an error may
// stop short of it. A header announcing 2^40 rows sizes the fragment's
// table to the clamp, not to the claim.
func TestFetchStreamChecksHeaderCount(t *testing.T) {
	res := frameTestResult(3)
	batch := appendFetchBatch(nil, 1, res, 0, 3)
	for _, tc := range []struct {
		claim  int
		endErr string
		ok     bool
	}{
		{claim: 3, ok: true},
		{claim: 1 << 40},
		{claim: 4},
		{claim: 2},
		{claim: 1 << 40, endErr: msgNodeStopping, ok: true},
	} {
		scratch := engine.Open()
		fs := &fetchStream{sink: *fragmentSink(scratch, "frag")}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		header := appendFetchHeader(nil, 1, res.Columns, 1, 4096, tc.claim, 0)
		if _, err := fs.onFrame(frameTypeHeader, header[frameHdrLen:]); err != nil {
			t.Fatalf("claim %d: header: %v", tc.claim, err)
		}
		_, err := fs.onFrame(frameTypeBatch, batch[frameHdrLen:])
		if over := tc.claim < 3; over {
			if !errors.Is(err, errFrameDecode) || fs.delivered != 0 {
				t.Errorf("claim %d: a 3-row batch: err = %v after %d delivered rows, want errFrameDecode and none", tc.claim, err, fs.delivered)
			}
			continue
		}
		if err != nil {
			t.Fatalf("claim %d: batch: %v", tc.claim, err)
		}
		runtime.ReadMemStats(&after)
		// Four columns reserved to 2^16 rows come to a few MB.
		if grew := after.TotalAlloc - before.TotalAlloc; grew > 32<<20 {
			t.Errorf("claim %d: header and one batch allocated %d bytes", tc.claim, grew)
		}
		end := appendFetchEnd(nil, 1, 3, 1, tc.endErr)
		_, err = fs.onFrame(frameTypeEnd, end[frameHdrLen:])
		if tc.ok != (err == nil) || (err != nil && !errors.Is(err, errFrameDecode)) {
			t.Errorf("claim %d, end error %q: err = %v, want ok=%t or errFrameDecode", tc.claim, tc.endErr, err, tc.ok)
		}
	}
}
