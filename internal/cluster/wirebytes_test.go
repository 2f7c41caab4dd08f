package cluster

import (
	"bufio"
	"bytes"
	"encoding/hex"
	"fmt"
	"math/rand"
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

// TestFetchStreamBytesPerQuery pins what the benchmark's dist-join and
// bulk-fetch queries put on the fetch stream, at a tenth of their
// scale: the nodes' fetch_bytes_total and fetch_batches_total, per
// query, to the byte. big(a INT, b FLOAT, c TEXT, d BOOL), b being 0.5
// times a permutation of the row numbers, lives on two engine nodes
// and dim(k INT, name TEXT) on two others, so no node answers the star
// join and the Distributor fetches one fragment of each. Every number
// repeats exactly, query after query; a change to the batch layout
// moves them, and names its new numbers with the reason.
func TestFetchStreamBytesPerQuery(t *testing.T) {
	const bigRows = 20_000
	rng := rand.New(rand.NewSource(1))
	bigDB, dimDB := sqldb.Open(), sqldb.Open()
	for db, ddl := range map[*sqldb.DB]string{
		bigDB: "CREATE TABLE big (a INT, b FLOAT, c TEXT, d BOOL)",
		dimDB: "CREATE TABLE dim (k INT, name TEXT)",
	} {
		if _, _, err := db.Exec(ddl); err != nil {
			t.Fatal(err)
		}
	}
	big := make([]sqldb.Row, bigRows)
	for i, p := range rng.Perm(bigRows) {
		big[i] = sqldb.Row{
			sqldb.NewInt(int64(rng.Intn(100))),
			sqldb.NewFloat(0.5 * float64(p)),
			sqldb.NewText(fmt.Sprintf("t%03d", rng.Intn(997))),
			sqldb.NewBool(rng.Intn(2) == 0),
		}
	}
	dim := make([]sqldb.Row, 100)
	for i := range dim {
		dim[i] = sqldb.Row{sqldb.NewInt(int64(i)), sqldb.NewText(fmt.Sprintf("d%02d", i))}
	}
	if err := bigDB.AppendTableRows("big", big); err != nil {
		t.Fatal(err)
	}
	if err := dimDB.AppendTableRows("dim", dim); err != nil {
		t.Fatal(err)
	}
	client, nodes := startOver(t, ClientConfig{Mechanism: MechGreedy, PeriodMs: 50, Timeout: 5 * time.Second}, false, 0,
		engine.FromDB(bigDB), engine.FromDB(bigDB), engine.FromDB(dimDB), engine.FromDB(dimDB))
	counted := func() (bytes, batches int64) {
		for _, n := range nodes {
			bytes += n.health.Counter(metrics.FetchBytesTotal)
			batches += n.health.Counter(metrics.FetchBatchesTotal)
		}
		return bytes, batches
	}

	d := NewDistributor(client)
	for _, tc := range []struct {
		name    string
		run     func(id int64) error
		bytes   int64 // fetch-stream bytes per query
		batches int64 // batch frames per query
	}{
		// An 8,000-row fragment of (a, b) in two batches, and dim's 100
		// rows in one. b travels as 2-byte deltas of 2b.
		{"dist-join", func(id int64) error {
			out, err := d.Run(id, "SELECT dim.name, COUNT(*), SUM(big.b) FROM big JOIN dim ON big.a = dim.k WHERE big.b >= 1000 AND big.b < 5000 GROUP BY dim.name")
			if err != nil {
				return err
			}
			var n, sum float64
			for _, row := range out.Result.Rows {
				c, _ := row[1].AsFloat()
				s, _ := row[2].AsFloat()
				n, sum = n+c, sum+s
			}
			// b runs over 0.5·[2000, 10000).
			if n != 8000 || sum != 23_998_000 || out.FragmentRows != 8100 {
				return fmt.Errorf("%v joined rows summing to %v from %d fragment rows, want 8000, 23998000 and 8100", n, sum, out.FragmentRows)
			}
			return nil
		}, 24_921, 3},
		// bulk-fetch's (a, b) projection: 20,000 rows in five batches.
		{"bulk a,b", func(id int64) error {
			rows := 0
			out := client.FetchEach(id, "SELECT a, b FROM big", func(blk *ColBlock) error {
				rows += blk.Rows
				return nil
			})
			if out.Err == nil && rows != bigRows {
				return fmt.Errorf("%d rows, want %d", rows, bigRows)
			}
			return out.Err
		}, 60_515, 5},
	} {
		t.Run(tc.name, func(t *testing.T) {
			for q := int64(1); q <= 3; q++ {
				bytes0, batches0 := counted()
				if err := tc.run(q); err != nil {
					t.Fatal(err)
				}
				bytes1, batches1 := counted()
				bytes, batches := bytes1-bytes0, batches1-batches0
				t.Logf("query %d: %d fetch-stream bytes, %d batch frames", q, bytes, batches)
				if bytes != tc.bytes || batches != tc.batches {
					t.Fatalf("query %d: %d fetch-stream bytes in %d batch frames, pinned %d in %d",
						q, bytes, batches, tc.bytes, tc.batches)
				}
			}
		})
	}
}

// smallFetchSQL is one of small-fetch's star-join templates.
const smallFetchSQL = "SELECT v07.grp, COUNT(*) AS n, SUM(v07.v) AS total FROM v07 JOIN v08 ON v07.k = v08.k WHERE v07.v > 33 GROUP BY v07.grp ORDER BY v07.grp"

// smallFetchRequest is a fetch shaped as small-fetch sends them: a
// query id in the tens of thousands, a few milliseconds of deadline and
// the release of the outcome its previous fetch from the node carried.
func smallFetchRequest() *request {
	return &request{Op: "fetch", SQL: smallFetchSQL, QueryID: 40_123, DeadlineMs: 5, Release: []uint64{311}}
}

// TestFetchRequestFrameBytes pins a small-fetch-shaped fetch's request
// frame to the byte: the 16-byte header (version 7, type 5, a 148-byte
// payload), then the op byte 3, query id 40,123 and deadline 5 as zigzag
// varints, the SQL's varint length and its 136 bytes, one release as a
// count and a varint, the untraced byte and the empty batch's count. It
// is 164 bytes where the same request as a JSON message frame took 229.
func TestFetchRequestFrameBytes(t *testing.T) {
	want := "fa070500010000000000000094000000" + // header, request id 1
		"03" + "f6f204" + "0a" + "8801" + hex.EncodeToString([]byte(smallFetchSQL)) + // op, query id, deadline, sql
		"01" + "b702" + // one release: 311
		"00" + "00" // untraced, no batch
	if got := hex.EncodeToString(appendRequest(nil, 1, smallFetchRequest())); got != want {
		t.Fatalf("request frame differs:\n got %s\nwant %s", got, want)
	}
}

// TestDecodeRequestAllocs holds decoding a small fetch's request frame
// to its SQL text and its release list: two allocations, with no slack,
// since AllocsPerRun's count on one goroutine is exact.
func TestDecodeRequestAllocs(t *testing.T) {
	frame := appendRequest(nil, 1, smallFetchRequest())
	var req request
	allocs := testing.AllocsPerRun(100, func() {
		req = request{}
		if err := decodeRequest(frame[frameHdrLen:], &req); err != nil {
			t.Fatal(err)
		}
	})
	if !reflect.DeepEqual(&req, smallFetchRequest()) {
		t.Fatalf("decoded %+v, want %+v", req, *smallFetchRequest())
	}
	if allocs != 2 {
		t.Fatalf("decoding a fetch request costs %.0f allocs, budget is 2", allocs)
	}
}

// prepareSite is a driver that records which goroutine prepares each
// statement, and holds a statement naming table slow until gate closes.
type prepareSite struct {
	driver.Driver
	gate chan struct{}
	mu   sync.Mutex
	ids  map[string]bool
}

func (d *prepareSite) Prepare(sql string) (driver.Statement, error) {
	buf := make([]byte, 64)
	id, _, _ := strings.Cut(strings.TrimPrefix(string(buf[:runtime.Stack(buf, false)]), "goroutine "), " ")
	d.mu.Lock()
	d.ids[id] = true
	d.mu.Unlock()
	if strings.Contains(sql, "slow") {
		<-d.gate
	}
	return d.Driver.Prepare(sql)
}

// startPrepareSite starts a node on memNet whose driver is a
// prepareSite over t(a, b) and slow(a), three rows each.
func startPrepareSite(t *testing.T) (*Node, *prepareSite) {
	t.Helper()
	db := sqldb.Open()
	for _, q := range []string{"CREATE TABLE t (a INT, b INT)", "INSERT INTO t VALUES (1, 2), (3, 4), (5, 6)",
		"CREATE TABLE slow (a INT)", "INSERT INTO slow VALUES (1), (2), (3)"} {
		if _, _, err := db.Exec(q); err != nil {
			t.Fatal(err)
		}
	}
	site := &prepareSite{Driver: engine.FromDB(db), gate: make(chan struct{}), ids: make(map[string]bool)}
	node, err := StartNode("127.0.0.1:0", NodeConfig{network: memWall, Driver: site, MsPerCostUnit: 1e-9, PeriodMs: 600_000})
	if err != nil {
		t.Fatal(err)
	}
	return node, site
}

// TestSequentialFetchesReuseWarmHandlers: a connection's handlers stay
// warm, so 100 fetches sent one after another on one connection are
// planned on at most two goroutines — a second starts only when a
// request is read before the handler that answered the last one is back
// waiting — and once the connection closes the node's goroutines are
// back to what they were before it opened.
func TestSequentialFetchesReuseWarmHandlers(t *testing.T) {
	node, site := startPrepareSite(t)
	defer node.CloseNow()
	base := runtime.NumGoroutine()

	conn, r := dialGreeted(t, node.Addr(), MechGreedy)
	w := bufio.NewWriter(conn)
	for q := int64(1); q <= 100; q++ {
		if err := writeRequest(w, uint64(q), &request{Op: "fetch", SQL: "SELECT a, b FROM t", QueryID: q}); err != nil {
			t.Fatal(err)
		}
		if rows := readReplyRows(t, r, fmt.Sprintf("fetch %d", q)); rows != 3 {
			t.Fatalf("fetch %d: %d rows, want 3", q, rows)
		}
	}
	site.mu.Lock()
	planners := len(site.ids)
	site.mu.Unlock()
	if planners > 2 {
		t.Fatalf("100 sequential fetches were planned on %d goroutines, want at most 2", planners)
	}

	conn.Close()
	for deadline := time.Now().Add(5 * time.Second); runtime.NumGoroutine() > base; {
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines after the connection closed, %d before it opened", runtime.NumGoroutine(), base)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestStatsNotHeldBehindSlowFetch: a request that finds every handler
// busy starts another, so it is never queued behind a whole execution.
// After one warm-up fetch leaves an idle handler, a fetch that blocks in
// planning and a stats request arrive in one write; the stats reply
// comes back while the fetch is still held, and the fetch completes once
// released.
func TestStatsNotHeldBehindSlowFetch(t *testing.T) {
	node, site := startPrepareSite(t)
	defer node.CloseNow()
	release := sync.OnceFunc(func() { close(site.gate) })
	defer release()

	conn, r := dialGreeted(t, node.Addr(), MechGreedy)
	w := bufio.NewWriter(conn)
	if err := writeRequest(w, 2, &request{Op: "fetch", SQL: "SELECT a, b FROM t", QueryID: 1}); err != nil {
		t.Fatal(err)
	}
	if rows := readReplyRows(t, r, "warm-up fetch"); rows != 3 {
		t.Fatalf("warm-up fetch: %d rows, want 3", rows)
	}

	var both bytes.Buffer
	bw := bufio.NewWriter(&both)
	if err := writeRequest(bw, 3, &request{Op: "fetch", SQL: "SELECT a FROM slow", QueryID: 2}); err != nil {
		t.Fatal(err)
	}
	if err := writeMsg(bw, 4, maxRequestBytes, &request{Op: "stats"}); err != nil {
		t.Fatal(err)
	}
	if err := bw.Flush(); err != nil {
		t.Fatal(err)
	}
	if _, err := conn.Write(both.Bytes()); err != nil {
		t.Fatal(err)
	}
	conn.SetReadDeadline(time.Now().Add(2 * time.Second))
	fm, err := readFrame(r, maxFramePayload)
	if err != nil {
		t.Fatalf("stats behind a held fetch: %v", err)
	}
	var rep reply
	if err := decodeMsg(fm, &rep); err != nil || fm.id != 4 || rep.Stats == nil {
		t.Fatalf("first reply: id %d, %+v (err %v), want the stats reply under id 4", fm.id, rep, err)
	}

	release()
	conn.SetReadDeadline(time.Now().Add(5 * time.Second))
	if rows := readReplyRows(t, r, "released fetch"); rows != 3 {
		t.Fatalf("released fetch: %d rows, want 3", rows)
	}
}
