package cluster

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"math/rand"
	"net"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"github.com/qamarket/qamarket/internal/catalog"
	"github.com/qamarket/qamarket/internal/engine"
	"github.com/qamarket/qamarket/internal/metrics"
	"github.com/qamarket/qamarket/internal/sqldb"
)

func TestClassKey(t *testing.T) {
	cases := []struct{ sql, want string }{
		{"SELECT v FROM t03 WHERE v > 17", "SELECT v FROM t03 WHERE v > #"},
		{"SELECT v FROM t03 WHERE v > 42", "SELECT v FROM t03 WHERE v > #"},
		{"SELECT a FROM v12 WHERE b < 3.25 GROUP BY a", "SELECT a FROM v12 WHERE b < # GROUP BY a"},
		{"SELECT * FROM t00", "SELECT * FROM t00"},
		{"7 + x2", "# + x2"},
	}
	for _, tc := range cases {
		if got := classKey(tc.sql); got != tc.want {
			t.Errorf("classKey(%q) = %q, want %q", tc.sql, got, tc.want)
		}
	}
	if classKey("SELECT v FROM t03 WHERE v > 17") != classKey("SELECT v FROM t03 WHERE v > 990") {
		t.Error("same template, different literals landed in different classes")
	}
	if classKey("SELECT v FROM t03") == classKey("SELECT v FROM t04") {
		t.Error("different relations landed in the same class")
	}
	if classKey("SELECT x FROM té2") == classKey("SELECT x FROM té3") {
		t.Error("digits after a non-ASCII letter were read as a literal: two relations share a class")
	}
}

// TestRelationsIn pins the relations the shard probe reads from a query
// (sqldb.Relations): a name it misreads trims the CFP to the wrong nodes.
func TestRelationsIn(t *testing.T) {
	cases := []struct {
		sql  string
		want []string
	}{
		{"SELECT a FROM t03", []string{"t03"}},
		{"SELECT a FROM t03 WHERE a > 1", []string{"t03"}},
		{"SELECT a FROM t1, t2 WHERE t1.a = t2.a", []string{"t1", "t2"}},
		{"SELECT a FROM t1 x, t2 y WHERE x.a = y.a", []string{"t1", "t2"}},
		{"SELECT a FROM t1 JOIN t2 ON t1.a = t2.a", []string{"t1", "t2"}},
		{"SELECT a FROM t1 GROUP BY a", []string{"t1"}},
		{"SELECT a FROM t1 AS x, t2 AS y WHERE x.a = y.a", []string{"t1", "t2"}},
		{"SELECT a FROM t1 x JOIN t2 y ON x.a = y.a", []string{"t1", "t2"}},
		// Names are read as the lexer folds them, whatever the letters.
		{"SELECT x FROM T", []string{"t"}},
		{"SELECT x FROM té", []string{"té"}},
		{"select x from T03 where x > 1", []string{"t03"}},
		{"SELECT x FROM t1 -- join dim", []string{"t1"}},
		{"SELECT x FROM t1 WHERE s = 'a, FROM b'", []string{"t1"}},
		// Shapes the extractor must refuse to guess about.
		{"SELECT a FROM (SELECT a FROM t1) s", nil},
		{"SELECT 1", nil},
		{"SELECT x FROM 'unterminated", nil},
	}
	for _, tc := range cases {
		if got := sqldb.Relations(tc.sql); !slices.Equal(got, tc.want) {
			t.Errorf("Relations(%q) = %v, want %v", tc.sql, got, tc.want)
		}
	}
}

// scriptedServer is a minimal wire-speaking fake node for interop
// tests: it records every request line verbatim and answers from a
// tiny script. With batchAware false it behaves like a pre-batching
// build — it ignores the request's batch field entirely and answers
// the envelope's own query only, which is exactly what encoding/json
// does to unknown fields on an old struct.
type scriptedServer struct {
	t  *testing.T
	ln net.Listener

	mu    sync.Mutex
	lines [][]byte

	batchAware bool
	execCode   string // typed code execute replies carry ("" accepts)
}

func startScriptedServer(t *testing.T, batchAware bool, execCode string) *scriptedServer {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	s := &scriptedServer{t: t, ln: ln, batchAware: batchAware, execCode: execCode}
	t.Cleanup(func() { ln.Close() })
	go func() {
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			go s.serve(conn)
		}
	}()
	return s
}

func (s *scriptedServer) serve(conn net.Conn) {
	defer conn.Close()
	r := bufio.NewReader(conn)
	w := bufio.NewWriter(conn)
	for {
		line, err := r.ReadBytes('\n')
		if err != nil {
			return
		}
		s.mu.Lock()
		s.lines = append(s.lines, bytes.TrimRight(line, "\n"))
		s.mu.Unlock()
		var req request
		if err := json.Unmarshal(line, &req); err != nil {
			return
		}
		rep := reply{ID: req.ID, NodeID: "scripted"}
		switch req.Op {
		case "negotiate":
			rep.Negotiate = &negotiateReply{Feasible: true, Offer: true, EstimateMs: 5}
			if s.batchAware {
				for _, bq := range req.Batch {
					rep.Batch = append(rep.Batch, batchProposal{
						QueryID:   bq.QueryID,
						Negotiate: &negotiateReply{Feasible: true, Offer: true, EstimateMs: 5},
					})
				}
			}
		case "execute":
			if s.execCode != "" {
				rep.Code = s.execCode
				rep.Err = "scripted refusal"
			} else {
				rep.Execute = &executeReply{Accepted: true, Rows: 1, ExecMs: 1}
			}
		default:
			rep.Err = "scripted server: unknown op " + req.Op
		}
		if err := writeMsg(w, &rep); err != nil {
			return
		}
	}
}

// requestLines snapshots the recorded raw request lines.
func (s *scriptedServer) requestLines() [][]byte {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([][]byte, len(s.lines))
	copy(out, s.lines)
	return out
}

// TestSingleQueryWindowIsByteIdentical proves the new client's batched
// path degrades to the legacy wire format with nothing to coalesce: the
// request a window-of-one sends is byte-for-byte the request an
// unbatched client sends for the same query.
func TestSingleQueryWindowIsByteIdentical(t *testing.T) {
	sql := "SELECT a FROM t1 WHERE a > 7"
	srv := startScriptedServer(t, false, "")
	legacy, err := NewClient(ClientConfig{
		Addrs: []string{srv.ln.Addr().String()}, Mechanism: MechGreedy, freshDial: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := legacy.negotiateAll(sql, nil, time.Time{}); err != nil {
		t.Fatalf("legacy negotiate: %v", err)
	}
	batched, err := NewClient(ClientConfig{
		Addrs: []string{srv.ln.Addr().String()}, Mechanism: MechGreedy, freshDial: true,
		BatchWindow: time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := batched.batches.negotiate(1, sql, classKey(sql), nil, time.Time{}); err != nil {
		t.Fatalf("batched negotiate: %v", err)
	}
	lines := srv.requestLines()
	if len(lines) != 2 {
		t.Fatalf("recorded %d request lines, want 2", len(lines))
	}
	if !bytes.Equal(lines[0], lines[1]) {
		t.Errorf("single-query window not byte-identical to legacy negotiate:\n legacy: %s\nbatched: %s", lines[0], lines[1])
	}
}

// TestNewClientOldServerDegrades pins what a coalesced window gets from
// a node that ignores the batch field: the lead's proposal stands, the
// rider fails at that node with a short batch reply, and the next
// window still offers the node a batch.
func TestNewClientOldServerDegrades(t *testing.T) {
	srv := startScriptedServer(t, false, "")
	c, err := NewClient(ClientConfig{
		Addrs: []string{srv.ln.Addr().String()}, Mechanism: MechGreedy, freshDial: true,
		BatchWindow: 200 * time.Millisecond, BatchLimit: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	window := func(sqlA, sqlB string) {
		t.Helper()
		var wg sync.WaitGroup
		results := make([]proposals, 2)
		errs := make([]error, 2)
		for i, sql := range []string{sqlA, sqlB} {
			wg.Add(1)
			go func(i int, sql string) {
				defer wg.Done()
				results[i], _, errs[i] = c.batches.negotiate(int64(i), sql, classKey(sql), nil, time.Time{})
			}(i, sql)
			time.Sleep(20 * time.Millisecond) // second call rides the first's window
		}
		wg.Wait()
		if errs[0] != nil || len(results[0].ranked) != 1 {
			t.Fatalf("lead got %d candidates (err %v), want its own proposal", len(results[0].ranked), errs[0])
		}
		if errs[1] == nil || !strings.Contains(errs[1].Error(), "short batch reply") {
			t.Fatalf("rider err = %v, want a short batch reply", errs[1])
		}
	}
	for i, sqls := range [][2]string{
		{"SELECT a FROM t1 WHERE a > 1", "SELECT a FROM t1 WHERE a > 2"},
		{"SELECT a FROM t1 WHERE a > 3", "SELECT a FROM t1 WHERE a > 4"},
	} {
		window(sqls[0], sqls[1])
		lines := srv.requestLines()
		if len(lines) != i+1 {
			t.Fatalf("after window %d the node saw %d requests, want one batched CFP per window: %s", i, len(lines), lines)
		}
		if !bytes.Contains(lines[i], []byte(`"batch"`)) {
			t.Errorf("window %d sent no batch field: %s", i, lines[i])
		}
	}
}

// TestBatchedWindowOverloadIsTyped: a node at MaxInflight refuses a
// batched CFP at its admission gate, before any query is solved, so the
// reply carries no batch array. Every rider must still see the typed
// overload refusal — a live node shedding work, renegotiated on the
// period cadence — and the node's breaker must stay closed.
func TestBatchedWindowOverloadIsTyped(t *testing.T) {
	n := startSingleNode(t, func(cfg *NodeConfig) { cfg.MaxInflight = 1 })
	n.working.Add(1) // the only slot is held
	c, err := NewClient(ClientConfig{
		Addrs: []string{n.Addr()}, Mechanism: MechGreedy, freshDial: true,
		BatchWindow: 200 * time.Millisecond, BatchLimit: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	var wg sync.WaitGroup
	results := make([]proposals, 2)
	errs := make([]error, 2)
	for i, sql := range []string{"SELECT a FROM t WHERE a > 1", "SELECT a FROM t WHERE a > 2"} {
		wg.Add(1)
		go func(i int, sql string) {
			defer wg.Done()
			results[i], _, errs[i] = c.batches.negotiate(int64(i), sql, classKey(sql), nil, time.Time{})
		}(i, sql)
		time.Sleep(20 * time.Millisecond) // second call rides the first's window
	}
	wg.Wait()
	if got := c.RPCCounts()["negotiate"]; got != 1 {
		t.Fatalf("window of 2 cost %d negotiate RPCs, want one batched CFP", got)
	}
	for i, name := range []string{"lead", "rider"} {
		if errs[i] != nil {
			t.Fatalf("%s: %v, want a reachable round", name, errs[i])
		}
		if re := results[i].refusalError(); !errors.Is(re, ErrOverloaded) {
			t.Errorf("%s refusal = %v, want %v", name, re, ErrOverloaded)
		}
	}
	if st := c.nodes()[0].breaker.snapshot(); st != breakerClosed {
		t.Errorf("breaker %v after a typed overload, want closed", st)
	}
}

// rawExchange sends one raw request line to addr and returns the raw
// reply line — the old-client view of a new server.
func rawExchange(t *testing.T, addr string, req any) []byte {
	t.Helper()
	conn, err := net.DialTimeout("tcp", addr, time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	conn.SetDeadline(time.Now().Add(5 * time.Second))
	w := bufio.NewWriter(conn)
	if err := writeMsg(w, req); err != nil {
		t.Fatal(err)
	}
	line, err := bufio.NewReader(conn).ReadBytes('\n')
	if err != nil {
		t.Fatal(err)
	}
	return bytes.TrimRight(line, "\n")
}

// TestOldClientNewServerUnchanged proves a batch-aware server answers
// an unbatched negotiate with the legacy reply shape: no batch key
// leaks into the envelope an old client will decode.
func TestOldClientNewServerUnchanged(t *testing.T) {
	ds, _, addrs := startTestFederation(t, []float64{1}, nil)
	rng := rand.New(rand.NewSource(11))
	templates, err := ds.GenerateTemplates(1, 1, rng)
	if err != nil {
		t.Fatal(err)
	}
	sql := templates[0].Instantiate(rng)
	raw := rawExchange(t, addrs[0], &request{Op: "negotiate", SQL: sql, Mechanism: MechGreedy})
	if bytes.Contains(raw, []byte(`"batch"`)) {
		t.Fatalf("unbatched negotiate reply leaked a batch field: %s", raw)
	}
	var rep reply
	if err := json.Unmarshal(raw, &rep); err != nil {
		t.Fatal(err)
	}
	if rep.Negotiate == nil || !rep.Negotiate.Feasible {
		t.Fatalf("unbatched negotiate broken on batch-aware server: %s", raw)
	}
	// And the same server solves a batched CFP positionally.
	var rep2 reply
	raw2 := rawExchange(t, addrs[0], &request{
		Op: "negotiate", SQL: sql, Mechanism: MechGreedy,
		Batch: []batchQuery{{QueryID: 7, SQL: sql}, {QueryID: 8, SQL: "SELECT nope FROM missing"}},
	})
	if err := json.Unmarshal(raw2, &rep2); err != nil {
		t.Fatal(err)
	}
	if len(rep2.Batch) != 2 {
		t.Fatalf("batched negotiate answered %d of 2 batch queries: %s", len(rep2.Batch), raw2)
	}
	if rep2.Batch[0].Negotiate == nil || !rep2.Batch[0].Negotiate.Feasible {
		t.Errorf("batch query 0 got no proposal: %s", raw2)
	}
	if rep2.Batch[1].Negotiate != nil && rep2.Batch[1].Negotiate.Feasible {
		t.Errorf("infeasible batch query reported feasible: %s", raw2)
	}
}

// seedBidClient builds a cache-enabled client against addr (no RPCs
// are made) and returns it with the seed node's state.
func seedBidClient(t *testing.T, addr string, ttl time.Duration) (*Client, *nodeState) {
	t.Helper()
	c, err := NewClient(ClientConfig{Addrs: []string{addr}, BidCacheTTL: ttl})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(c.Close)
	ns := c.lookup(addr)
	if ns == nil {
		t.Fatal("seed node missing from view")
	}
	return c, ns
}

func TestBidCacheEpochBumpInvalidates(t *testing.T) {
	c, ns := seedBidClient(t, "127.0.0.1:9", time.Minute)
	ns.mu.Lock()
	ns.epoch = 3
	ns.mu.Unlock()
	class := classKey("SELECT a FROM t1 WHERE a > 5")
	c.bids.put(class, []*nodeState{ns})
	if got := c.cachedLadder(class); len(got) != 1 || got[0] != ns {
		t.Fatalf("fresh entry not returned: %v", got)
	}
	// The node gossips a new market period: the stamp no longer holds.
	ns.mu.Lock()
	ns.epoch = 4
	ns.mu.Unlock()
	if got := c.cachedLadder(class); got != nil {
		t.Fatalf("epoch bump did not invalidate: %v", got)
	}
	if n := c.health.Counter("bid_cache_invalidations_total"); n != 1 {
		t.Errorf("invalidations = %d, want 1", n)
	}
	// The stale entry is gone, not just hidden: the next lookup is a
	// plain miss.
	c.bids.mu.Lock()
	left := len(c.bids.entries)
	c.bids.mu.Unlock()
	if left != 0 {
		t.Errorf("%d stale entries survived invalidation", left)
	}
}

func TestBidCacheMemberEvictionInvalidates(t *testing.T) {
	c, ns := seedBidClient(t, "127.0.0.1:9", time.Minute)
	class := classKey("SELECT a FROM t1")
	c.bids.put(class, []*nodeState{ns})
	c.viewMu.Lock()
	c.pruneLocked(ns.nodeID(), 1)
	c.viewMu.Unlock()
	if got := c.cachedLadder(class); got != nil {
		t.Fatalf("member eviction did not invalidate: %v", got)
	}
	if n := c.health.Counter("bid_cache_invalidations_total"); n != 1 {
		t.Errorf("invalidations = %d, want 1", n)
	}
}

func TestBidCacheTTLExpires(t *testing.T) {
	c, ns := seedBidClient(t, "127.0.0.1:9", time.Millisecond)
	class := classKey("SELECT a FROM t1")
	c.bids.put(class, []*nodeState{ns})
	time.Sleep(5 * time.Millisecond)
	if got := c.cachedLadder(class); got != nil {
		t.Fatalf("TTL did not expire the entry: %v", got)
	}
}

// TestBidCacheTypedRefusalsInvalidate drives a cached admission into
// each typed refusal and checks the cached ladder dies: the refusal
// says the market moved under the cache.
func TestBidCacheTypedRefusalsInvalidate(t *testing.T) {
	for _, code := range []string{CodeOverload, CodeExpired, CodeDraining} {
		t.Run(code, func(t *testing.T) {
			srv := startScriptedServer(t, true, code)
			c, err := NewClient(ClientConfig{
				Addrs: []string{srv.ln.Addr().String()}, Mechanism: MechGreedy,
				freshDial: true, BidCacheTTL: time.Minute,
				PeriodMs: 1, MaxRetries: 1,
			})
			if err != nil {
				t.Fatal(err)
			}
			defer c.Close()
			sql := "SELECT a FROM t1 WHERE a > 5"
			class := classKey(sql)
			// Seed the cache the way a successful round would.
			c.bids.put(class, []*nodeState{c.lookup(srv.ln.Addr().String())})
			out := c.Run(1, sql)
			if out.Err == nil {
				t.Fatal("refused query reported success")
			}
			c.bids.mu.Lock()
			_, alive := c.bids.entries[class]
			c.bids.mu.Unlock()
			if alive {
				t.Fatalf("cached ladder survived a typed %s refusal", code)
			}
			if n := c.health.Counter("bid_cache_invalidations_total"); n == 0 {
				t.Error("no invalidation counted")
			}
		})
	}
}

// TestBidCacheHitSkipsNegotiate is the amortization property end to
// end: with a valid cached ladder, a follow-up query of the class costs
// zero negotiate RPCs.
func TestBidCacheHitSkipsNegotiate(t *testing.T) {
	srv := startScriptedServer(t, true, "")
	c, err := NewClient(ClientConfig{
		Addrs: []string{srv.ln.Addr().String()}, Mechanism: MechGreedy,
		freshDial: true, BidCacheTTL: time.Minute,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if out := c.Run(1, "SELECT a FROM t1 WHERE a > 5"); out.Err != nil {
		t.Fatalf("first run: %v", out.Err)
	}
	afterFirst := c.RPCCounts()["negotiate"]
	if afterFirst == 0 {
		t.Fatal("first run negotiated nothing")
	}
	// Same class, different literal: must ride the cached ladder.
	if out := c.Run(2, "SELECT a FROM t1 WHERE a > 99"); out.Err != nil {
		t.Fatalf("second run: %v", out.Err)
	}
	if got := c.RPCCounts()["negotiate"]; got != afterFirst {
		t.Errorf("cached admission still negotiated: %d -> %d RPCs", afterFirst, got)
	}
	if hits := c.health.Counter("bid_cache_hits_total"); hits != 1 {
		t.Errorf("cache hits = %d, want 1", hits)
	}
	if execs := c.RPCCounts()["execute"]; execs != 2 {
		t.Errorf("execute RPCs = %d, want 2", execs)
	}
}

// TestBatchedWindowSharesOneRPC proves the tentpole arithmetic on the
// wire: a window of three same-class queries against a batch-aware
// node costs one negotiate RPC, not three.
func TestBatchedWindowSharesOneRPC(t *testing.T) {
	srv := startScriptedServer(t, true, "")
	c, err := NewClient(ClientConfig{
		Addrs: []string{srv.ln.Addr().String()}, Mechanism: MechGreedy, freshDial: true,
		BatchWindow: 300 * time.Millisecond, BatchLimit: 3,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	var wg sync.WaitGroup
	errs := make([]error, 3)
	for i := 0; i < 3; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			sql := "SELECT a FROM t1 WHERE a > 5"
			_, _, errs[i] = c.batches.negotiate(int64(i), sql, classKey(sql), nil, time.Time{})
		}(i)
		time.Sleep(20 * time.Millisecond)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("query %d: %v", i, err)
		}
	}
	if got := c.RPCCounts()["negotiate"]; got != 1 {
		t.Errorf("window of 3 cost %d negotiate RPCs, want 1", got)
	}
	if n := c.health.Counter("batch_coalesced_total"); n != 2 {
		t.Errorf("coalesced = %d, want 2", n)
	}
	lines := srv.requestLines()
	if len(lines) != 1 || !bytes.Contains(lines[0], []byte(`"batch"`)) {
		t.Errorf("expected one batched request, got %d: %s", len(lines), lines)
	}
}

// TestShardProbeReadsNonASCIIRelations: the probe reads a query's
// relations with the SQL lexer, so a relation named with a non-ASCII
// letter is looked up whole. Node A holds té and node B holds t; the
// call for proposals for "FROM té" must reach A, not stop at B because
// the name was cut at its first non-ASCII byte.
func TestShardProbeReadsNonASCIIRelations(t *testing.T) {
	client, _ := startOver(t, ClientConfig{Mechanism: MechGreedy, PeriodMs: 20, MaxRetries: 3, Timeout: 5 * time.Second}, true,
		engine.FromDB(loadScripts(t, "CREATE TABLE té (x INT); INSERT INTO té VALUES (1), (2)")),
		engine.FromDB(loadScripts(t, "CREATE TABLE t (x INT); INSERT INTO t VALUES (3)")))
	res, out := client.Fetch(1, "SELECT x FROM té")
	if out.Err != nil {
		t.Fatalf("Fetch(SELECT x FROM té): %v", out.Err)
	}
	if len(res.Rows) != 2 {
		t.Fatalf("Fetch(SELECT x FROM té) = %d rows, want té's 2", len(res.Rows))
	}
}

// TestShardProbeSkipsInfeasibleNodes checks the probe set honors
// gossiped relation filters: a member whose filter excludes the query's
// relation is skipped, members without filters are kept, and an
// all-excluded round falls back to the full view.
func TestShardProbeSkipsInfeasibleNodes(t *testing.T) {
	c, err := NewClient(ClientConfig{Addrs: []string{"127.0.0.1:7", "127.0.0.1:8", "127.0.0.1:9"}})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	setFilter := func(addr string, rels []string) {
		ns := c.lookup(addr)
		ns.mu.Lock()
		ns.filter = catalog.NewRelationFilter(rels)
		ns.mu.Unlock()
	}
	setFilter("127.0.0.1:7", []string{"t1", "t2"})
	setFilter("127.0.0.1:8", []string{"v9"})
	// 127.0.0.1:9 advertises no filter: always probed.
	got := c.probeSet("SELECT a FROM t1 WHERE a > 5")
	if len(got) != 2 {
		t.Fatalf("probe set size = %d, want 2 (holder + unfiltered)", len(got))
	}
	for _, ns := range got {
		if ns.address() == "127.0.0.1:8" {
			t.Error("provably infeasible node probed")
		}
	}
	if n := c.health.Counter("shard_skips_total"); n != 1 {
		t.Errorf("shard skips = %d, want 1", n)
	}
	// Unparseable shape: full fan-out.
	if got := c.probeSet("SELECT a FROM (SELECT a FROM t1) s"); len(got) != 3 {
		t.Errorf("unparseable query probe set = %d, want full view of 3", len(got))
	}
	// All excluded: fall back to the full view rather than starving.
	setFilter("127.0.0.1:9", []string{"t9"})
	if got := c.probeSet("SELECT a FROM zz"); len(got) != 3 {
		t.Errorf("all-excluded probe set = %d, want full view of 3", len(got))
	}
	// Probing off: full view regardless of filters.
	c.cfg.NoShardProbe = true
	if got := c.probeSet("SELECT a FROM t1"); len(got) != 3 {
		t.Errorf("NoShardProbe probe set = %d, want 3", len(got))
	}
}

// TestFetchRidesBidCache: fetches are admitted like executes. A second
// same-class FetchEach inside the cache's TTL costs zero negotiate RPCs
// — before the lifecycles were unified, fetches never consulted the
// cache and paid the full fan-out every time.
func TestFetchRidesBidCache(t *testing.T) {
	_, c, sql, want := fetchFederation(t, ClientConfig{BidCacheTTL: time.Minute})
	fetch := func(id int64) int {
		t.Helper()
		rows := 0
		out := c.FetchEach(id, sql, func(blk *ColBlock) error { rows += blk.Rows; return nil })
		if out.Err != nil {
			t.Fatalf("FetchEach %d: %v", id, out.Err)
		}
		return rows
	}
	fetch(1)
	afterFirst := c.RPCCounts()["negotiate"]
	if afterFirst == 0 {
		t.Fatal("first fetch negotiated nothing")
	}
	if got := fetch(2); got != len(want.Rows) {
		t.Errorf("cache-admitted fetch delivered %d rows, want %d", got, len(want.Rows))
	}
	if got := c.RPCCounts()["negotiate"]; got != afterFirst {
		t.Errorf("cache-admitted fetch still negotiated: %d -> %d RPCs", afterFirst, got)
	}
	if hits := c.health.Counter(metrics.BidCacheHitsTotal); hits != 1 {
		t.Errorf("bid_cache_hits_total = %d, want 1", hits)
	}
}

// TestCacheAdmittedFetchRefusedRenegotiatesAtOnce: when the only cached
// candidate answers a fetch with a typed refusal, or with Accepted=false,
// the entry dies and the query goes straight back to the market — the
// market was never heard refusing it, so there is no period to wait out.
func TestCacheAdmittedFetchRefusedRenegotiatesAtOnce(t *testing.T) {
	for name, refuse := range map[string]func(f *lifeFed){
		"typed overload": func(f *lifeFed) { f.a.working.Add(int64(f.a.cfg.MaxInflight)) },
		"supply race lost": func(f *lifeFed) {
			// QA-NT registers the class on A's first offer; then sell A out.
			if _, _, err := f.c.negotiateAll(lifeSQL, nil, time.Time{}); err != nil {
				f.t.Fatal(err)
			}
			st, _, _, _ := f.a.estimate(lifeSQL)
			for f.a.pricer.accept(st.Hints().Signature) {
			}
		},
	} {
		t.Run(name, func(t *testing.T) {
			f := startLifeFed(t, false, lifePatient)
			class := classKey(lifeSQL)
			f.c.bids.put(class, []*nodeState{f.c.lookup(f.proxyA.Addr())}) // A alone, as a won round would cache it
			refuse(f)
			rounds0 := f.c.RPCCounts()["negotiate"]
			res, out := f.c.Fetch(1, lifeSQL)
			if out.Err != nil || len(res.Rows) != lifeRows {
				t.Fatalf("fetch: %v (%v)", out.Err, res)
			}
			if out.Node != "B" {
				t.Errorf("ran on %q, want B from the fresh round", out.Node)
			}
			h := f.c.Health()
			if h[metrics.BidCacheHitsTotal] != 1 || h[metrics.BidCacheInvalidationsTotal] != 1 {
				t.Errorf("hits = %v invalidations = %v, want 1 and 1", h[metrics.BidCacheHitsTotal], h[metrics.BidCacheInvalidationsTotal])
			}
			if got := f.c.RPCCounts()["negotiate"] - rounds0; got != 2 {
				t.Errorf("negotiate RPCs = %d, want one fresh round of 2", got)
			}
			if h[metrics.BackoffMsTotal] != 0 {
				t.Errorf("backoff_ms_total = %v: slept out a period the market never refused", h[metrics.BackoffMsTotal])
			}
		})
	}
}

// TestDistributorFragmentsRideBidCache: the Distributor's fragments are
// ordinary lifecycles, so a repeated join fetches them through cached
// ladders — and each completed join still executes exactly two
// subqueries.
func TestDistributorFragmentsRideBidCache(t *testing.T) {
	client, nodes, _ := splitFederationBehindProxies(t, ClientConfig{
		Mechanism: MechGreedy, PeriodMs: 50, Timeout: 5 * time.Second, BidCacheTTL: time.Minute,
	})
	d := NewDistributor(client)
	if _, err := d.Run(1, distJoinSQL); err != nil {
		t.Fatal(err)
	}
	afterFirst := client.RPCCounts()["negotiate"]
	out, err := d.Run(2, distJoinSQL)
	if err != nil {
		t.Fatal(err)
	}
	if len(out.Result.Rows) != 3 {
		t.Errorf("cached-ladder join returned %d rows, want 3", len(out.Result.Rows))
	}
	// Only the whole-query probe (which nobody can offer on, so nothing
	// is cached for it) still goes to the wire.
	if got := client.RPCCounts()["negotiate"] - afterFirst; got != int64(len(nodes)) {
		t.Errorf("second join cost %d negotiate RPCs, want %d (whole-query probe only)", got, len(nodes))
	}
	if hits := client.health.Counter(metrics.BidCacheHitsTotal); hits != 2 {
		t.Errorf("bid_cache_hits_total = %d, want 2 (one per fragment)", hits)
	}
	if executed := nodes[0].Executed() + nodes[1].Executed(); executed != 4 {
		t.Errorf("2 joins executed %d subqueries, want exactly 2 per completed join", executed)
	}
}

// TestHundredNodeAmortizedNegotiation stands up a 100-node gossip-joined
// federation with every amortization layer on — batched CFPs, the
// epoch-stamped bid cache, per-class shard probing — and drives a
// closed-loop star-query mix through it while two data-less members
// leave mid-run. The bid cache must admit queries straight to execute,
// shard probing must skip provably infeasible nodes, the client must
// send fewer than 2 negotiate RPCs per completed query where full
// fan-out sends ~100, every query must complete, and the nodes, departed ones included, must have executed
// exactly what the client completed: cache-admitted and batch-negotiated
// queries keep the at-most-once contract of fully negotiated ones.
func TestHundredNodeAmortizedNegotiation(t *testing.T) {
	const nodes, queries, workers = 100, 120, 8
	rng := rand.New(rand.NewSource(17))
	ds, err := GenerateDataset(DatasetParams{
		Nodes: nodes, Tables: 20, Views: 30, RowsPerTable: 10,
		MinCopies: 2, MaxCopies: 3,
	}, rng)
	if err != nil {
		t.Fatalf("dataset: %v", err)
	}
	fleet := make([]*Node, nodes)
	addrs := make([]string, nodes)
	var seeds []string
	for i := range fleet {
		// Every node joins through scale-000, whose table is the client's
		// view, so nothing here waits on gossip rounds; a slow gossip clock
		// keeps 100 nodes pushing 100-member tables from taking both cores
		// under the race detector.
		fleet[i] = startGossipNode(t, ds.DBs[i], fmt.Sprintf("scale-%03d", i), seeds,
			1+3*float64(i)/(nodes-1), func(cfg *NodeConfig) {
				cfg.MsPerCostUnit, cfg.PeriodMs, cfg.GossipPeriodMs = 0.0001, 50, 2000
			})
		addrs[i] = fleet[i].Addr()
		seeds = addrs[:1]
	}
	// Runs before the nodes' own cleanups: a graceful leave would tell
	// every peer, ten thousand dials for the fleet.
	t.Cleanup(func() {
		for _, n := range fleet {
			n.CloseNow()
		}
	})
	templates, err := ds.GenerateTemplates(8, 2, rng)
	if err != nil {
		t.Fatal(err)
	}

	// Greedy: the mix concentrates every class on its 1-3 holders, where
	// market supply races retry for whole periods; the cache, batcher and
	// prober run the same under both mechanisms.
	client, err := NewClient(ClientConfig{
		Addrs:     addrs,
		Mechanism: MechGreedy,
		PeriodMs:  50, MaxRetries: 300,
		Timeout:     2 * time.Second,
		ViewRefresh: 100 * time.Millisecond,
		BatchWindow: 2 * time.Millisecond,
		BidCacheTTL: 300 * time.Millisecond,
		AtMostOnce:  true, ExecRetries: 4,
		Jitter: rand.New(rand.NewSource(18)),
	})
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()
	// Shard probing starts from a converged view, not a race against it.
	waitFor(t, 10*time.Second, func() bool {
		members := client.Members()
		for _, m := range members {
			if m.CatalogFilter == "" {
				return false
			}
		}
		return len(members) == nodes
	}, "catalog filters never reached the client for all 100 members")

	// Churn victims hold no data, so their departure exercises view
	// pruning and cache invalidation without making any class infeasible.
	var churn []*Node
	for i, db := range ds.DBs {
		if len(churn) < 2 && len(db.Tables())+len(db.Views()) == 0 {
			churn = append(churn, fleet[i])
		}
	}
	if len(churn) < 2 {
		t.Fatal("the dataset left no two data-less nodes to churn")
	}
	var completed atomic.Int64
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			wrng := rand.New(rand.NewSource(19 + int64(w)))
			for id := next.Add(1); id <= queries; id = next.Add(1) {
				if id == queries/2 {
					// Two members leave while every other worker has a query
					// in flight.
					churn[0].Close()
					churn[1].Close()
				}
				sql := templates[wrng.Intn(len(templates))].Instantiate(wrng)
				if out := client.Run(id, sql); out.Err != nil {
					t.Errorf("query %d: %v", id, out.Err)
				} else {
					completed.Add(1)
				}
			}
		}(w)
	}
	wg.Wait()

	health := client.Health()
	if health[metrics.BidCacheHitsTotal] == 0 {
		t.Errorf("the bid cache admitted no query (misses %v): cached admission is dead", health[metrics.BidCacheMissesTotal])
	}
	if health[metrics.ShardSkipsTotal] == 0 {
		t.Error("shard probing skipped no node despite converged filters")
	}
	// Full fan-out costs a negotiate RPC per member per query, ~100 here;
	// the amortization layers together must keep it under 2 per query.
	negotiates := client.RPCCounts()["negotiate"]
	if c := completed.Load(); c == 0 || float64(negotiates)/float64(c) >= 2 {
		t.Errorf("%d negotiate RPCs for %d completed queries, want < 2 per query", negotiates, c)
	}
	executed := 0
	for _, n := range fleet {
		executed += n.Executed()
	}
	if int64(executed) != completed.Load() {
		t.Errorf("nodes executed %d queries but the client completed %d: a query ran twice or was lost", executed, completed.Load())
	}
	t.Logf("completed %d, negotiate RPCs %d, cache hits %v, invalidations %v, batch windows %v, coalesced %v, shard skips %v",
		completed.Load(), negotiates, health[metrics.BidCacheHitsTotal], health[metrics.BidCacheInvalidationsTotal],
		health[metrics.BatchWindowsTotal], health[metrics.BatchCoalescedTotal], health[metrics.ShardSkipsTotal])
}
