package cluster

import (
	"errors"
	"math/rand"
	"reflect"
	"runtime"
	"sync"
	"testing"
	"time"

	"github.com/qamarket/qamarket/internal/driver"
	"github.com/qamarket/qamarket/internal/engine"
	"github.com/qamarket/qamarket/internal/faultnet"
	"github.com/qamarket/qamarket/internal/market"
	"github.com/qamarket/qamarket/internal/metrics"
	"github.com/qamarket/qamarket/internal/sqldb"
)

// protectionQuery returns a one-node federation plus a query that is
// feasible on it, the shared fixture of the protection tests; mutate is
// startTestFederation's.
func protectionQuery(t *testing.T, mutate func(int, *NodeConfig)) (*Dataset, *Node, string, string) {
	t.Helper()
	ds, nodes, addrs := startTestFederation(t, []float64{1}, mutate)
	rng := rand.New(rand.NewSource(41))
	templates, err := ds.GenerateTemplates(4, 1, rng)
	if err != nil {
		t.Fatal(err)
	}
	return ds, nodes[0], addrs[0], templates[0].Instantiate(rng)
}

// TestSeveredReplyRetryExecutesOnce is the regression test the at-most-
// once tentpole exists for: a faultnet link drops the execute reply on
// the floor (the server ran the query, the client saw a timeout), and
// the client's retransmit to the same node must return the original
// outcome from the dedup window instead of executing the query again.
// Before the dedup window existed, the retry re-ran the query and the
// node's executed count came back 2.
func TestSeveredReplyRetryExecutesOnce(t *testing.T) {
	clk := autoClock(t)
	_, node, addr, sql := protectionQuery(t, onClock(clk))
	links := newLinkNet(newMemNet(clk))
	p, front := links.link(t, addr, nil)

	c, err := NewClient(ClientConfig{
		network: links,
		clock:   clk,
		Addrs:   []string{front},
		Timeout: 100 * time.Millisecond, execTimeoutFactor: 2,
		execRetries: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	ns := c.nodes()[0]

	// Sever the reply lane: the request arrives and executes, the answer
	// vanishes. The client must classify this as a lost (not unsent)
	// attempt — the query may have run. The data lane is up first, so the
	// partition swallows the execute's reply and not the hello's.
	c.warmLane(t, ns, "execute")
	p.Partition(faultnet.ServerToClient)
	rep, kind, err := c.executeOn(ns, 1, sql, nil, time.Time{})
	if kind != attemptLost {
		t.Fatalf("severed reply: kind = %v err = %v, want attemptLost", kind, err)
	}
	if rep != nil {
		t.Fatalf("severed reply returned a payload: %+v", rep)
	}

	// Heal and retransmit the same query id: the dedup window replays
	// the original outcome; the executor must not run the query again.
	p.Heal()
	rep, kind, err = c.executeOn(ns, 1, sql, nil, time.Time{})
	if kind != attemptOK || err != nil {
		t.Fatalf("retransmit after heal: kind = %v err = %v, want attemptOK", kind, err)
	}
	if !rep.Accepted {
		t.Fatalf("retransmit not accepted: %+v", rep)
	}
	if got := node.Executed(); got != 1 {
		t.Fatalf("node executed %d times, want exactly 1 (retry must dedup)", got)
	}
	if got := node.health.Snapshot()[metrics.DedupHitsTotal]; got != 1 {
		t.Fatalf("dedup_hits_total = %g, want 1", got)
	}

	// Under a partition that never heals, the lifecycle's same-node
	// retransmits (settle) exhaust and the client reports the outcome
	// unknown instead of failing over — the query still ran exactly once.
	// The lane is re-warmed: the timeout above evicted a connection.
	c.warmLane(t, ns, "execute")
	p.Partition(faultnet.ServerToClient)
	l := c.begin(query{id: 3, sql: sql})
	res := l.settle(ns)
	if res.kind != attemptLost || !errors.Is(res.err, ErrOutcomeUnknown) {
		t.Fatalf("unhealed partition: kind = %v err = %v, want attemptLost/ErrOutcomeUnknown", res.kind, res.err)
	}
	if l.out.Retries != 2 {
		t.Fatalf("settle charged %d retransmits, want execRetries = 2", l.out.Retries)
	}
	p.Heal()
	rep, kind, err = c.executeOn(ns, 3, sql, nil, time.Time{})
	if kind != attemptOK || err != nil || !rep.Accepted {
		t.Fatalf("post-heal retransmit: kind = %v err = %v rep = %+v", kind, err, rep)
	}
	if got := node.Executed(); got != 2 {
		t.Fatalf("node executed %d times across 2 queries, want exactly 2", got)
	}
}

// TestRestartBeforeRetransmitExecutesOnce: an execute reaches the node
// and runs, its reply is lost, and before the client retransmits, the
// node crashes and a new incarnation restored from its checkpoint takes
// its address. The new incarnation's dedup window is empty, so it would
// run the retransmit as a new query: the query would run twice and the
// client see a clean success. Its hello names another boot, so the
// retransmit is never written and the query ends with ErrOutcomeUnknown
// at once, having run once in all.
func TestRestartBeforeRetransmitExecutesOnce(t *testing.T) {
	// ran hears the node run the query, which it counts at once: its
	// execution stretches to no time.
	ran := make(chan struct{}, 1)
	ds, node, addr, sql := protectionQuery(t, func(_ int, cfg *NodeConfig) {
		cfg.Driver, cfg.MsPerCostUnit = hookedDriver{Driver: cfg.Driver, after: func() {
			select {
			case ran <- struct{}{}:
			default:
			}
		}}, 1e-12
	})
	// The client dials front, which reaches the node through a link that
	// loses every reply until the restart points front at a fresh link to
	// the same address.
	links := newLinkNet(memWall)
	link, front := links.link(t, addr, nil)
	// One connection per lane: the crash kills the only data connection,
	// so the retransmit dials.
	c, err := NewClient(ClientConfig{
		network: links,
		Addrs:   []string{front}, Timeout: 5 * time.Second, execTimeoutFactor: 1, execRetries: 2, poolSize: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	ns := c.nodes()[0]
	c.warmLane(t, ns, "execute")
	link.Partition(faultnet.ServerToClient)

	restartedCh := make(chan *Node, 1)
	go func() {
		defer close(restartedCh)
		<-ran
		for node.Executed() == 0 { // counted as the executor returns
			runtime.Gosched()
		}
		state, err := node.MarketState()
		if err != nil {
			t.Error(err)
			return
		}
		// The new incarnation takes the address before the crash cuts the
		// connection whose reply was lost, so the retransmit that cut sets
		// off meets it: the old listener goes first.
		node.ln.Close()
		restarted, err := StartNode(addr, NodeConfig{
			network: memWall,
			Driver:  engine.FromDB(ds.DBs[0]), MsPerCostUnit: 0.02, PeriodMs: 50, Market: market.DefaultConfig(1),
		})
		if err != nil {
			t.Error(err)
			return
		}
		t.Cleanup(func() { restarted.Close() })
		if err := restarted.RestoreMarketState(state); err != nil {
			t.Error(err)
		}
		links.relink(t, front, addr, nil)
		restartedCh <- restarted
		node.CloseNow() // the crash cuts the connection whose reply was lost
	}()
	l := c.begin(query{id: 1, sql: sql})
	res := l.settle(ns)
	restarted := <-restartedCh
	if restarted == nil {
		t.FailNow()
	}
	if got := node.Executed() + restarted.Executed(); got != 1 || restarted.Executed() != 0 {
		t.Fatalf("executed %d times (new incarnation %d), want once, on the old one", got, restarted.Executed())
	}
	if res.kind != attemptLost || !errors.Is(res.err, ErrOutcomeUnknown) {
		t.Fatalf("kind = %v err = %v, want attemptLost/ErrOutcomeUnknown", res.kind, res.err)
	}
	if l.out.Retries != 1 {
		t.Fatalf("settle charged %d retransmits, want the one that met the new incarnation", l.out.Retries)
	}
}

// startWinningStub runs a server that always wins negotiation (a
// near-zero estimate) and then refuses every execute with a typed
// overload — the deterministic bait for the failover ladder.
func startWinningStub(t *testing.T) string {
	t.Helper()
	return startStub(t, func(req *request) reply {
		if req.Op == "negotiate" {
			return reply{Negotiate: &negotiateReply{Feasible: true, Offer: true, EstimateMs: 0.001, Signature: "stub"}}
		}
		return reply{Err: msgOverloaded, Code: CodeOverload}
	})
}

// TestFailoverToRunnerUp drives the runner-up ladder end to end: the
// negotiation winner refuses the execute with a typed overload, and the
// client must execute on the runner-up from the same proposal round —
// one failover, no renegotiation, no breaker trip.
func TestFailoverToRunnerUp(t *testing.T) {
	_, node, addr, sql := protectionQuery(t, nil)
	stub := startWinningStub(t)
	c, err := NewClient(ClientConfig{
		network: memWall,
		Addrs:   []string{stub, addr},
		Timeout: 2 * time.Second, breakerThreshold: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	out := c.Run(1, sql)
	if out.Err != nil {
		t.Fatalf("run failed: %v", out.Err)
	}
	if out.Node != node.ID() {
		t.Fatalf("executed on %q, want runner-up %q", out.Node, node.ID())
	}
	if got := c.Health()[metrics.FailoversTotal]; got != 1 {
		t.Fatalf("failovers_total = %g, want 1", got)
	}
	if got := node.Executed(); got != 1 {
		t.Fatalf("runner-up executed %d times, want 1", got)
	}
	// The overloaded winner is a live market participant, not a fault.
	if st := c.lookup("stub").breaker.snapshot(); st != breakerClosed {
		t.Fatalf("winner breaker = %v after typed overload, want closed", st)
	}
}

// TestAdmissionOverloadTypedReply saturates a MaxInflight=1 node with
// concurrent executes: exactly the admitted ones run, every refused one
// gets the typed overload (never a hang, never a transport error), and
// the books balance.
func TestAdmissionOverloadTypedReply(t *testing.T) {
	clk := autoClock(t)
	ds, _, _, _ := protectionQuery(t, onClock(clk))
	rng := rand.New(rand.NewSource(43))
	templates, err := ds.GenerateTemplates(4, 1, rng)
	if err != nil {
		t.Fatal(err)
	}
	sql := templates[0].Instantiate(rng)
	node, err := StartNode("127.0.0.1:0", NodeConfig{
		network: newMemNet(clk),
		clock:   clk,
		Driver:  engine.FromDB(ds.DBs[0]), Slowdown: 30, MsPerCostUnit: 0.02, PeriodMs: 50,
		Market: market.DefaultConfig(1), MaxInflight: 1, MaxQueue: 4,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer node.Close()
	c, err := NewClient(ClientConfig{
		network: newMemNet(clk),
		clock:   clk,
		Addrs:   []string{node.Addr()}, Timeout: 2 * time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	ns := c.nodes()[0]

	const callers = 6
	var (
		start    sync.WaitGroup
		done     sync.WaitGroup
		mu       sync.Mutex
		ok, over int
		unexpect []error
	)
	start.Add(1)
	done.Add(callers)
	for i := 0; i < callers; i++ {
		go func(qid int64) {
			defer done.Done()
			start.Wait()
			_, kind, err := c.executeOn(ns, qid, sql, nil, time.Time{})
			mu.Lock()
			defer mu.Unlock()
			switch {
			case kind == attemptOK:
				ok++
			case kind == attemptRefused && errors.Is(err, ErrOverloaded):
				over++
			default:
				unexpect = append(unexpect, err)
			}
		}(int64(i))
	}
	start.Done()
	done.Wait()
	if len(unexpect) > 0 {
		t.Fatalf("unexpected outcomes: %v", unexpect)
	}
	if over == 0 {
		t.Fatal("no caller was refused; MaxInflight=1 admission gate never fired")
	}
	if ok == 0 {
		t.Fatal("no caller succeeded; the admitted lane starved")
	}
	if ok+over != callers {
		t.Fatalf("outcomes do not balance: ok=%d over=%d of %d", ok, over, callers)
	}
	if got := node.Executed(); got != ok {
		t.Fatalf("node executed %d, want %d (one per accepted caller)", got, ok)
	}
	if got := node.health.Snapshot()[metrics.OverloadTotal]; got != float64(over) {
		t.Fatalf("overload_total = %g, want %d", got, over)
	}
}

// TestDeadlineShedsBeforeExecution covers both deadline layers: a
// budget the node cannot meet is refused with the typed expired reply
// at admission, and a client-side QueryTimeout turns into a terminal
// ErrExpired instead of a retry storm.
func TestDeadlineShedsBeforeExecution(t *testing.T) {
	ds, _, _, _ := protectionQuery(t, nil)
	rng := rand.New(rand.NewSource(47))
	templates, err := ds.GenerateTemplates(4, 1, rng)
	if err != nil {
		t.Fatal(err)
	}
	sql := templates[0].Instantiate(rng)
	// Slowdown 50 puts every estimate far above the budgets below.
	node, err := StartNode("127.0.0.1:0", NodeConfig{
		network: memWall,
		Driver:  engine.FromDB(ds.DBs[0]), Slowdown: 50, MsPerCostUnit: 0.02, PeriodMs: 20,
		Market: market.DefaultConfig(1),
	})
	if err != nil {
		t.Fatal(err)
	}
	defer node.Close()

	c, err := NewClient(ClientConfig{
		network: memWall,
		Addrs:   []string{node.Addr()}, Timeout: 2 * time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	_, kind, err := c.executeOn(c.nodes()[0], 1, sql, nil, time.Now().Add(2*time.Millisecond))
	if kind != attemptRefused || !errors.Is(err, ErrExpired) {
		t.Fatalf("tiny budget: kind = %v err = %v, want refused/ErrExpired", kind, err)
	}
	if got := node.health.Snapshot()[metrics.ExpiredTotal]; got < 1 {
		t.Fatalf("expired_total = %g, want >= 1", got)
	}
	if got := node.Executed(); got != 0 {
		t.Fatalf("node executed %d shed queries", got)
	}

	tc, err := NewClient(ClientConfig{
		network: memWall,
		Addrs:   []string{node.Addr()}, Timeout: 2 * time.Second,
		PeriodMs: 10, QueryTimeout: 40 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer tc.Close()
	out := tc.Run(2, sql)
	if !errors.Is(out.Err, ErrExpired) {
		t.Fatalf("QueryTimeout run: err = %v, want ErrExpired", out.Err)
	}
	if out.TotalMs > 1000 {
		t.Fatalf("expired query burned %.0fms; deadline did not bound the retries", out.TotalMs)
	}
}

// TestQueuedJobExpiresAtDequeue checks the executor-side guard: a job
// whose deadline passed while it sat in the queue is dropped at dequeue
// with the expired error instead of burning executor time.
func TestQueuedJobExpiresAtDequeue(t *testing.T) {
	_, node, _, sql := protectionQuery(t, nil)
	st, _, _, err := node.estimate(sql)
	if err != nil {
		t.Fatal(err)
	}
	job := &execJob{
		stmt: st, reply: make(chan executeReply, 1), estMs: 1,
		queued: time.Now().Add(-10 * time.Millisecond), deadline: time.Now().Add(-5 * time.Millisecond),
	}
	node.execCh <- job
	select {
	case rep := <-job.reply:
		if rep.Err != msgExpired {
			t.Fatalf("expired queued job answered %+v, want %q", rep, msgExpired)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("expired queued job never answered")
	}
	if got := node.health.Snapshot()[metrics.ExpiredTotal]; got != 1 {
		t.Fatalf("expired_total = %g, want 1", got)
	}
	if got := node.Executed(); got != 0 {
		t.Fatalf("node executed %d expired jobs", got)
	}
}

// TestRetryBudgetExhausted proves the client-wide token bucket turns a
// dead federation into a fast typed failure instead of MaxRetries
// rounds of timeouts.
func TestRetryBudgetExhausted(t *testing.T) {
	ln, err := memWall.listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String()
	ln.Close() // dials are refused instantly

	c, err := NewClient(ClientConfig{
		network: memWall,
		Addrs:   []string{addr}, Timeout: 200 * time.Millisecond,
		PeriodMs: 10, MaxRetries: 50, breakerThreshold: 1,
		RetryBudget: 0.0001, retryBurst: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	out := c.Run(1, "SELECT 1 FROM t")
	if !errors.Is(out.Err, ErrRetryBudget) {
		t.Fatalf("err = %v, want ErrRetryBudget", out.Err)
	}
	if out.Retries != 2 {
		t.Fatalf("retries = %d, want 2 (one funded, one refused)", out.Retries)
	}
	if got := c.Health()[metrics.RetryBudgetExhaustedTotal]; got != 1 {
		t.Fatalf("retry_budget_exhausted_total = %g, want 1", got)
	}
}

// TestDedupWindowPacksSmallResults: a small fetch result is cached as
// one packed allocation beside its verdict and replays cell-identical; a
// large one is kept as produced (it may alias storage, and re-encoding
// it would cost a copy per fetch).
func TestDedupWindowPacksSmallResults(t *testing.T) {
	rows := []sqldb.Row{
		{sqldb.NewInt(1), sqldb.NewFloat(2.5), sqldb.NewText("it's"), sqldb.NewBool(true)},
		{sqldb.Null, sqldb.Null, sqldb.NewText(""), sqldb.NewBool(false)},
		{sqldb.NewInt(-7), sqldb.NewFloat(0), sqldb.Null, sqldb.Null},
	}
	var small ColBlock
	small.FillFromRows([]string{"a", "b", "c", "d"}, rows)
	verdict := executeReply{Accepted: true, Rows: 3, ExecMs: 0.125, WaitMs: 1e-5, Err: "ünchanged"}
	rec := packRecord(verdict, &small)
	if rec.big != nil || len(rec.packed) != cap(rec.packed) {
		t.Fatalf("a %d-row result was not packed into one exact-size record", small.Rows)
	}
	rep, replay := rec.outcome()
	if rep != verdict {
		t.Fatalf("packed verdict replays %+v, want %+v", rep, verdict)
	}
	got, err := replay.AppendRows(nil)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(replay.Columns, small.Columns) || !reflect.DeepEqual(got, rows) {
		t.Fatalf("packed result replays %v %v, want %v %v", replay.Columns, got, small.Columns, rows)
	}
	if rep, res := packRecord(verdict, nil).outcome(); res != nil || rep != verdict {
		t.Fatal("an outcome without a result must replay without one")
	}

	var big ColBlock
	bigRows := make([]sqldb.Row, packRowsMax+1)
	for i := range bigRows {
		bigRows[i] = sqldb.Row{sqldb.NewInt(int64(i))}
	}
	big.FillFromRows([]string{"n"}, bigRows)
	rec = packRecord(verdict, &big)
	if rep, res := rec.outcome(); rec.big != &big || res != &big || rep != verdict {
		t.Fatal("a result over packRowsMax must be cached as produced")
	}
}

// TestDedupWindowEvictsAtTTL: a cached outcome leaves the window on the
// first settle after its TTL, not at the next periodic sweep — the
// window's footprint follows rate × TTL.
func TestDedupWindowEvictsAtTTL(t *testing.T) {
	clk := newFakeClock()
	d := newDedupWindow(time.Minute, clk)
	key := func(sql string) dedupKey { return d.key("run", false, 1, sql) }
	settle := func(sql string, cacheable bool) {
		t.Helper()
		if _, _, hit, owner := d.claim(key(sql), nil); hit || !owner {
			t.Fatalf("claim(%s): hit=%v owner=%v, want a fresh owner", sql, hit, owner)
		}
		d.settle(key(sql), d.run("run"), executeReply{Accepted: cacheable}, nil, cacheable)
	}
	settle("old", true)
	settle("refused", false) // never cached, never queued
	settle("young", true)
	if got, _ := d.size(); got != 2 {
		t.Fatalf("window holds %d entries, want the 2 cacheable ones", got)
	}
	if d.ring[0].key != key("old") {
		t.Fatal("the oldest entry does not head the eviction order")
	}
	d.ring[0].at -= 2 * time.Minute
	settle("newer", true)
	if _, _, hit, _ := d.claim(key("young"), nil); !hit {
		t.Fatal("an entry inside its TTL was evicted")
	}
	if _, ok := d.settled[key("old")]; ok {
		t.Fatal("an expired entry survived the next settle")
	}
	clk.advance(2 * time.Minute)
	d.sweep()
	if got, _ := d.size(); got != 0 {
		t.Fatalf("sweep past every TTL left %d entries", got)
	}
}

// TestDedupWindowBytesPerOutcome pins what the window costs a busy
// node. The outcome is small-fetch's — a one-join star query grouped
// into 8 rows of (grp, n, total) — and the count is everything the
// window holds for it: record, index slot and ring entry. A cached
// outcome is held until its client releases it, or its TTL if the
// release never comes; a released one keeps only its key, which the
// window holds for the TTL, so its bytes times the query rate times the
// TTL are what stays resident.
func TestDedupWindowBytesPerOutcome(t *testing.T) {
	rows := make([]sqldb.Row, 8)
	for g := range rows {
		rows[g] = sqldb.Row{sqldb.NewInt(int64(g)), sqldb.NewInt(int64(10 + g)), sqldb.NewFloat(512.25 + float64(g))}
	}
	var res ColBlock
	res.FillFromRows([]string{"grp", "n", "total"}, rows)
	const (
		entries = 40_000
		runID   = "r-1760000000000000000-1"
		sql     = "SELECT r3.grp, COUNT(*) AS n, SUM(r3.v) AS total FROM r3 JOIN v5 ON r3.k = v5.k WHERE r3.v > 42 GROUP BY r3.grp ORDER BY r3.grp"
	)
	heap := func() int64 {
		var m runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&m)
		return int64(m.HeapAlloc)
	}
	d := newDedupWindow(time.Hour, wallClock{})
	run := d.run(runID)
	seqs := make([]uint64, 0, entries)
	before := heap()
	for i := int64(0); i < entries; i++ {
		key := d.key(runID, true, i, sql)
		if _, _, _, owner := d.claim(key, nil); !owner {
			t.Fatalf("query %d: not the owner", i)
		}
		seqs = append(seqs, d.settle(key, run, executeReply{Accepted: true, ExecMs: 0.0123}, &res, true))
	}
	held := heap()
	got, retained := d.size()
	if got != entries {
		t.Fatalf("window holds %d outcomes, want %d", got, entries)
	}
	if record := int64(cap(d.ring[0].rec.packed)); retained != entries*record {
		t.Fatalf("dedup_retained_bytes = %d, want %d records of %d bytes", retained, entries, record)
	}
	perEntry := float64(held-before) / entries
	t.Logf("%.0f heap bytes per cached 8-row outcome", perEntry)
	if perEntry > 500 {
		t.Fatalf("a cached 8-row outcome holds %.0f heap bytes, budget is 500", perEntry)
	}

	d.release(run, seqs)
	released := heap()
	got, retained = d.size()
	if got != entries || retained != 0 {
		t.Fatalf("after release the window holds %d keys retaining %d bytes, want %d keys and 0 bytes", got, retained, entries)
	}
	perKey := float64(released-before) / entries
	t.Logf("%.0f heap bytes per released key", perKey)
	if perKey > 160 {
		t.Fatalf("a released key holds %.0f heap bytes, budget is 160", perKey)
	}
	runtime.KeepAlive(d)
	runtime.KeepAlive(seqs)
}

// hookedDriver runs before ahead of every execution and after behind
// it; either may be nil.
type hookedDriver struct {
	driver.Driver
	before, after func()
}

func (d hookedDriver) Prepare(sql string) (driver.Statement, error) {
	st, err := d.Driver.Prepare(sql)
	if err != nil {
		return nil, err
	}
	return hookedStmt{st, d}, nil
}

type hookedStmt struct {
	driver.Statement
	d hookedDriver
}

func (s hookedStmt) Execute() (*driver.Block, error) {
	if s.d.before != nil {
		s.d.before()
	}
	blk, err := s.Statement.Execute()
	if s.d.after != nil {
		s.d.after()
	}
	return blk, err
}
