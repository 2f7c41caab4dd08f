package cluster

import (
	"errors"
	"math"
	"math/rand"
	"reflect"
	"testing"
	"time"

	"github.com/qamarket/qamarket/internal/driver"
	"github.com/qamarket/qamarket/internal/faultnet"
	"github.com/qamarket/qamarket/internal/market"
	"github.com/qamarket/qamarket/internal/metrics"
	"github.com/qamarket/qamarket/internal/sqldb"
)

// executeOn is one execute attempt at the lifecycle's attempt seam, in
// the shape the wire-level tests have always called it: they pin what a
// single exchange with a single node classifies as.
func (c *Client) executeOn(ns *nodeState, id int64, sql string, tc *traceCtx, deadline time.Time) (*executeReply, attemptKind, error) {
	res := c.begin(query{id: id, sql: sql, sub: true, tc: tc, deadline: deadline}).attempt(ns)
	if res.kind != attemptOK {
		return nil, res.kind, res.err
	}
	return &executeReply{Accepted: res.accepted, Rows: int(res.rows), ExecMs: res.execMs}, res.kind, nil
}

// lifeFed is the conformance fixture: two real nodes over fault-
// injecting mock drivers, each behind a fault-injecting link. Node A is
// forty times faster than B, so a proposal round ranks A first unless A
// reports a backlog; the script under test is what A does with the query
// it won.
type lifeFed struct {
	t            *testing.T
	a, b         *Node
	mockA, mockB *driver.Mock
	linkA, linkB *faultnet.Link
	frontA       string   // the address that dials A through linkA
	net          *linkNet // the client's
	clk          *fakeClock
	c            *Client
	// mockA2 drives the incarnation restartA put behind A's front; nil
	// until a row restarts A.
	mockA2 *driver.Mock
}

const (
	lifeSQL   = "SELECT a, b FROM t"
	lifeRows  = 4
	lifeBurst = 50 // retry tokens the client starts with

	// The client's RPC timeout. Nothing scripted reaches lifePatient, so
	// B's 16 ms answer can never read as a lost reply and a second
	// proposal round. A row whose script swallows replies sits the timeout
	// out, and asks for lifeBrisk; the fixture's clock advances itself, so
	// sitting it out costs no wall time.
	lifePatient = 10 * time.Second
	lifeBrisk   = 150 * time.Millisecond
)

func startLifeFed(t *testing.T, timeout time.Duration) *lifeFed {
	t.Helper()
	f := &lifeFed{t: t, clk: autoClock(t)}
	f.net = newLinkNet(newMemNet(f.clk))
	f.a, f.mockA = f.startNode("127.0.0.1:0", "A", 1)
	f.b, f.mockB = f.startNode("127.0.0.1:0", "B", 40)
	var frontB string
	f.linkA, f.frontA = f.net.link(t, f.a.Addr(), nil)
	f.linkB, frontB = f.net.link(t, f.b.Addr(), nil)
	c, err := NewClient(ClientConfig{
		network:   f.net,
		clock:     f.clk,
		Addrs:     []string{f.frontA, frontB},
		Mechanism: MechQANT, PeriodMs: 10, Timeout: timeout, execTimeoutFactor: 1,
		QueryTimeout: 20 * time.Second, execRetries: 2,
		RetryBudget: 1e-6, retryBurst: lifeBurst, BidCacheTTL: time.Minute,
		Jitter: rand.New(rand.NewSource(7)),
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(c.Close)
	f.c = c
	return f
}

// startNode starts one node on addr over a fault-injecting mock driver.
func (f *lifeFed) startNode(addr, id string, slowdown float64) (*Node, *driver.Mock) {
	db := sqldb.Open()
	for _, q := range []string{
		"CREATE TABLE t (a INT, b TEXT)",
		"INSERT INTO t VALUES (1, 'w'), (2, 'x'), (3, 'y'), (4, 'z')",
	} {
		if _, _, err := db.Exec(q); err != nil {
			f.t.Fatal(err)
		}
	}
	mock := driver.NewMock(driver.NewLegacy(db), driver.MockConfig{})
	n, err := StartNode(addr, NodeConfig{
		network: newMemNet(f.clk), clock: f.clk,
		Driver: mock, NodeID: id, Slowdown: slowdown, MsPerCostUnit: 0.05,
		shareQueueState: true, fetchBatchRows: 1,
		// One period outlasts the test: supply moves only when a row's
		// script moves it. No gossip round runs either: the nodes never
		// meet, and the clock has nothing to step through.
		PeriodMs: 60_000, GossipPeriodMs: 60_000, Market: market.DefaultConfig(1),
	})
	if err != nil {
		f.t.Fatal(err)
	}
	f.t.Cleanup(func() { n.CloseNow() })
	return n, mock
}

// warmA opens A's data lane, so the attempt's request is written on a
// connection whose hello is already answered.
func (f *lifeFed) warmA() {
	f.c.warmLane(f.t, f.c.lookup("A"), "execute")
}

// loseRepliesA opens A's data lane through a link that loses every
// reply: A runs what the lane carries, and the client hears nothing.
func (f *lifeFed) loseRepliesA() {
	link := f.net.relink(f.t, f.frontA, f.a.Addr(), nil)
	f.warmA()
	link.Partition(faultnet.ServerToClient)
}

// cutA takes A's front down: open connections severed, new ones refused.
func (f *lifeFed) cutA() {
	f.linkA.SetRefuse(true)
	f.linkA.Sever()
}

// restartA puts a new incarnation of A, restored from A's market state,
// on A's address, as after a crash and a checkpoint restore, and gives
// A's front a fresh link to it: every connection dialed from now on
// reaches it. The old incarnation, its listener closed, keeps the
// connections it has.
func (f *lifeFed) restartA() {
	state, err := f.a.MarketState()
	if err != nil {
		f.t.Fatal(err)
	}
	f.a.ln.Close()
	n, mock := f.startNode(f.a.Addr(), "A", 1)
	if err := n.RestoreMarketState(state); err != nil {
		f.t.Fatal(err)
	}
	f.mockA2 = mock
	f.net.relink(f.t, f.frontA, n.Addr(), nil)
}

// tokensTaken reads how many retry tokens the client has spent.
func (f *lifeFed) tokensTaken() int {
	f.c.retry.mu.Lock()
	defer f.c.retry.mu.Unlock()
	return int(math.Round(lifeBurst - f.c.retry.tokens))
}

// lifeWant is what one scripted query must look like from outside.
type lifeWant struct {
	rounds        int // proposal rounds that went to the wire
	failovers     int
	tokens        int
	invalidations int
	breakerA      breakerState
	err           error // nil, a typed sentinel, or errLifeFatal
	node          string
	// bUntouched asserts the runner-up never executed anything: the
	// partial-delivery rule's "never a runner-up".
	bUntouched bool
}

// errLifeFatal stands for "a terminal error of no particular type".
var errLifeFatal = errors.New("fatal")

// lifeOps are the three terminal ops — the only thing Run, Fetch and
// FetchEach differ in. sink builds the op's sink over the caller's row
// buffer, tapping every delivered block.
var lifeOps = []struct {
	name     string
	callback bool // rows escape to the caller: the non-resettable sink
	sink     func(got *sqldb.Result, onBlock func()) *fetchSink
}{
	{name: "execute", sink: func(*sqldb.Result, func()) *fetchSink { return nil }},
	{name: "fetch-accumulate", sink: func(got *sqldb.Result, onBlock func()) *fetchSink {
		sink := accumulateSink(got)
		block := sink.block
		sink.block = func(blk *ColBlock) error {
			defer onBlock()
			return block(blk)
		}
		return sink
	}},
	{name: "fetch-callback", callback: true, sink: func(got *sqldb.Result, onBlock func()) *fetchSink {
		return &fetchSink{block: func(blk *ColBlock) error {
			defer onBlock()
			var err error
			got.Rows, err = blk.AppendRows(got.Rows)
			return err
		}}
	}},
}

// TestLifecycleConformance runs one script of per-candidate behaviours
// against all three terminal ops and requires the same journey from
// each: proposal rounds, failovers, retry tokens, bid-cache
// invalidations, the winner's breaker and the terminal error type. The
// only row whose legal outcome depends on the op is a partial-delivery
// one, and it says so (wantCallback). On every row and op the query
// executes at most once across both nodes.
func TestLifecycleConformance(t *testing.T) {
	rows := []struct {
		name      string
		cached    bool // admit the scripted query from a warmed bid cache
		fetchOnly bool // the script needs a row stream to cut
		brisk     bool // the script waits for an RPC timeout to fire
		// arm makes A misbehave; it runs after A won the round, right
		// before the first attempt on it.
		arm func(f *lifeFed)
		// onBlock runs after the first block reaches the sink.
		onBlock      func(f *lifeFed)
		want         lifeWant
		wantCallback *lifeWant
	}{
		{name: "ok",
			want: lifeWant{rounds: 1, node: "A"}},
		{name: "supply race lost",
			// Another client takes A's remaining supply between its offer
			// and our request: the round is stale, back to the market.
			arm: func(f *lifeFed) {
				st, _, _, err := f.a.estimate(lifeSQL)
				if err != nil {
					f.t.Error(err)
					return
				}
				for i := 0; f.a.pricer.accept(st.Hints().Signature); i++ {
					if i > 50_000_000 {
						f.t.Error("A's supply never ran out")
						return
					}
				}
			},
			want: lifeWant{rounds: 2, tokens: 1, invalidations: 1, node: "B"}},
		{name: "typed overload",
			arm:  func(f *lifeFed) { f.a.working.Add(int64(f.a.cfg.MaxInflight)) },
			want: lifeWant{rounds: 1, failovers: 1, tokens: 1, invalidations: 1, node: "B"}},
		{name: "typed expired",
			arm: func(f *lifeFed) {
				f.a.mu.Lock()
				f.a.backlogMs = 1e12
				f.a.mu.Unlock()
			},
			want: lifeWant{rounds: 1, failovers: 1, tokens: 1, invalidations: 1, node: "B"}},
		{name: "typed draining",
			arm:  func(f *lifeFed) { f.a.draining.Store(true) },
			want: lifeWant{rounds: 1, failovers: 1, tokens: 1, invalidations: 1, breakerA: breakerOpen, node: "B"}},
		{name: "not sent",
			arm:  func(f *lifeFed) { f.cutA() },
			want: lifeWant{rounds: 1, failovers: 1, tokens: 1, node: "B"}},
		{name: "lost at the hello", brisk: true,
			// A's data lane is cold: the attempt dials, and A's answer to the
			// hello is lost. The request was never written, so A cannot have
			// run it: fail over to B at once.
			arm:  func(f *lifeFed) { f.linkA.Partition(faultnet.ServerToClient) },
			want: lifeWant{rounds: 1, failovers: 1, tokens: 1, node: "B"}},
		{name: "lost", brisk: true,
			// The request never reaches A, but a silent node looks the same
			// whichever way the bytes went: the client cannot rule out that
			// A ran it, so this is a lost reply too. The lane is up first,
			// so the partition takes the request and not the hello.
			arm: func(f *lifeFed) {
				f.warmA()
				f.linkA.Partition(faultnet.ClientToServer)
			},
			want: lifeWant{rounds: 1, tokens: 2, breakerA: breakerOpen, err: ErrOutcomeUnknown, bUntouched: true}},
		{name: "lost under AtMostOnce", brisk: true,
			// The query ran on A and its replies are lost. At-most-once is
			// the only lost-reply policy (the row keeps its name from when
			// it was a switch): retransmit to A, and when the replies stay
			// lost give up rather than run it on B too.
			arm: func(f *lifeFed) {
				f.warmA()
				f.linkA.Partition(faultnet.ServerToClient)
			},
			want: lifeWant{rounds: 1, tokens: 2, breakerA: breakerOpen, err: ErrOutcomeUnknown, bUntouched: true}},
		{name: "fatal",
			arm:  func(f *lifeFed) { f.mockA.FailNextExec(1) },
			want: lifeWant{rounds: 1, err: errLifeFatal, bUntouched: true}},
		{name: "fatal from cached ladder", cached: true,
			// A's engine broke since it bid and its queue backed up. The
			// cache is impeached, not the query: one fresh round, where B
			// now finishes first.
			arm: func(f *lifeFed) {
				f.mockA.FailNextExec(1)
				f.a.mu.Lock()
				f.a.backlogMs = 5_000
				f.a.mu.Unlock()
			},
			want: lifeWant{rounds: 1, tokens: 1, invalidations: 1, node: "B"}},
		{name: "lost after partial delivery", fetchOnly: true,
			arm: func(f *lifeFed) { f.a.frameSever.Store(1) },
			// A lost reply stays on A, whose dedup window replays the
			// result: a resettable sink takes it from the start, a callback
			// sink with skip = delivered. Nothing else.
			want: lifeWant{rounds: 1, tokens: 1, node: "A", bUntouched: true}},
		{name: "lost after partial delivery, node gone", fetchOnly: true,
			arm:     func(f *lifeFed) { f.a.frameSever.Store(1) },
			onBlock: func(f *lifeFed) { f.cutA() },
			// A cannot be reached again: the query may have run there, so a
			// resettable sink's outcome is unknown. B is never asked.
			want: lifeWant{rounds: 1, tokens: 2, breakerA: breakerOpen, err: ErrOutcomeUnknown, bUntouched: true},
			// Rows escaped and A cannot resume: terminal, and untyped.
			wantCallback: &lifeWant{rounds: 1, tokens: 2, breakerA: breakerOpen, err: errLifeFatal, bUntouched: true}},
		{name: "lost, node restarted before the retransmit", brisk: true,
			// A runs the query and its replies are lost, and a restored
			// incarnation has taken A's address. The lane's other warm
			// connection still reaches A, so the first retransmit goes to A
			// and is lost too; the second dials, meets another boot and is
			// not sent: the new window cannot replay the outcome, and running
			// the query there would run it twice.
			arm: func(f *lifeFed) {
				f.loseRepliesA()
				f.restartA()
			},
			want: lifeWant{rounds: 1, tokens: 2, err: ErrOutcomeUnknown, bUntouched: true}},
		{name: "lost after partial delivery, node restarted", fetchOnly: true,
			arm:     func(f *lifeFed) { f.a.frameSever.Store(1) },
			onBlock: func(f *lifeFed) { f.restartA() },
			// The retransmit meets another boot and is not sent: the outcome
			// is unknown to a resettable sink.
			want: lifeWant{rounds: 1, tokens: 1, err: ErrOutcomeUnknown, bUntouched: true},
			// Rows escaped and A cannot resume: terminal, and untyped.
			wantCallback: &lifeWant{rounds: 1, tokens: 1, err: errLifeFatal, bUntouched: true}},
	}
	for _, row := range rows {
		for _, op := range lifeOps {
			if row.fetchOnly && op.name == "execute" {
				continue
			}
			t.Run(row.name+"/"+op.name, func(t *testing.T) {
				t.Parallel()
				timeout := lifePatient
				if row.brisk {
					timeout = lifeBrisk
				}
				f := startLifeFed(t, timeout)
				run := func(id int64, hook func(nodeID, sql string), onBlock func()) (Outcome, []sqldb.Row) {
					got := &sqldb.Result{}
					q := query{id: id, sql: lifeSQL, sink: op.sink(got, onBlock), afterNegotiate: hook}
					out, _ := f.c.begin(q).run()
					return out, got.Rows
				}
				if row.cached {
					if out, _ := run(1, nil, func() {}); out.Err != nil || out.Node != "A" {
						t.Fatalf("warm-up: node %q err %v", out.Node, out.Err)
					}
				}
				health0, rpc0, tok0 := f.c.Health(), f.c.RPCCounts()["negotiate"], f.tokensTaken()
				execA0, execB0 := f.mockA.Executions(), f.mockB.Executions()

				armed, tapped := false, false
				hook := func(nodeID, _ string) {
					if nodeID == "A" && !armed && row.arm != nil {
						armed = true
						row.arm(f)
					}
				}
				onBlock := func() {
					if !tapped && row.onBlock != nil {
						tapped = true
						row.onBlock(f)
					}
				}
				out, got := run(2, hook, onBlock)

				want := row.want
				if op.callback && row.wantCallback != nil {
					want = *row.wantCallback
				}
				health := f.c.Health()
				delta := func(k string) int { return int(health[k] - health0[k]) }
				if r := int(f.c.RPCCounts()["negotiate"]-rpc0) / 2; r != want.rounds {
					t.Errorf("proposal rounds = %d, want %d", r, want.rounds)
				}
				if d := delta(metrics.FailoversTotal); d != want.failovers {
					t.Errorf("failovers = %d, want %d", d, want.failovers)
				}
				if d := f.tokensTaken() - tok0; d != want.tokens {
					t.Errorf("retry tokens taken = %d, want %d", d, want.tokens)
				}
				if d := delta(metrics.RetriesTotal); d != out.Retries {
					t.Errorf("retries_total moved %d, outcome says %d", d, out.Retries)
				}
				if d := delta(metrics.BidCacheInvalidationsTotal); d != want.invalidations {
					t.Errorf("bid cache invalidations = %d, want %d", d, want.invalidations)
				}
				if st := f.c.lookup("A").breaker.snapshot(); st != want.breakerA {
					t.Errorf("A's breaker = %v, want %v", st, want.breakerA)
				}
				switch {
				case want.err == nil:
					if out.Err != nil {
						t.Fatalf("err = %v, want success", out.Err)
					}
				case want.err == errLifeFatal:
					for _, typed := range []error{ErrOverloaded, ErrExpired, ErrRetryBudget, ErrOutcomeUnknown} {
						if out.Err == nil || errors.Is(out.Err, typed) {
							t.Errorf("err = %v, want an untyped terminal error", out.Err)
						}
					}
				case !errors.Is(out.Err, want.err):
					t.Errorf("err = %v, want %v", out.Err, want.err)
				}
				if out.Node != want.node {
					t.Errorf("ran on %q, want %q", out.Node, want.node)
				}
				execA, execB := f.mockA.Executions()-execA0, f.mockB.Executions()-execB0
				if execA+execB > 1 {
					t.Errorf("executed %d times (A %d, B %d), want at most once", execA+execB, execA, execB)
				}
				if f.mockA2 != nil && f.mockA2.Executions() != 0 {
					t.Errorf("A's new incarnation executed %d queries, want none", f.mockA2.Executions())
				}
				if want.bUntouched && execB != 0 {
					t.Errorf("runner-up executed %d queries, want none", execB)
				}
				if want.err == nil {
					if out.Rows != lifeRows {
						t.Errorf("outcome rows = %d, want %d", out.Rows, lifeRows)
					}
					if op.name != "execute" {
						wantRows := []sqldb.Row{
							{sqldb.NewInt(1), sqldb.NewText("w")}, {sqldb.NewInt(2), sqldb.NewText("x")},
							{sqldb.NewInt(3), sqldb.NewText("y")}, {sqldb.NewInt(4), sqldb.NewText("z")},
						}
						if !reflect.DeepEqual(got, wantRows) {
							t.Errorf("caller holds %v, want every row exactly once", got)
						}
					}
				}
			})
		}
	}
}
