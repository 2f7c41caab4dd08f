package cluster

import (
	"strings"
	"testing"
	"time"

	"github.com/qamarket/qamarket/internal/engine"
	"github.com/qamarket/qamarket/internal/faultnet"
	"github.com/qamarket/qamarket/internal/metrics"
	"github.com/qamarket/qamarket/internal/sqldb"
)

// startSingleNode builds one node over a tiny table, on the in-memory
// network, with the given config tweaks applied on top of test defaults.
func startSingleNode(t *testing.T, mutate func(*NodeConfig)) *Node {
	t.Helper()
	db := sqldb.Open()
	if _, _, err := db.Exec("CREATE TABLE t (a INT, b INT)"); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 50; i++ {
		if _, _, err := db.Exec("INSERT INTO t VALUES (1, 2)"); err != nil {
			t.Fatal(err)
		}
	}
	cfg := NodeConfig{Driver: engine.FromDB(db), MsPerCostUnit: 0.01, PeriodMs: 50}
	if mutate != nil {
		mutate(&cfg)
	}
	onMem(&cfg)
	n, err := StartNode("127.0.0.1:0", cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { n.Close() })
	return n
}

func TestExecTimeoutFactorValidation(t *testing.T) {
	c, err := NewClient(ClientConfig{network: memWall, Addrs: []string{"127.0.0.1:9"}})
	if err != nil {
		t.Fatal(err)
	}
	if c.cfg.execTimeoutFactor != 20 {
		t.Errorf("default execTimeoutFactor = %d, want 20", c.cfg.execTimeoutFactor)
	}
	if got, want := c.cfg.execTimeout(), 20*c.cfg.Timeout; got != want {
		t.Errorf("execTimeout = %v, want %v", got, want)
	}
	c, err = NewClient(ClientConfig{network: memWall, Addrs: []string{"127.0.0.1:9"}, execTimeoutFactor: 5, Timeout: time.Second})
	if err != nil {
		t.Fatal(err)
	}
	if got := c.cfg.execTimeout(); got != 5*time.Second {
		t.Errorf("execTimeout = %v, want 5s", got)
	}
	// The test hooks' product values: what every client outside the
	// package's tests runs with.
	c, err = NewClient(ClientConfig{network: memWall, Addrs: []string{"127.0.0.1:9"}, PeriodMs: 100})
	if err != nil {
		t.Fatal(err)
	}
	got := [...]any{c.cfg.maxBackoffMs, c.cfg.breakerThreshold, c.cfg.breakerCooldown, c.cfg.execRetries, c.cfg.retryBurst, c.cfg.batchLimit}
	want := [...]any{int64(800), 3, 2 * time.Second, 2, 16.0, 16}
	if got != want {
		t.Errorf("defaults (maxBackoffMs, breakerThreshold, breakerCooldown, execRetries, retryBurst, batchLimit) = %v, want %v", got, want)
	}
}

func TestBackoffDelayBounds(t *testing.T) {
	c, err := NewClient(ClientConfig{network: memWall, Addrs: []string{"127.0.0.1:9"}, PeriodMs: 20, maxBackoffMs: 160})
	if err != nil {
		t.Fatal(err)
	}
	wantTarget := []time.Duration{
		20 * time.Millisecond, 40 * time.Millisecond, 80 * time.Millisecond,
		160 * time.Millisecond, 160 * time.Millisecond, // capped
	}
	for round, target := range wantTarget {
		for trial := 0; trial < 50; trial++ {
			d := c.backoffDelay(round)
			if d < target/2 || d > target {
				t.Fatalf("round %d delay %v outside [%v, %v]", round, d, target/2, target)
			}
		}
	}
	// Huge round numbers must not overflow past the cap.
	if d := c.backoffDelay(200); d > 160*time.Millisecond {
		t.Errorf("round 200 delay %v above cap", d)
	}
}

// TestRetryAgainstFlakyServer reproduces the deterministic flaky-server
// scenario: the node's link refuses the first 4 connections and then
// recovers. The client must retry through the failures with bounded
// backoff and complete the query.
func TestRetryAgainstFlakyServer(t *testing.T) {
	clk := autoClock(t)
	node := startSingleNode(t, func(cfg *NodeConfig) { cfg.clock = clk })
	links := newLinkNet(newMemNet(clk))
	flaky, front := links.link(t, node.Addr(), faultnet.RefuseFirst(4))

	client, err := NewClient(ClientConfig{
		network: links,
		clock:   clk,
		Addrs:   []string{front}, Mechanism: MechGreedy,
		PeriodMs: 20, maxBackoffMs: 80, MaxRetries: 20,
		// Keep the breaker out of the way: this test isolates the
		// backoff path.
		breakerThreshold: 100,
		Timeout:          2 * time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	start := clk.now()
	out := client.Run(1, "SELECT COUNT(*) FROM t")
	elapsed := clk.since(start)
	if out.Err != nil {
		t.Fatalf("query through flaky link failed: %v", out.Err)
	}
	if out.Retries != 4 {
		t.Errorf("Retries = %d, want 4 (one per refused connection)", out.Retries)
	}
	health := client.Health()
	if got := health[metrics.RetriesTotal]; got != 4 {
		t.Errorf("retries_total = %g, want 4", got)
	}
	// Backoff targets for rounds 0..3 are 20, 40, 80, 80ms; jitter keeps
	// each sleep in [1/2, 1] of its target, so the total slept must land
	// in [110, 220]ms (with a little slack for ms truncation).
	slept := health[metrics.BackoffMsTotal]
	if slept < 100 || slept > 230 {
		t.Errorf("backoff_ms_total = %g, want within [110, 220]", slept)
	}
	if elapsed < 100*time.Millisecond {
		t.Errorf("query completed in %v; backoff sleeps not applied", elapsed)
	}
	// 4 refused + 1 negotiate + 1 execute.
	if got := flaky.Dials(); got != 6 {
		t.Errorf("the link dialed %d connections, want 6", got)
	}
}

// TestBreakerLimitsDialsToDeadNode verifies the core breaker economy: a
// dead node costs one timeout per breaker window, not one per query.
func TestBreakerLimitsDialsToDeadNode(t *testing.T) {
	clk := autoClock(t)
	node := startSingleNode(t, func(cfg *NodeConfig) { cfg.clock = clk })
	links := newLinkNet(newMemNet(clk))
	dead, deadAddr := links.link(t, node.Addr(), nil)
	dead.SetBlackhole(true) // crashed-but-routable: every dial times out

	client, err := NewClient(ClientConfig{
		network: links,
		clock:   clk,
		Addrs:   []string{node.Addr(), deadAddr}, Mechanism: MechGreedy,
		PeriodMs: 20, MaxRetries: 5,
		breakerThreshold: 2, breakerCooldown: time.Minute,
		Timeout: 150 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	for qi := 0; qi < 12; qi++ {
		if out := client.Run(int64(qi), "SELECT COUNT(*) FROM t"); out.Err != nil {
			t.Fatalf("query %d: %v", qi, out.Err)
		}
	}
	// Threshold 2 and a one-minute window: exactly 2 timeouts total, no
	// matter how many queries ran.
	if got := dead.Dials(); got != 2 {
		t.Errorf("dead node was dialed %d times, want 2 (breaker threshold)", got)
	}
	health := client.Health()
	if got := health[metrics.BreakerOpenTotal]; got != 1 {
		t.Errorf("breaker_open_total = %g, want 1", got)
	}
}

// TestGracefulDrainFinishesInFlight drives the drain protocol on the
// node's fake clock: a query running when Close starts must complete,
// while new work is refused with the typed draining reply, and Close
// returns once the query's outcome is in — woken by it, not by a poll or
// a further advance.
func TestGracefulDrainFinishesInFlight(t *testing.T) {
	clk := newFakeClock()
	node := startSingleNode(t, func(cfg *NodeConfig) {
		cfg.MsPerCostUnit, cfg.DrainTimeout, cfg.clock = 3, 5*time.Second, clk
	})
	const sql = "SELECT COUNT(*) FROM t"
	_, estMs, _, err := node.estimate(sql)
	if err != nil {
		t.Fatal(err)
	}
	client, err := NewClient(ClientConfig{network: memWall, Addrs: []string{node.Addr()}, Mechanism: MechGreedy, Timeout: 2 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan Outcome, 1)
	go func() { done <- client.Run(1, sql) }()
	// The period and gossip tickers, then the executor's stretch: the
	// query is executing.
	clk.blockUntil(3)

	closed := make(chan struct{})
	go func() { node.Close(); close(closed) }()
	clk.blockUntil(4) // the drain's DrainTimeout timer: the drain has begun
	if !node.draining.Load() {
		t.Fatal("node not draining after Close started")
	}

	// New work during the drain: typed refusal, terminal for a
	// single-node federation.
	late, err := NewClient(ClientConfig{
		network: memWall,
		Addrs:   []string{node.Addr()}, Mechanism: MechGreedy,
		PeriodMs: 10, MaxRetries: 2, Timeout: 500 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	out2 := late.Run(2, sql)
	if out2.Err == nil {
		t.Error("draining node accepted new work")
	} else if msg := out2.Err.Error(); !strings.Contains(msg, "draining") && !strings.Contains(msg, "breaker open") {
		// Round one sees the typed draining reply (and trips the
		// breaker); later rounds may see the open breaker instead.
		t.Errorf("draining refusal not surfaced: %v", out2.Err)
	}
	select {
	case <-closed:
		t.Fatal("Close returned with a query still executing")
	default:
	}

	clk.advance(time.Duration(estMs * float64(time.Millisecond))) // the query's whole run
	out := <-done
	if out.Err != nil {
		t.Errorf("in-flight query killed by drain: %v", out.Err)
	}
	if out.ExecMs != estMs {
		t.Errorf("the query ran %gms on the node's clock, want its estimate %gms", out.ExecMs, estMs)
	}
	<-closed
	if got := node.health.Counter(metrics.DrainsTotal); got != 1 {
		t.Errorf("drains_total = %d, want 1", got)
	}
	if got := node.health.Counter(metrics.DrainTimeoutsTotal); got != 0 {
		t.Errorf("drain_timeouts_total = %d, want 0 (in-flight work fit the budget)", got)
	}
}

// TestAggregatedUnreachableError checks "no node reachable" names every
// node's failure instead of just the first one.
func TestAggregatedUnreachableError(t *testing.T) {
	client, err := NewClient(ClientConfig{
		network: memWall,
		Addrs:   []string{"127.0.0.1:1", "127.0.0.1:2"}, Mechanism: MechGreedy,
		PeriodMs: 10, MaxRetries: 1, Timeout: 200 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	out := client.Run(1, "SELECT 1 FROM t")
	if out.Err == nil {
		t.Fatal("dead federation produced a result")
	}
	msg := out.Err.Error()
	for _, want := range []string{"no node reachable", "node 127.0.0.1:1", "node 127.0.0.1:2"} {
		if !strings.Contains(msg, want) {
			t.Errorf("aggregate error missing %q: %v", want, msg)
		}
	}
}

// TestStatsHealthExposed verifies the failure-domain counters ride the
// existing stats op.
func TestStatsHealthExposed(t *testing.T) {
	node := startSingleNode(t, nil)
	client, err := NewClient(ClientConfig{network: memWall, Addrs: []string{node.Addr()}})
	if err != nil {
		t.Fatal(err)
	}
	node.noteCheckpoint()
	st, err := client.Stats(node.Addr())
	if err != nil {
		t.Fatal(err)
	}
	if st.Health == nil {
		t.Fatal("stats reply carries no health map")
	}
	if st.Health[metrics.CheckpointsTotal] != 1 {
		t.Errorf("checkpoints_total = %g, want 1", st.Health[metrics.CheckpointsTotal])
	}
	if age, ok := st.Health[metrics.CheckpointAgeMs]; !ok || age < 0 || age > 60_000 {
		t.Errorf("checkpoint_age_ms = %g (present=%v)", age, ok)
	}
}
