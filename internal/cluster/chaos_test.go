package cluster

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"github.com/qamarket/qamarket/internal/engine"
	"github.com/qamarket/qamarket/internal/faultnet"
	"github.com/qamarket/qamarket/internal/market"
	"github.com/qamarket/qamarket/internal/metrics"
)

// TestChaosPartitionCrashRestart is the failure-domain acceptance test:
// a 3-node QA-NT federation where one node suffers a one-way partition
// that heals, and another crashes mid-workload and restarts from its
// checkpoint. Throughout, the client must keep completing queries
// (every relation has 2 copies, so any single outage leaves everything
// feasible), the breaker must bound how many timeouts the dead node
// charges, the restarted node must resume its checkpointed price
// table, and the nodes, both of node 2's incarnations counted, must
// have executed exactly the queries that completed.
func TestChaosPartitionCrashRestart(t *testing.T) {
	// On loopback TCP: this is the cluster test that keeps the fault
	// links, the crash and the restart on the kernel's sockets.
	ds, nodes, addrs := startTestFederation(t, []float64{1, 1, 1}, func(_ int, cfg *NodeConfig) { cfg.network = tcpNetwork{} })

	// Node 1 sits behind a partitionable link; node 2 behind a link that
	// will blackhole while the node is down (crashed-but-routable).
	links := newLinkNet(tcpNetwork{})
	p1, front1 := links.link(t, addrs[1], nil)
	p2, front2 := links.link(t, addrs[2], nil)

	ckptPath := filepath.Join(t.TempDir(), "node2.json")
	ckpt, err := StartCheckpointer(nodes[2], ckptPath, 25*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}

	const (
		timeout   = 200 * time.Millisecond
		threshold = 2
		cooldown  = 300 * time.Millisecond
	)
	client, err := NewClient(ClientConfig{
		network: links,
		Addrs:   []string{addrs[0], front1, front2}, Mechanism: MechQANT,
		PeriodMs: 20, maxBackoffMs: 160, MaxRetries: 300,
		breakerThreshold: threshold, breakerCooldown: cooldown,
		Timeout: timeout,
	})
	if err != nil {
		t.Fatal(err)
	}

	rng := rand.New(rand.NewSource(23))
	templates, err := ds.GenerateTemplates(4, 1, rng)
	if err != nil {
		t.Fatal(err)
	}

	var (
		crashStart    time.Time
		dialsAtCrash  int
		dialsInWindow int
		windowElapsed time.Duration
		fileState     []byte
		restarted     *Node
	)
	const total = 34
	completed, completedAfterRecovery := 0, 0
	for qi := 0; qi < total; qi++ {
		switch qi {
		case 8:
			// One-way partition: requests to node 1 vanish in flight.
			p1.Partition(faultnet.ClientToServer)
		case 16:
			p1.Heal()
		case 20:
			// Crash node 2 hard. The checkpointer's final write freezes
			// the market state the restart must resume.
			if err := ckpt.Stop(); err != nil {
				t.Fatal(err)
			}
			if fileState, err = os.ReadFile(ckptPath); err != nil {
				t.Fatal(err)
			}
			nodes[2].CloseNow()
			p2.SetBlackhole(true)
			crashStart = time.Now()
			dialsAtCrash = p2.Dials()
		case 27:
			// Restart node 2 over the same data on its address, resuming
			// the checkpoint. The long market period parks its price clock
			// so the resume assertion is not racing a period tick.
			windowElapsed = time.Since(crashStart)
			dialsInWindow = p2.Dials() - dialsAtCrash
			restarted, err = StartNode(addrs[2], NodeConfig{
				network: tcpNetwork{},
				Driver:  engine.FromDB(ds.DBs[2]), MsPerCostUnit: 0.02, PeriodMs: 60_000,
				Market: market.DefaultConfig(1),
			})
			if err != nil {
				t.Fatal(err)
			}
			defer restarted.Close()
			ok, err := RestoreNodeFromCheckpoint(restarted, ckptPath)
			if err != nil {
				t.Fatal(err)
			}
			if !ok {
				t.Fatal("checkpoint file vanished")
			}
			gotState, err := restarted.MarketState()
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(gotState, fileState) {
				t.Errorf("restarted node did not resume the checkpointed price table:\n got %s\nfile %s", gotState, fileState)
			}
			p2.SetBlackhole(false)
		}
		out := client.Run(int64(qi), templates[qi%len(templates)].Instantiate(rng))
		if out.Err != nil {
			// Every relation has two copies and at most one node is ever
			// down, so nothing is infeasible: any failure is a bug.
			t.Errorf("query %d failed: %v", qi, out.Err)
			continue
		}
		completed++
		if qi >= 27 {
			completedAfterRecovery++
		}
	}

	// Breaker economy: during the crash window the dead node may charge
	// at most `threshold` timeouts to open the circuit plus one half-open
	// probe per cooldown interval — not one timeout per query/round.
	maxDials := threshold + int(windowElapsed/cooldown) + 1
	if dialsInWindow > maxDials {
		t.Errorf("dead node dialed %d times in a %v window, want <= %d (threshold %d + probes)",
			dialsInWindow, windowElapsed, maxDials, threshold)
	}
	if dialsInWindow < 1 {
		t.Error("crash window saw no dials at all; fault injection not exercised")
	}

	health := client.Health()
	// Both faulted nodes must have tripped their breakers, and at least
	// one circuit must have re-closed after recovery (node 1 heals while
	// queries are still flowing).
	if got := health[metrics.BreakerOpenTotal]; got < 2 {
		t.Errorf("breaker_open_total = %g, want >= 2 (partition + crash)", got)
	}
	if got := health[metrics.BreakerCloseTotal]; got < 1 {
		t.Errorf("breaker_close_total = %g, want >= 1 (recovery re-closes the circuit)", got)
	}
	if completedAfterRecovery != total-27 {
		t.Errorf("only %d/%d queries completed after full recovery", completedAfterRecovery, total-27)
	}
	if executed := nodes[0].Executed() + nodes[1].Executed() + nodes[2].Executed() + restarted.Executed(); executed != completed {
		t.Errorf("nodes executed %d queries across both of node 2's incarnations, want the %d that completed", executed, completed)
	}
	t.Logf("window=%v dials=%d (cap %d) health=%v", windowElapsed, dialsInWindow, maxDials, health)
}

// soakTally classifies query outcomes the way a load tool does: typed
// sheds and expiries are the market refusing work; anything else that
// is not a completion is a lost query and fails the test on the spot.
type soakTally struct {
	mu                                sync.Mutex
	completed, shed, expired, untyped int
}

func (s *soakTally) classify(t *testing.T, phase string, out Outcome) {
	s.mu.Lock()
	defer s.mu.Unlock()
	switch {
	case out.Err == nil:
		s.completed++
	case errors.Is(out.Err, ErrExpired):
		s.expired++
	case errors.Is(out.Err, ErrOverloaded), errors.Is(out.Err, ErrRetryBudget):
		s.shed++
	default:
		s.untyped++
		t.Errorf("%s: query %d lost to an untyped failure: %v", phase, out.QueryID, out.Err)
	}
}

func (s *soakTally) String() string {
	return fmt.Sprintf("completed=%d shed=%d expired=%d untyped=%d", s.completed, s.shed, s.expired, s.untyped)
}

// TestChaosSoakExecutesOnce soaks the query-protection layer through
// five fault phases — a clean baseline, saturating overload under
// deadlines, severed execute replies, a one-way partition and a crash,
// and distributed joins around a refusing node with a severed fragment
// reply — and then audits the whole run: every query completed or was
// refused with a typed error, and the nodes executed exactly what the
// clients completed (two subqueries per join), so no query ran twice
// and no shed query ran in secret. Faults flip at fixed query indices
// and faultnet plans are pure functions of the connection index, so a
// failure reproduces.
func TestChaosSoakExecutesOnce(t *testing.T) {
	clk := autoClock(t)
	links := newLinkNet(newMemNet(clk))
	// Deliberately small capacity — one executor each, two admitted work
	// requests, a two-deep queue — so single-digit workers saturate a node.
	small := func(_ int, cfg *NodeConfig) { cfg.PeriodMs, cfg.MaxInflight, cfg.MaxQueue, cfg.clock = 20, 2, 2, clk }
	ds, nodes, addrs := startTestFederation(t, []float64{8, 10, 12}, small)
	nodeLinks := make([]*faultnet.Link, 3)
	fronts := make([]string, 3)
	for i, addr := range addrs {
		nodeLinks[i], fronts[i] = links.link(t, addr, nil)
	}
	var qid atomic.Int64

	// The fault phases need every query to survive one outage, and a join
	// is feasible only where all its relations are co-located.
	rng := rand.New(rand.NewSource(61))
	templates, err := ds.GenerateTemplates(6, 1, rng)
	if err != nil {
		t.Fatal(err)
	}
	var sqls []string
	for tries := 0; len(sqls) < 34 && tries < 4096; tries++ {
		sql := templates[tries%len(templates)].Instantiate(rng)
		feasible := 0
		for _, db := range ds.DBs {
			if _, err := db.Explain(sql); err == nil {
				feasible++
			}
		}
		if feasible >= 2 {
			sqls = append(sqls, sql)
		}
	}
	if len(sqls) < 34 {
		t.Fatalf("only %d/34 generated queries are feasible on 2+ nodes", len(sqls))
	}

	// A lost reply is retransmitted into the server's dedup window,
	// never renegotiated into a possible double execution; execRetries
	// gives the soak's severed lanes room to heal. Greedy: these slow
	// nodes would exceed a 20 ms period's supply and never offer, and
	// the subject here is the protection layer, not price dynamics.
	client, err := NewClient(ClientConfig{
		network:  links,
		clock:    clk,
		Addrs:    fronts,
		PeriodMs: 20, maxBackoffMs: 160, MaxRetries: 300,
		Timeout: 250 * time.Millisecond, breakerThreshold: 2,
		breakerCooldown: 300 * time.Millisecond,
		execRetries:     8,
		Jitter:          rand.New(rand.NewSource(63)),
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(client.Close)

	// Baseline: a clean federation completes everything.
	baseline := &soakTally{}
	for _, sql := range sqls[:10] {
		baseline.classify(t, "baseline", client.Run(qid.Add(1), sql))
	}
	if baseline.completed != 10 {
		t.Fatalf("baseline: %v, want 10 completed", baseline)
	}

	// Overload: eight closed-loop workers with a 300 ms end-to-end
	// deadline against one glacial node of their own. One execution burns
	// a large slice of the deadline, so the backlog must shed with typed
	// expiries and the two-request gate with typed overload refusals.
	ods, slow, slowAddr := startTestFederation(t, []float64{30}, small)
	otemplates, err := ods.GenerateTemplates(4, 1, rng)
	if err != nil {
		t.Fatal(err)
	}
	oc, err := NewClient(ClientConfig{
		network:  newMemNet(clk),
		clock:    clk,
		Addrs:    slowAddr,
		PeriodMs: 20, MaxRetries: 300,
		Timeout: 250 * time.Millisecond, breakerThreshold: 100,
		execRetries:  8,
		QueryTimeout: 300 * time.Millisecond,
		RetryBudget:  200, retryBurst: 64,
		Jitter: rand.New(rand.NewSource(64)),
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(oc.Close)
	osqls := make([]string, 24)
	for i := range osqls {
		osqls[i] = otemplates[i%len(otemplates)].Instantiate(rng)
	}
	overload := &soakTally{}
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(mine []string) {
			defer wg.Done()
			for _, sql := range mine {
				overload.classify(t, "overload", oc.Run(qid.Add(1), sql))
			}
		}(osqls[3*w : 3*w+3])
	}
	wg.Wait()
	if overload.shed+overload.expired == 0 {
		t.Fatalf("overload: 24 queries against a saturated node shed none with a typed refusal: %v", overload)
	}

	// Severed replies: a one-node lane whose link cuts every execute
	// reply after one byte. Each query runs on a client of its own, so its
	// connections are the triple [control: negotiate, data: execute (cut
	// one byte past the hello's answer), data: retransmit], and the
	// retransmit must be answered from the node's dedup window.
	_, cut := links.link(t, addrs[0], func(conn int) faultnet.Plan {
		if conn%3 == 1 {
			return faultnet.Plan{TruncateReplyAfter: helloBytes(t, nodes[0]) + 1}
		}
		return faultnet.Plan{}
	})
	tabs := ds.DBs[0].Tables() // the lane sees node 0 alone
	severed := &soakTally{}
	for i := 0; i < 3; i++ {
		dc, err := NewClient(ClientConfig{
			network:  links,
			clock:    clk,
			Addrs:    []string{cut},
			PeriodMs: 20, Timeout: 2 * time.Second,
			execRetries: 4,
			Jitter:      rand.New(rand.NewSource(65)),
		})
		if err != nil {
			t.Fatal(err)
		}
		severed.classify(t, "severed reply", dc.Run(qid.Add(1), "SELECT * FROM "+tabs[i%len(tabs)]))
		dc.Close()
	}
	if severed.completed != 3 {
		t.Fatalf("severed reply: %v, want 3 completed", severed)
	}

	// Partition and crash on the soak client: node 1 drops into a one-way
	// partition that heals, then node 2's streams are severed and its
	// dials refused until it "recovers". Every relation has two copies,
	// so every query must still complete.
	outage := &soakTally{}
	for i, sql := range sqls[10:34] {
		switch i {
		case 4:
			nodeLinks[1].Partition(faultnet.ClientToServer)
		case 10:
			nodeLinks[1].Heal()
		case 14:
			nodeLinks[2].Sever()
			nodeLinks[2].SetRefuse(true)
		case 20:
			nodeLinks[2].SetRefuse(false)
		}
		outage.classify(t, "partition+crash", client.Run(qid.Add(1), sql))
	}
	if outage.completed != 24 {
		t.Fatalf("partition+crash: %v, want 24 completed", outage)
	}

	// Distributed joins go through the same lifecycle, so the same
	// protection holds for their fragments. big lives on b0 and b1, dim
	// on d0 and d1, so no node answers the join whole. The faster big
	// node b0 refuses every connection for the first half of the lane;
	// the faster dim node d0 has its first fragment reply cut after one
	// byte. d0's data lane is warmed before the first join, so its
	// connections 0 and 1 are the data lane's two slots: the first dim
	// fetch rides connection 0, cut one byte past the hello's answer, and
	// its retransmit rides connection 1.
	const big = `CREATE TABLE big (id INT, k INT, v FLOAT);
		INSERT INTO big VALUES (1, 1, 5.0), (2, 1, 7.5), (3, 2, 1.0), (4, 3, 9.0), (5, 3, 2.5), (6, 4, 4.0)`
	const dim = `CREATE TABLE dim (k INT, name TEXT);
		INSERT INTO dim VALUES (1, 'ada'), (2, 'bob'), (3, 'cyd'), (4, 'dee')`
	_, split, splitAddrs := startTestFederation(t, []float64{1, 20, 1, 20}, func(i int, cfg *NodeConfig) {
		cfg.Driver = engine.FromDB(loadScripts(t, []string{big, big, dim, dim}[i]))
		cfg.MsPerCostUnit, cfg.PeriodMs, cfg.clock = 0.05, 20, clk
	})
	b0, b0Front := links.link(t, splitAddrs[0], nil)
	_, d0Front := links.link(t, splitAddrs[2], func(conn int) faultnet.Plan {
		if conn == 0 {
			return faultnet.Plan{TruncateReplyAfter: helloBytes(t, split[2]) + 1}
		}
		return faultnet.Plan{}
	})
	jc, err := NewClient(ClientConfig{
		network:  links,
		clock:    clk,
		Addrs:    []string{b0Front, splitAddrs[1], d0Front, splitAddrs[3]},
		PeriodMs: 20, maxBackoffMs: 160, MaxRetries: 300,
		Timeout: 250 * time.Millisecond, breakerThreshold: 2,
		breakerCooldown: 300 * time.Millisecond,
		execRetries:     4,
		Jitter:          rand.New(rand.NewSource(67)),
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(jc.Close)
	jc.warmLane(t, jc.lookup(d0Front), "fetch")
	d := NewDistributor(jc)
	joins := &soakTally{}
	b0.SetRefuse(true)
	for i := 0; i < 8; i++ {
		if i == 4 {
			b0.SetRefuse(false)
		}
		id := qid.Add(1)
		out, err := d.Run(id, `SELECT dim.name, SUM(big.v) AS total FROM big
			JOIN dim ON big.k = dim.k GROUP BY dim.name ORDER BY dim.name`)
		if err == nil && (out.Subqueries != 2 || len(out.Result.Rows) != 4) {
			t.Errorf("join %d returned %d rows from %d subqueries, want 4 from 2", id, len(out.Result.Rows), out.Subqueries)
		}
		joins.classify(t, "distributed", Outcome{QueryID: id, Err: err})
	}
	if joins.completed != 8 {
		t.Fatalf("distributed: %v, want 8 joins completed", joins)
	}
	if hits := split[2].health.Snapshot()[metrics.DedupHitsTotal]; hits < 1 {
		t.Error("the severed fragment reply was not answered from d0's dedup window")
	}

	// The audit over every phase.
	executed := 0
	for _, n := range append(append(append([]*Node(nil), nodes...), slow...), split...) {
		executed += n.Executed()
	}
	completed := baseline.completed + overload.completed + severed.completed + outage.completed + joins.completed
	if executed != completed+joins.completed {
		t.Fatalf("nodes executed %d queries but clients completed %d, %d of them two-fragment joins: a query ran twice or shed work executed",
			executed, completed, joins.completed)
	}
	t.Logf("overload %v; executed once: %d", overload, executed)
}
