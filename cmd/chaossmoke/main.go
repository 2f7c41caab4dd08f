// Command chaossmoke is the query-protection soak `make ci` runs: an
// in-process federation behind faultnet proxies driven through five
// fault phases — clean baseline, saturating overload with deadlines,
// asymmetric partition windows, a node crash with failover, and
// distributed joins over a split federation with a refusing node and a
// severed fragment reply — while every query outcome is classified and
// three invariants are asserted at the end:
//
//  1. No query executes twice: the nodes' executed counters sum to
//     exactly the number of completed queries — two subqueries per
//     completed distributed join — (at-most-once held, and no shed
//     query secretly ran).
//  2. No accepted query is lost: zero hard failures across all phases;
//     every non-completed query carries a typed shed/expired error.
//  3. Shedding is observable: the overload phase produced typed
//     refusals, not timeouts or breaker trips.
//
// The fault schedule is deterministic — faults flip at fixed query
// indices and per-connection faultnet plans are pure functions of the
// connection index — so a failure reproduces exactly. Exit status 0
// means every invariant held.
package main

import (
	"errors"
	"fmt"
	"math/rand"
	"os"
	"sync"
	"sync/atomic"
	"time"

	"github.com/qamarket/qamarket/internal/cluster"
	"github.com/qamarket/qamarket/internal/faultnet"
	"github.com/qamarket/qamarket/internal/market"
	"github.com/qamarket/qamarket/internal/sqldb"
)

// tally aggregates classified query outcomes across all phases.
type tally struct {
	completed atomic.Int64
	shed      atomic.Int64
	expired   atomic.Int64
	failed    atomic.Int64
}

// classify folds one Run outcome into the tally, treating typed
// protection errors as shed work and anything else as a hard failure.
func (t *tally) classify(phase string, out cluster.Outcome) {
	switch {
	case out.Err == nil:
		t.completed.Add(1)
	case errors.Is(out.Err, cluster.ErrExpired):
		t.expired.Add(1)
	case errors.Is(out.Err, cluster.ErrOverloaded), errors.Is(out.Err, cluster.ErrRetryBudget):
		t.shed.Add(1)
	default:
		t.failed.Add(1)
		fmt.Fprintf(os.Stderr, "chaossmoke: %s: query %d hard failure: %v\n", phase, out.QueryID, out.Err)
	}
}

func main() {
	start := time.Now()
	rng := rand.New(rand.NewSource(61))
	ds, err := cluster.GenerateDataset(cluster.DatasetParams{
		Nodes: 3, Tables: 6, Views: 8, RowsPerTable: 40,
		MinCopies: 2, MaxCopies: 3,
	}, rng)
	if err != nil {
		die("dataset: %v", err)
	}
	// Deliberately small capacity: one executor each, two admitted work
	// requests, a two-deep queue — so the overload phase saturates with
	// single-digit workers instead of hundreds.
	var nodes []*cluster.Node
	var proxies []*faultnet.Proxy
	for i := 0; i < 3; i++ {
		n, err := cluster.StartNode("127.0.0.1:0", cluster.NodeConfig{
			DB:            ds.DBs[i],
			Slowdown:      8 + 2*float64(i),
			MsPerCostUnit: 0.02,
			PeriodMs:      20,
			MaxInflight:   2,
			MaxQueue:      2,
			Market:        market.DefaultConfig(1),
		})
		if err != nil {
			die("node %d: %v", i, err)
		}
		defer n.Close()
		p, err := faultnet.Start("127.0.0.1:0", n.Addr(), nil)
		if err != nil {
			die("proxy %d: %v", i, err)
		}
		defer p.Close()
		nodes = append(nodes, n)
		proxies = append(proxies, p)
	}
	addrs := []string{proxies[0].Addr(), proxies[1].Addr(), proxies[2].Addr()}

	templates, err := ds.GenerateTemplates(6, 1, rng)
	if err != nil {
		die("templates: %v", err)
	}
	// Keep only queries at least two nodes can evaluate: a join is
	// feasible only where ALL its relations are co-located, so even
	// with 2 copies per relation some joins live on a single node —
	// and the fault phases need every query to survive one outage.
	qrng := rand.New(rand.NewSource(62))
	var sqls []string
	for tries := 0; len(sqls) < 96 && tries < 4096; tries++ {
		sql := templates[tries%len(templates)].Instantiate(qrng)
		feasible := 0
		for i := 0; i < 3; i++ {
			if _, err := ds.DBs[i].Explain(sql); err == nil {
				feasible++
			}
		}
		if feasible >= 2 {
			sqls = append(sqls, sql)
		}
	}
	if len(sqls) < 96 {
		die("only %d/96 generated queries are feasible on 2+ nodes", len(sqls))
	}

	var counts tally
	var qid atomic.Int64

	// The soak client: at-most-once, so a lost reply is retransmitted
	// into the server's dedup window instead of renegotiated into a
	// possible double execution. Greedy allocation, not QA-NT: these
	// deliberately slow nodes would exceed a 20ms market period's
	// supply and never offer, and the soak's subject is the protection
	// layer, not price dynamics.
	client, err := cluster.NewClient(cluster.ClientConfig{
		Addrs:    addrs,
		PeriodMs: 20, MaxBackoffMs: 160, MaxRetries: 300,
		Timeout: 250 * time.Millisecond, BreakerThreshold: 2,
		BreakerCooldown: 300 * time.Millisecond,
		AtMostOnce:      true, ExecRetries: 8,
		Jitter: rand.New(rand.NewSource(63)),
	})
	if err != nil {
		die("client: %v", err)
	}
	defer client.Close()

	// Phase 1 — baseline: a clean federation must complete everything.
	for i := 0; i < 10; i++ {
		counts.classify("baseline", client.Run(qid.Add(1), sqls[i]))
	}
	if got := counts.completed.Load(); got != 10 {
		die("baseline: %d/10 completed, shed=%d expired=%d failed=%d",
			got, counts.shed.Load(), counts.expired.Load(), counts.failed.Load())
	}
	fmt.Printf("chaossmoke: baseline ok (%d queries)\n", counts.completed.Load())

	// Phase 2 — overload: eight closed-loop workers with an end-to-end
	// deadline against one deliberately glacial single-executor node
	// (own dataset, so its executor shares nothing with the soak
	// federation). A single query's execution burns a large slice of the
	// 300ms deadline, so with eight workers the backlog arithmetic
	// guarantees typed expired sheds at negotiate, and the tiny
	// MaxInflight gate guarantees typed overload refusals — anything
	// that is neither completed nor typed-shed is an invariant
	// violation.
	ods, err := cluster.GenerateDataset(cluster.DatasetParams{
		Nodes: 1, Tables: 4, Views: 6, RowsPerTable: 40,
		MinCopies: 1, MaxCopies: 1,
	}, rng)
	if err != nil {
		die("overload dataset: %v", err)
	}
	slow, err := cluster.StartNode("127.0.0.1:0", cluster.NodeConfig{
		DB:            ods.DBs[0],
		Slowdown:      60,
		MsPerCostUnit: 0.02,
		PeriodMs:      20,
		MaxInflight:   2,
		MaxQueue:      2,
		Market:        market.DefaultConfig(1),
	})
	if err != nil {
		die("overload node: %v", err)
	}
	defer slow.Close()
	otemplates, err := ods.GenerateTemplates(4, 1, rng)
	if err != nil {
		die("overload templates: %v", err)
	}
	before := counts.snapshot()
	var wg sync.WaitGroup
	oc, err := cluster.NewClient(cluster.ClientConfig{
		Addrs:    []string{slow.Addr()},
		PeriodMs: 20, MaxRetries: 300,
		Timeout: 250 * time.Millisecond, BreakerThreshold: 100,
		AtMostOnce: true, ExecRetries: 8,
		QueryTimeout: 300 * time.Millisecond,
		RetryBudget:  200, RetryBurst: 64,
		Jitter: rand.New(rand.NewSource(64)),
	})
	if err != nil {
		die("overload client: %v", err)
	}
	orng := rand.New(rand.NewSource(66))
	osqls := make([]string, 24)
	for i := range osqls {
		osqls[i] = otemplates[i%len(otemplates)].Instantiate(orng)
	}
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for q := 0; q < 3; q++ {
				counts.classify("overload", oc.Run(qid.Add(1), osqls[3*w+q]))
			}
		}(w)
	}
	wg.Wait()
	oc.Close()
	od := counts.delta(before)
	if od.shed+od.expired == 0 {
		die("overload: 24 queries against a saturated node produced no typed sheds (completed=%d failed=%d)", od.completed, od.failed)
	}
	if od.failed > 0 {
		die("overload: %d hard failures; refusals must be typed, not broken", od.failed)
	}
	fmt.Printf("chaossmoke: overload ok (completed=%d shed=%d expired=%d)\n", od.completed, od.shed, od.expired)

	// Phase 3 — severed replies: a dedicated one-node lane whose proxy
	// truncates every first execute reply after one byte. The client's
	// retransmit must be answered from the node's dedup window — the
	// executed-once invariant at the end proves no query ran twice.
	// Connection arithmetic (fresh transport, one node): each query is
	// conn triples [negotiate, execute (truncated), retransmit].
	sp, err := faultnet.Start("127.0.0.1:0", nodes[0].Addr(), func(conn int) faultnet.Plan {
		if conn%3 == 1 {
			return faultnet.Plan{TruncateReplyAfter: 1}
		}
		return faultnet.Plan{}
	})
	if err != nil {
		die("sever proxy: %v", err)
	}
	defer sp.Close()
	dc, err := cluster.NewClient(cluster.ClientConfig{
		Addrs: []string{sp.Addr()}, Transport: cluster.TransportFresh,
		PeriodMs: 20, Timeout: 2 * time.Second,
		AtMostOnce: true, ExecRetries: 4,
		Jitter: rand.New(rand.NewSource(65)),
	})
	if err != nil {
		die("sever client: %v", err)
	}
	// This lane sees only node 0, so queries must come from relations it
	// actually hosts (the dataset places only 2 copies of each).
	tabs := ds.DBs[0].Tables()
	before = counts.snapshot()
	for i := 0; i < 3; i++ {
		counts.classify("severed-reply", dc.Run(qid.Add(1), "SELECT * FROM "+tabs[i%len(tabs)]))
	}
	dc.Close()
	sd := counts.delta(before)
	if sd.completed != 3 {
		die("severed-reply: %d/3 completed (shed=%d expired=%d failed=%d)", sd.completed, sd.shed, sd.expired, sd.failed)
	}
	fmt.Printf("chaossmoke: severed replies ok (%d retransmits deduped)\n", sd.completed)

	// Phase 4 — partition + crash + failover, on the soak client. Node 1
	// drops into a one-way partition that heals; node 2 then "crashes"
	// (all streams severed, new dials refused) and later recovers. Every
	// relation has at least two copies, so nothing is infeasible and
	// every query must still complete.
	before = counts.snapshot()
	for i := 0; i < 24; i++ {
		switch i {
		case 4:
			proxies[1].Partition(faultnet.ClientToServer)
		case 10:
			proxies[1].Heal()
		case 14:
			proxies[2].Sever()
			proxies[2].SetRefuse(true)
		case 20:
			proxies[2].SetRefuse(false)
		}
		counts.classify("partition+crash", client.Run(qid.Add(1), sqls[50+i]))
	}
	pd := counts.delta(before)
	if pd.completed != 24 {
		die("partition+crash: %d/24 completed (shed=%d expired=%d failed=%d)", pd.completed, pd.shed, pd.expired, pd.failed)
	}
	fmt.Printf("chaossmoke: partition+crash ok (%d queries through the faults)\n", pd.completed)

	// Phase 5 — distributed joins. The Distributor's subqueries go
	// through the same lifecycle as everything above, so the same
	// protection must hold for them: big lives on two nodes and dim on
	// the other two (no node can answer the join), the faster big node
	// refuses every connection for the first half of the lane, and the
	// faster dim node's first fragment reply is cut after one byte.
	joins, splitExecuted := distributedLane(&counts, &qid)

	// Global invariants over every phase.
	executed := slow.Executed() + splitExecuted
	for _, n := range nodes {
		executed += n.Executed()
	}
	completed := counts.completed.Load()
	if int64(executed) != completed+joins {
		die("INVARIANT: nodes executed %d queries but clients completed %d (%d of them two-fragment joins) — a query ran twice or shed work executed", executed, completed, joins)
	}
	if failed := counts.failed.Load(); failed != 0 {
		die("INVARIANT: %d accepted queries lost to untyped failures", failed)
	}
	fmt.Printf("chaossmoke: ok in %v — completed=%d shed=%d expired=%d, executed-once=%d\n",
		time.Since(start).Round(time.Millisecond), completed, counts.shed.Load(), counts.expired.Load(), executed)
}

// distributedLane runs the Distributor phase on its own split
// federation and returns the joins completed and the subqueries its
// nodes executed. Connection arithmetic for the severed reply (fresh
// transport, dim node d0 always outbids d1): the first join reaches d0
// as conn 0 whole-query negotiate, 1 big-subquery negotiate, 2
// dim-subquery negotiate, 3 the dim fetch — the one that is cut.
func distributedLane(counts *tally, qid *atomic.Int64) (joins int64, executed int) {
	seed := func(ddl ...string) *sqldb.DB {
		db := sqldb.Open()
		for _, q := range ddl {
			if _, _, err := db.Exec(q); err != nil {
				die("distributed seed %q: %v", q, err)
			}
		}
		return db
	}
	big := []string{
		"CREATE TABLE big (id INT, k INT, v FLOAT)",
		"INSERT INTO big VALUES (1, 1, 5.0), (2, 1, 7.5), (3, 2, 1.0), (4, 3, 9.0), (5, 3, 2.5), (6, 4, 4.0)",
	}
	dim := []string{
		"CREATE TABLE dim (k INT, name TEXT)",
		"INSERT INTO dim VALUES (1, 'ada'), (2, 'bob'), (3, 'cyd'), (4, 'dee')",
	}
	layout := []struct {
		ddl      []string
		slowdown float64
		plan     faultnet.Schedule
	}{
		{ddl: big, slowdown: 1},  // b0: wins big, refuses connections at first
		{ddl: big, slowdown: 20}, // b1: the runner-up that must carry big meanwhile
		{ddl: dim, slowdown: 1, plan: func(conn int) faultnet.Plan { // d0: wins dim
			if conn == 3 {
				return faultnet.Plan{TruncateReplyAfter: 1}
			}
			return faultnet.Plan{}
		}},
		{ddl: dim, slowdown: 20}, // d1
	}
	var nodes []*cluster.Node
	var proxies []*faultnet.Proxy
	var addrs []string
	for i, l := range layout {
		n, err := cluster.StartNode("127.0.0.1:0", cluster.NodeConfig{
			DB: seed(l.ddl...), Slowdown: l.slowdown, MsPerCostUnit: 0.05, PeriodMs: 20,
		})
		if err != nil {
			die("distributed node %d: %v", i, err)
		}
		defer n.Close()
		p, err := faultnet.Start("127.0.0.1:0", n.Addr(), l.plan)
		if err != nil {
			die("distributed proxy %d: %v", i, err)
		}
		defer p.Close()
		nodes, proxies, addrs = append(nodes, n), append(proxies, p), append(addrs, p.Addr())
	}
	client, err := cluster.NewClient(cluster.ClientConfig{
		Addrs: addrs, Transport: cluster.TransportFresh,
		PeriodMs: 20, MaxBackoffMs: 160, MaxRetries: 300,
		Timeout: 250 * time.Millisecond, BreakerThreshold: 2,
		BreakerCooldown: 300 * time.Millisecond,
		AtMostOnce:      true, ExecRetries: 4,
		Jitter: rand.New(rand.NewSource(67)),
	})
	if err != nil {
		die("distributed client: %v", err)
	}
	defer client.Close()
	d := cluster.NewDistributor(client)
	before := counts.snapshot()
	const total = 8
	proxies[0].SetRefuse(true)
	for i := 0; i < total; i++ {
		if i == total/2 {
			proxies[0].SetRefuse(false)
		}
		id := qid.Add(1)
		out, err := d.Run(id, `SELECT dim.name, SUM(big.v) AS total FROM big
			JOIN dim ON big.k = dim.k GROUP BY dim.name ORDER BY dim.name`)
		if err == nil && (out.Subqueries != 2 || len(out.Result.Rows) != 4) {
			err = fmt.Errorf("join returned %d rows from %d subqueries, want 4 from 2", len(out.Result.Rows), out.Subqueries)
		}
		counts.classify("distributed", cluster.Outcome{QueryID: id, Err: err})
	}
	dd := counts.delta(before)
	if dd.completed != total {
		die("distributed: %d/%d joins completed (shed=%d expired=%d failed=%d)", dd.completed, total, dd.shed, dd.expired, dd.failed)
	}
	st, err := client.Stats(addrs[2])
	if err != nil {
		die("distributed: stats from d0: %v", err)
	}
	if st.Health["dedup_hits_total"] < 1 {
		die("distributed: the severed fragment reply was not answered from d0's dedup window")
	}
	for _, n := range nodes {
		executed += n.Executed()
	}
	fmt.Printf("chaossmoke: distributed ok (%d joins around a refusing node, %d dedup replays, %d subqueries executed)\n",
		dd.completed, int(st.Health["dedup_hits_total"]), executed)
	return dd.completed, executed
}

// snapshot and delta let phases assert over their own slice of the
// shared tally.
type snap struct{ completed, shed, expired, failed int64 }

func (t *tally) snapshot() snap {
	return snap{t.completed.Load(), t.shed.Load(), t.expired.Load(), t.failed.Load()}
}

func (t *tally) delta(s snap) snap {
	now := t.snapshot()
	return snap{now.completed - s.completed, now.shed - s.shed, now.expired - s.expired, now.failed - s.failed}
}

func die(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "chaossmoke: "+format+"\n", args...)
	os.Exit(1)
}
