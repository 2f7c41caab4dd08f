package cluster

import (
	"math/rand"
	"strings"
	"testing"
	"time"

	"github.com/qamarket/qamarket/internal/engine"
	"github.com/qamarket/qamarket/internal/market"
	"github.com/qamarket/qamarket/internal/sqldb"
)

// startTestFederation spins up n nodes over a small dataset with the
// given per-node slowdowns, on the in-memory network unless mutate names
// another. The time scale is compressed so the whole suite stays fast.
// mutate, when set, edits node i's config on top of these defaults
// before the node starts.
func startTestFederation(t *testing.T, slowdowns []float64, mutate func(i int, cfg *NodeConfig)) (*Dataset, []*Node, []string) {
	t.Helper()
	rng := rand.New(rand.NewSource(17))
	maxCopies := 3
	if maxCopies > len(slowdowns) {
		maxCopies = len(slowdowns)
	}
	minCopies := 2
	if minCopies > maxCopies {
		minCopies = maxCopies
	}
	p := DatasetParams{
		Nodes: len(slowdowns), Tables: 6, Views: 10, RowsPerTable: 60,
		MinCopies: minCopies, MaxCopies: maxCopies,
	}
	ds, err := GenerateDataset(p, rng)
	if err != nil {
		t.Fatalf("dataset: %v", err)
	}
	nodes := make([]*Node, len(slowdowns))
	addrs := make([]string, len(slowdowns))
	for i := range slowdowns {
		cfg := NodeConfig{
			Driver:        engine.FromDB(ds.DBs[i]),
			Slowdown:      slowdowns[i],
			MsPerCostUnit: 0.02,
			PeriodMs:      50,
			Market:        market.DefaultConfig(1),
		}
		if mutate != nil {
			mutate(i, &cfg)
		}
		onMem(&cfg)
		n, err := StartNode("127.0.0.1:0", cfg)
		if err != nil {
			t.Fatalf("node %d: %v", i, err)
		}
		nodes[i] = n
		addrs[i] = n.Addr()
		t.Cleanup(func() { n.Close() })
	}
	return ds, nodes, addrs
}

func TestDatasetShape(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	ds, err := GenerateDataset(Figure7Params(), rng)
	if err != nil {
		t.Fatalf("GenerateDataset: %v", err)
	}
	if len(ds.DBs) != 5 || len(ds.Relations) != 100 {
		t.Fatalf("dbs=%d relations=%d", len(ds.DBs), len(ds.Relations))
	}
	for _, rel := range ds.Relations {
		holders := ds.Holders[rel]
		if len(holders) < 1 || len(holders) > 4 {
			t.Errorf("%s has %d copies", rel, len(holders))
		}
		for _, n := range holders {
			if !ds.DBs[n].HasRelation(rel) {
				t.Errorf("node %d missing declared copy of %s", n, rel)
			}
		}
	}
	// Every view must be readable on each holder.
	for vi := 0; vi < 3; vi++ {
		name := viewName(vi)
		for _, n := range ds.Holders[name] {
			if _, err := ds.DBs[n].Query("SELECT COUNT(*) FROM " + name); err != nil {
				t.Errorf("view %s on node %d: %v", name, n, err)
			}
		}
	}
}

func TestDatasetRejectsBadParams(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	bad := []DatasetParams{
		{},
		{Nodes: 3, Tables: 2, RowsPerTable: 10, MinCopies: 0, MaxCopies: 2},
		{Nodes: 3, Tables: 2, RowsPerTable: 10, MinCopies: 2, MaxCopies: 1},
		{Nodes: 3, Tables: 2, RowsPerTable: 10, MinCopies: 2, MaxCopies: 5},
	}
	for i, p := range bad {
		if _, err := GenerateDataset(p, rng); err == nil {
			t.Errorf("bad params %d accepted", i)
		}
	}
}

func TestTemplatesAreEvaluableSomewhere(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	ds, err := GenerateDataset(DatasetParams{
		Nodes: 4, Tables: 6, Views: 8, RowsPerTable: 40, MinCopies: 2, MaxCopies: 3,
	}, rng)
	if err != nil {
		t.Fatal(err)
	}
	templates, err := ds.GenerateTemplates(10, 2, rng)
	if err != nil {
		t.Fatalf("templates: %v", err)
	}
	for ti, tpl := range templates {
		sql := tpl.Instantiate(rng)
		if !strings.Contains(sql, "GROUP BY") {
			t.Errorf("template %d not a group query: %s", ti, sql)
		}
		ok := false
		for _, db := range ds.DBs {
			if _, err := db.Query(sql); err == nil {
				ok = true
				break
			}
		}
		if !ok {
			t.Errorf("template %d evaluable nowhere: %s", ti, sql)
		}
	}
	// Same template, different constants, same plan signature.
	sqlA := templates[0].Instantiate(rng)
	sqlB := templates[0].Instantiate(rng)
	for _, db := range ds.DBs {
		pa, errA := db.Explain(sqlA)
		pb, errB := db.Explain(sqlB)
		if errA == nil && errB == nil && pa.Signature() != pb.Signature() {
			t.Error("same template produced different signatures")
		}
	}
}

func TestNegotiateExecuteRoundTrip(t *testing.T) {
	ds, nodes, addrs := startTestFederation(t, []float64{1, 1, 1}, nil)
	client, err := NewClient(ClientConfig{network: memWall, Addrs: addrs, Mechanism: MechGreedy, PeriodMs: 50})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(5))
	templates, err := ds.GenerateTemplates(3, 1, rng)
	if err != nil {
		t.Fatal(err)
	}
	out := client.Run(1, templates[0].Instantiate(rng))
	if out.Err != nil {
		t.Fatalf("Run: %v", out.Err)
	}
	known := false
	for _, n := range nodes {
		if out.Node == n.ID() {
			known = true
		}
	}
	if !known {
		t.Fatalf("bad node %q", out.Node)
	}
	if out.TotalMs <= 0 || out.AssignMs <= 0 {
		t.Errorf("timings: %+v", out)
	}
	total := 0
	for _, n := range nodes {
		total += n.Executed()
	}
	if total != 1 {
		t.Errorf("executed %d queries across nodes, want 1", total)
	}
}

func TestInfeasibleQueryFails(t *testing.T) {
	_, _, addrs := startTestFederation(t, []float64{1, 1}, nil)
	client, err := NewClient(ClientConfig{
		network: memWall,
		Addrs:   addrs, Mechanism: MechGreedy, PeriodMs: 20, MaxRetries: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	out := client.Run(1, "SELECT COUNT(*) FROM does_not_exist")
	if out.Err == nil {
		t.Fatal("query over a missing relation succeeded")
	}
}

func TestGreedyPrefersFastNode(t *testing.T) {
	// Node 0 is 10x slower: on an idle system the greedy client must
	// route to a fast replica whenever one holds the data.
	ds, nodes, addrs := startTestFederation(t, []float64{10, 1, 1}, nil)
	client, err := NewClient(ClientConfig{network: memWall, Addrs: addrs, Mechanism: MechGreedy, PeriodMs: 50})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(6))
	templates, err := ds.GenerateTemplates(5, 1, rng)
	if err != nil {
		t.Fatal(err)
	}
	slowOnly := 0
	for qi, tpl := range templates {
		// Skip templates only the slow node can answer.
		fastCan := false
		for _, rel := range tpl.Relations {
			_ = rel
		}
		sql := tpl.Instantiate(rng)
		out := client.Run(int64(qi), sql)
		if out.Err != nil {
			t.Fatalf("query %d: %v", qi, out.Err)
		}
		if out.Node == nodes[0].ID() {
			// Only legitimate if no fast node holds all relations.
			for _, db := range ds.DBs[1:] {
				if _, err := db.Query(sql); err == nil {
					fastCan = true
				}
			}
			if fastCan {
				slowOnly++
			}
		}
	}
	if slowOnly > 0 {
		t.Errorf("greedy sent %d queries to the slow node despite fast replicas", slowOnly)
	}
	_ = nodes
}

func TestQANTServesWorkload(t *testing.T) {
	clk := autoClock(t)
	ds, nodes, addrs := startTestFederation(t, []float64{1, 2, 4}, onClock(clk))
	client, err := NewClient(ClientConfig{
		network: newMemNet(clk),
		clock:   clk,
		Addrs:   addrs, Mechanism: MechQANT, PeriodMs: 50, MaxRetries: 100,
	})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(7))
	templates, err := ds.GenerateTemplates(4, 1, rng)
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan Outcome, 20)
	for qi := 0; qi < 20; qi++ {
		go func(qi int) {
			tpl := templates[qi%len(templates)]
			done <- client.Run(int64(qi), tpl.Instantiate(rand.New(rand.NewSource(int64(qi)))))
		}(qi)
		clk.sleep(10 * time.Millisecond)
	}
	completed := 0
	for i := 0; i < 20; i++ {
		out := <-done
		if out.Err != nil {
			t.Errorf("query %d failed: %v", out.QueryID, out.Err)
			continue
		}
		completed++
	}
	if completed < 18 {
		t.Fatalf("only %d/20 completed", completed)
	}
	total := 0
	for _, n := range nodes {
		total += n.Executed()
	}
	if total != completed {
		t.Errorf("nodes executed %d, clients saw %d", total, completed)
	}
	// The market must have tracked prices for the discovered classes.
	st, err := client.Stats(addrs[0])
	if err != nil {
		t.Fatalf("stats: %v", err)
	}
	if len(st.Market.Classes) == 0 {
		t.Error("node 0 learned no query classes")
	}
}

func TestHistoryEstimatorConverges(t *testing.T) {
	ds, _, addrs := startTestFederation(t, []float64{1}, nil)
	client, err := NewClient(ClientConfig{network: memWall, Addrs: addrs, Mechanism: MechGreedy, PeriodMs: 50})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(8))
	templates, err := ds.GenerateTemplates(1, 1, rng)
	if err != nil {
		t.Fatal(err)
	}
	sql := templates[0].Instantiate(rng)
	// First negotiation: estimate comes from the plan cost.
	pr1, _, err := client.neg.negotiate(0, sql, "", nil, time.Time{})
	if err != nil || pr1.best() == nil {
		t.Fatalf("negotiate: node=%v err=%v", pr1.best(), err)
	}
	if out := client.Run(1, sql); out.Err != nil {
		t.Fatalf("run: %v", out.Err)
	}
	// After an execution the estimate must come from history.
	var rep reply
	if err := client.rpcOn(client.lookup(addrs[0]), &request{Op: "negotiate", SQL: sql}, &rep, time.Second, nil, nil); err != nil {
		t.Fatal(err)
	}
	if rep.Negotiate == nil || !rep.Negotiate.FromCache {
		t.Error("estimate not served from execution history after a run")
	}
}

func TestLinkLatencySlowsNegotiation(t *testing.T) {
	db := sqldb.Open()
	if _, _, err := db.Exec("CREATE TABLE t (a INT)"); err != nil {
		t.Fatal(err)
	}
	if _, _, err := db.Exec("INSERT INTO t VALUES (1)"); err != nil {
		t.Fatal(err)
	}
	slow, err := StartNode("127.0.0.1:0", NodeConfig{
		network: memWall,
		Driver:  engine.FromDB(db), MsPerCostUnit: 0.01, PeriodMs: 50, LinkLatency: 60 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer slow.Close()
	client, err := NewClient(ClientConfig{network: memWall, Addrs: []string{slow.Addr()}, Mechanism: MechGreedy})
	if err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	if _, _, err := client.neg.negotiate(0, "SELECT a FROM t", "", nil, time.Time{}); err != nil {
		t.Fatal(err)
	}
	if elapsed := time.Since(start); elapsed < 50*time.Millisecond {
		t.Errorf("wireless link latency not applied: negotiation took %v", elapsed)
	}
}

func TestNodeCloseIsClean(t *testing.T) {
	db := sqldb.Open()
	if _, _, err := db.Exec("CREATE TABLE t (a INT)"); err != nil {
		t.Fatal(err)
	}
	n, err := StartNode("127.0.0.1:0", NodeConfig{network: memWall, Driver: engine.FromDB(db)})
	if err != nil {
		t.Fatal(err)
	}
	if err := n.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}
}

func TestClientConfigValidation(t *testing.T) {
	if _, err := NewClient(ClientConfig{network: memWall}); err == nil {
		t.Error("empty address list accepted")
	}
	c, err := NewClient(ClientConfig{network: memWall, Addrs: []string{"127.0.0.1:9"}})
	if err != nil {
		t.Fatal(err)
	}
	if c.cfg.Mechanism != MechGreedy || c.cfg.PeriodMs != 500 {
		t.Errorf("defaults not applied: %+v", c.cfg)
	}
}

func TestNodeConfigValidation(t *testing.T) {
	if _, err := StartNode("127.0.0.1:0", NodeConfig{network: memWall}); err == nil {
		t.Error("nil DB accepted")
	}
}
