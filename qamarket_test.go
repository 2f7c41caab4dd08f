package qamarket_test

import (
	"math/rand"
	"testing"
	"time"

	qm "github.com/qamarket/qamarket"
)

// TestPublicFacadeMarket exercises the README quickstart through the
// public API.
func TestPublicFacadeMarket(t *testing.T) {
	set := qm.TimeBudgetSupplySet{Cost: []float64{400, 100}, Budget: 500}
	agent, err := qm.NewAgent(set, qm.DefaultAgentConfig(2))
	if err != nil {
		t.Fatal(err)
	}
	agent.BeginPeriod()
	if got := agent.PlannedSupply(); got.Total() != 5 {
		t.Fatalf("planned supply %v", got)
	}
	if !agent.Offer(1) {
		t.Fatal("offer refused")
	}
	if err := agent.Accept(1); err != nil {
		t.Fatal(err)
	}
	agent.EndPeriod()
}

// TestPublicFacadeSimulator runs a miniature end-to-end simulation via
// the façade only.
func TestPublicFacadeSimulator(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	p := qm.Table3Params()
	p.Nodes = 6
	p.Relations = 12
	p.AvgMirrors = 3
	p.HashJoinNodes = 5
	cat, err := qm.GenerateCatalog(p, rng)
	if err != nil {
		t.Fatal(err)
	}
	for _, n := range cat.Nodes {
		n.Holds[0] = true
	}
	ts := []qm.Template{{Class: 0, Relations: []int{0}, Selectivity: 1}}
	fed, err := qm.NewFederation(qm.SimConfig{
		Catalog: cat, Templates: ts, PeriodMs: 500,
	}, qm.NewQANTMechanism(qm.DefaultAgentConfig(1)))
	if err != nil {
		t.Fatal(err)
	}
	var arrivals []qm.Arrival
	for i := 0; i < 40; i++ {
		arrivals = append(arrivals, qm.Arrival{At: int64(i * 100), Class: 0, Origin: i % 6})
	}
	col, err := fed.Run(arrivals)
	if err != nil {
		t.Fatal(err)
	}
	if col.Completed()+col.Dropped() != 40 {
		t.Fatalf("accounting: %d+%d", col.Completed(), col.Dropped())
	}
	if cap := qm.EstimateCapacity(cat, ts, []float64{1}); cap <= 0 {
		t.Errorf("capacity %g", cap)
	}
}

// TestPublicFacadeFederation stands up a one-node federation via the
// façade.
func TestPublicFacadeFederation(t *testing.T) {
	db := qm.OpenDB()
	if _, _, err := db.Exec("CREATE TABLE t (a INT)"); err != nil {
		t.Fatal(err)
	}
	if _, _, err := db.Exec("INSERT INTO t VALUES (1), (2)"); err != nil {
		t.Fatal(err)
	}
	node, err := qm.StartNode("127.0.0.1:0", qm.NodeConfig{DB: db, MsPerCostUnit: 0.01})
	if err != nil {
		t.Fatal(err)
	}
	defer node.Close()
	client, err := qm.NewClient(qm.ClientConfig{
		Addrs: []string{node.Addr()}, Mechanism: qm.MechQANT,
		PeriodMs: 50, Timeout: 2 * time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	out := client.Run(1, "SELECT COUNT(*) FROM t")
	if out.Err != nil {
		t.Fatal(out.Err)
	}
	d := qm.NewDistributor(client)
	dr, err := d.Run(2, "SELECT a FROM t WHERE a = 1")
	if err != nil {
		t.Fatal(err)
	}
	if len(dr.Result.Rows) != 1 {
		t.Fatalf("distributor rows: %v", dr.Result.Rows)
	}
}
