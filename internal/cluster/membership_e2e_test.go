package cluster

import (
	"math/rand"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"github.com/qamarket/qamarket/internal/engine"
	"github.com/qamarket/qamarket/internal/sqldb"
)

// startGossipNode is startTestFederation's membership-aware sibling:
// explicit node ID, join seeds, and a compressed gossip period on clk,
// over the in-memory network. mutate, when set, edits the config on top
// of these defaults.
func startGossipNode(t *testing.T, clk *fakeClock, db *sqldb.DB, id string, seeds []string, slowdown float64, mutate func(*NodeConfig)) *Node {
	t.Helper()
	cfg := NodeConfig{
		clock:          clk,
		Driver:         engine.FromDB(db),
		Slowdown:       slowdown,
		MsPerCostUnit:  0.01,
		PeriodMs:       25,
		NodeID:         id,
		Seeds:          seeds,
		GossipPeriodMs: 15,
	}
	if mutate != nil {
		mutate(&cfg)
	}
	onMem(&cfg)
	n, err := StartNode("127.0.0.1:0", cfg)
	if err != nil {
		t.Fatalf("node %s: %v", id, err)
	}
	t.Cleanup(func() { n.Close() })
	return n
}

// liveIDs snapshots the IDs a node currently lists as live.
func liveIDs(n *Node) map[string]bool {
	out := make(map[string]bool)
	for _, m := range n.Members() {
		if m.State.Live() {
			out[m.ID] = true
		}
	}
	return out
}

// clientHasLive reports whether the client's view holds the member in a
// live gossiped state.
func clientHasLive(c *Client, id string) bool {
	for _, m := range c.Members() {
		if m.ID == id && (m.State == "alive" || m.State == "suspect") {
			return true
		}
	}
	return false
}

func clientHas(c *Client, id string) bool {
	for _, m := range c.Members() {
		if m.ID == id {
			return true
		}
	}
	return false
}

// everyTable reports whether each node's table lists exactly the given
// members as live.
func everyTable(nodes []*Node, live ...string) bool {
	for _, n := range nodes {
		ids := liveIDs(n)
		if len(ids) != len(live) {
			return false
		}
		for _, id := range live {
			if !ids[id] {
				return false
			}
		}
	}
	return true
}

// TestChurnJoinAndEviction is the end-to-end acceptance scenario: a
// client seeded with a single address discovers a 3-node federation
// through gossip, a 4th (faster) node joins live and starts receiving
// allocations with no client restart, and a crashed node is suspected,
// evicted, and pruned from the client's view within bounded gossip
// rounds. Each step must converge on every member's table, not just on
// the seed's.
func TestChurnJoinAndEviction(t *testing.T) {
	clk := newFakeClock()
	clk.autoAdvance(t)
	rng := rand.New(rand.NewSource(17))
	ds, err := GenerateDataset(DatasetParams{
		Nodes: 4, Tables: 6, Views: 10, RowsPerTable: 60,
		MinCopies: 3, MaxCopies: 4,
	}, rng)
	if err != nil {
		t.Fatalf("dataset: %v", err)
	}

	// Founding members: n0 starts a federation of one, n1 and n2 join it.
	n0 := startGossipNode(t, clk, ds.DBs[0], "n0", nil, 4, nil)
	n1 := startGossipNode(t, clk, ds.DBs[1], "n1", []string{n0.Addr()}, 4, nil)
	n2 := startGossipNode(t, clk, ds.DBs[2], "n2", []string{n0.Addr()}, 4, nil)
	waitFor(t, clk, 5*time.Second, func() bool { return everyTable([]*Node{n0, n1, n2}, "n0", "n1", "n2") },
		"founding members never converged on every founder's table")

	// The client knows one seed address; gossip must hand it the rest.
	client, err := NewClient(ClientConfig{
		network:     newMemNet(clk),
		clock:       clk,
		Addrs:       []string{n0.Addr()},
		Mechanism:   MechGreedy,
		PeriodMs:    25,
		MaxRetries:  50,
		Timeout:     2 * time.Second,
		ViewRefresh: 20 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()
	waitFor(t, clk, 5*time.Second, func() bool {
		return clientHasLive(client, "n1") && clientHasLive(client, "n2")
	}, "client never discovered n1/n2 from its single seed")

	templates, err := ds.GenerateTemplates(4, 1, rng)
	if err != nil {
		t.Fatal(err)
	}
	for qi := 0; qi < 6; qi++ {
		if out := client.Run(int64(qi), templates[qi%len(templates)].Instantiate(rng)); out.Err != nil {
			t.Fatalf("pre-join query %d: %v", qi, out.Err)
		}
	}

	// Elastic entry: a faster node joins the live market. The client must
	// pick it up and start routing work to it without a restart.
	n3 := startGossipNode(t, clk, ds.DBs[3], "n3", []string{n0.Addr()}, 1, nil)
	waitFor(t, clk, 5*time.Second, func() bool { return everyTable([]*Node{n0, n1, n2, n3}, "n0", "n1", "n2", "n3") },
		"late joiner n3 never converged on every table")
	waitFor(t, clk, 5*time.Second, func() bool { return clientHasLive(client, "n3") },
		"client never discovered the late joiner n3")
	for _, m := range client.Members() {
		if m.ID == "n3" && m.CatalogDigest == "" {
			t.Error("joiner's catalog digest not gossiped to the client")
		}
	}
	joinerHits := 0
	for qi := 100; qi < 120; qi++ {
		out := client.Run(int64(qi), templates[qi%len(templates)].Instantiate(rng))
		if out.Err != nil {
			t.Fatalf("post-join query %d: %v", qi, out.Err)
		}
		if out.Node == "n3" {
			joinerHits++
		}
	}
	if joinerHits == 0 {
		t.Error("the fast late joiner received no allocations")
	}
	t.Logf("late joiner n3 took %d/20 post-join queries", joinerHits)

	// Crash (no drain, no goodbye): the failure detector must suspect
	// and evict n1, and the client view must follow.
	n1.CloseNow()
	waitFor(t, clk, 10*time.Second, func() bool { return everyTable([]*Node{n0, n2, n3}, "n0", "n2", "n3") },
		"crashed n1 never evicted from every survivor's table")
	waitFor(t, clk, 10*time.Second, func() bool { return !clientHas(client, "n1") },
		"crashed n1 never pruned from the client view")

	// The surviving market keeps serving, and nothing lands on the corpse.
	completed := 0
	for qi := 200; qi < 212; qi++ {
		out := client.Run(int64(qi), templates[qi%len(templates)].Instantiate(rng))
		if out.Err != nil {
			continue // relations hosted only on n1 fail legitimately
		}
		if out.Node == "n1" {
			t.Errorf("query %d allocated to the evicted node", qi)
		}
		completed++
	}
	if completed < 8 {
		t.Errorf("only %d/12 queries completed after eviction", completed)
	}
}

// TestGracefulLeavePrunesBeforeEviction: a drained departure announces
// itself, so peers mark the node left (not merely suspect) and a
// dynamic client prunes it ahead of the failure detector's timeout.
func TestGracefulLeavePrunesBeforeEviction(t *testing.T) {
	db := sqldb.Open()
	if _, _, err := db.Exec("CREATE TABLE t (a INT)"); err != nil {
		t.Fatal(err)
	}
	if _, _, err := db.Exec("INSERT INTO t VALUES (1)"); err != nil {
		t.Fatal(err)
	}
	clk := newFakeClock()
	clk.autoAdvance(t)
	n0 := startGossipNode(t, clk, db, "g0", nil, 1, nil)
	n1 := startGossipNode(t, clk, db, "g1", []string{n0.Addr()}, 1, nil)
	waitFor(t, clk, 5*time.Second, func() bool { return liveIDs(n0)["g1"] },
		"g1 never joined")

	client, err := NewClient(ClientConfig{
		network:     newMemNet(clk),
		clock:       clk,
		Addrs:       []string{n0.Addr()},
		PeriodMs:    25,
		Timeout:     2 * time.Second,
		ViewRefresh: 20 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()
	waitFor(t, clk, 5*time.Second, func() bool { return clientHasLive(client, "g1") },
		"client never saw g1")

	// Graceful leave: the goodbye gossip must mark g1 left on g0 without
	// waiting for suspicion, and the client view follows.
	if err := n1.Close(); err != nil {
		t.Fatal(err)
	}
	var leftSeen atomic.Bool
	waitFor(t, clk, 5*time.Second, func() bool {
		for _, m := range n0.Members() {
			if m.ID == "g1" {
				if m.State.String() == "left" {
					leftSeen.Store(true)
				}
				return leftSeen.Load()
			}
		}
		return leftSeen.Load() // tombstone may already have expired
	}, "g0 never learned g1's goodbye")
	waitFor(t, clk, 5*time.Second, func() bool { return !clientHas(client, "g1") },
		"client never pruned the departed g1")
}

// TestDistributorRetriesAcrossDeparture is the satellite's regression:
// a subquery's winning node departs between negotiation and fetch; the
// Distributor must renegotiate on the surviving view and complete.
func TestDistributorRetriesAcrossDeparture(t *testing.T) {
	seed := func(stmts ...string) *sqldb.DB {
		db := sqldb.Open()
		for _, s := range stmts {
			if _, _, err := db.Exec(s); err != nil {
				t.Fatalf("%s: %v", s, err)
			}
		}
		return db
	}
	ordersA := seed(
		"CREATE TABLE orders (id INT, cust INT, amount FLOAT)",
		"INSERT INTO orders VALUES (1, 10, 25.0), (2, 20, 14.5), (3, 10, 99.0)",
	)
	ordersB := seed(
		"CREATE TABLE orders (id INT, cust INT, amount FLOAT)",
		"INSERT INTO orders VALUES (1, 10, 25.0), (2, 20, 14.5), (3, 10, 99.0)",
	)
	customers := seed(
		"CREATE TABLE customers (id INT, name TEXT)",
		"INSERT INTO customers VALUES (10, 'ada'), (20, 'bob')",
	)

	// Disjoint placement: no node holds both relations, so the full join
	// always decomposes (no fast path to mask the failure window).
	nodes := make([]*Node, 3)
	addrs := make([]string, 3)
	for i, db := range []*sqldb.DB{ordersA, ordersB, customers} {
		n, err := StartNode("127.0.0.1:0", NodeConfig{
			network: memWall,
			Driver:  engine.FromDB(db), MsPerCostUnit: 0.01, PeriodMs: 25, NodeID: []string{"dA", "dB", "dC"}[i],
		})
		if err != nil {
			t.Fatal(err)
		}
		nodes[i] = n
		addrs[i] = n.Addr()
		t.Cleanup(func() { n.Close() })
	}
	client, err := NewClient(ClientConfig{
		network: memWall,
		Addrs:   addrs, Mechanism: MechGreedy, PeriodMs: 25,
		MaxRetries: 50, Timeout: 2 * time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()

	// Kill the first node that wins an orders subquery, in the window
	// between winning the negotiation and the fetch.
	var killed atomic.Value
	killed.Store("")
	d := NewDistributor(client)
	d.afterNegotiate = func(nodeID, sql string) {
		if !strings.Contains(sql, "orders") || killed.Load().(string) != "" {
			return
		}
		for _, n := range nodes {
			if n.ID() == nodeID {
				killed.Store(nodeID)
				n.CloseNow()
				return
			}
		}
	}

	out, err := d.Run(1, `SELECT customers.name, SUM(orders.amount) AS total
		FROM orders JOIN customers ON orders.cust = customers.id
		GROUP BY customers.name ORDER BY customers.name`)
	if err != nil {
		t.Fatalf("distributed run across departure: %v", err)
	}
	victim := killed.Load().(string)
	if victim == "" {
		t.Fatal("the departure hook never fired")
	}
	if _, hit := out.PerNode[victim]; hit {
		t.Errorf("killed node %s still credited with a fragment: %v", victim, out.PerNode)
	}
	survivor := "dA"
	if victim == "dA" {
		survivor = "dB"
	}
	if out.PerNode[survivor] == 0 {
		t.Errorf("orders subquery not re-allocated to the survivor %s: %v", survivor, out.PerNode)
	}
	if len(out.Result.Rows) != 2 {
		t.Fatalf("result rows = %d, want 2", len(out.Result.Rows))
	}
}

// TestClientResolvesStableIDs: a static client keys breakers and
// histograms by the stable node ID its first reply carries, and Stats
// resolves both ID and address.
func TestClientResolvesStableIDs(t *testing.T) {
	db := sqldb.Open()
	if _, _, err := db.Exec("CREATE TABLE t (a INT)"); err != nil {
		t.Fatal(err)
	}
	node, err := StartNode("127.0.0.1:0", NodeConfig{network: memWall, Driver: engine.FromDB(db), NodeID: "stable-1", MsPerCostUnit: 0.01})
	if err != nil {
		t.Fatal(err)
	}
	defer node.Close()
	client, err := NewClient(ClientConfig{network: memWall, Addrs: []string{node.Addr()}})
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()

	// Before any exchange the view entry is the provisional seed address.
	if got := client.Members(); len(got) != 1 || got[0].ID != node.Addr() {
		t.Fatalf("provisional view = %+v, want one entry keyed by address", got)
	}
	if _, err := client.Stats(node.Addr()); err != nil {
		t.Fatal(err)
	}
	got := client.Members()
	if len(got) != 1 || got[0].ID != "stable-1" || got[0].Addr != node.Addr() {
		t.Fatalf("resolved view = %+v, want ID stable-1", got)
	}
	// Both ID and address address the same node.
	if _, err := client.Stats("stable-1"); err != nil {
		t.Fatalf("Stats by ID: %v", err)
	}
	if _, err := client.Stats("no-such-node"); err == nil {
		t.Error("unknown node accepted")
	}
	// Latency histograms follow the stable ID.
	lat := client.Latencies()
	if _, ok := lat["stats"]["stable-1"]; !ok {
		t.Errorf("stats latencies not keyed by stable ID: %v", lat)
	}
}

// TestStaticViewIgnoresDraining pins the compatibility contract: with
// ViewRefresh off, a draining reply trips the breaker but never prunes
// the view (the pre-membership behavior resilience tests depend on).
func TestStaticViewIgnoresDraining(t *testing.T) {
	addr := startDrainingStub(t)
	c, err := NewClient(ClientConfig{network: memWall, Addrs: []string{addr}, Timeout: time.Second})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if _, _, err := c.neg.negotiate(0, "SELECT 1 FROM t", "", nil, time.Time{}); err == nil {
		t.Fatal("draining stub negotiated successfully")
	}
	if len(c.nodes()) != 1 {
		t.Fatalf("static view pruned a draining node: %d members left", len(c.nodes()))
	}
	if st := c.nodes()[0].breaker.snapshot(); st != breakerOpen {
		t.Fatalf("breaker = %v, want open", st)
	}
}

// TestClientFirstViewArrivesWithTheFederation: a refreshing client
// started right after its nodes must not wait out a ViewRefresh period
// (100 ms here, and at the parent of this test a second one whenever
// the join gossip missed the first poll) for its first view. It polls
// at start and re-polls with a doubling delay until every configured
// address is a known member, so the view is whole — every node alive,
// relation filters decoded, which shard probing needs — as soon as the
// federation can say so.
func TestClientFirstViewArrivesWithTheFederation(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	ds, err := GenerateDataset(DatasetParams{
		Nodes: 4, Tables: 6, Views: 10, RowsPerTable: 60,
		MinCopies: 3, MaxCopies: 4,
	}, rng)
	if err != nil {
		t.Fatalf("dataset: %v", err)
	}
	var seeds, addrs []string
	for i, id := range []string{"n0", "n1", "n2", "n3"} {
		n, err := StartNode("127.0.0.1:0", NodeConfig{
			network: memWall,
			Driver:  engine.FromDB(ds.DBs[i]), MsPerCostUnit: 0.01, PeriodMs: 25,
			NodeID: id, Seeds: seeds, GossipPeriodMs: 100,
		})
		if err != nil {
			t.Fatalf("node %s: %v", id, err)
		}
		t.Cleanup(func() { n.Close() })
		addrs = append(addrs, n.Addr())
		seeds = addrs[:1]
	}
	started := time.Now()
	client, err := NewClient(ClientConfig{
		network: memWall,
		Addrs:   addrs, Mechanism: MechQANT, PeriodMs: 25, ViewRefresh: 100 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()
	whole := func() bool {
		members := client.Members()
		for _, m := range members {
			if m.State != "alive" || m.CatalogFilter == "" {
				return false
			}
		}
		return len(members) == 4
	}
	for !whole() {
		if since := time.Since(started); since > 50*time.Millisecond {
			t.Fatalf("view not whole %v after the client started: %+v", since, client.Members())
		}
		time.Sleep(500 * time.Microsecond)
	}
	t.Logf("first whole view after %v", time.Since(started))
}

// TestRefreshViewAsksSeedsInConfiguredOrder: a client seeded with
// addresses that straddle a digit boundary asks them in the order they
// were configured, not in the order their provisional IDs sort. Node b
// ("edge:10000", which sorts before "edge:9950") holds a partial table:
// c joined through a after b last heard from a, and the fake clock is
// never advanced, so no gossip round tells b. The first refresh must
// still see every member.
func TestRefreshViewAsksSeedsInConfiguredOrder(t *testing.T) {
	clk := newFakeClock()
	db := sqldb.Open()
	start := func(addr, id string, seeds ...string) *Node {
		cfg := NodeConfig{
			clock: clk, Driver: engine.FromDB(db), MsPerCostUnit: 0.01, PeriodMs: 25,
			NodeID: id, Seeds: seeds, GossipPeriodMs: 15,
		}
		onMem(&cfg)
		n, err := StartNode(addr, cfg)
		if err != nil {
			t.Fatalf("node %s: %v", id, err)
		}
		t.Cleanup(func() { n.Close() })
		return n
	}
	b := start("edge:10000", "b")
	a := start("edge:9950", "a", b.Addr())
	settle(t, func() bool { return len(liveIDs(b)) == 2 }, "a never joined b")
	start("127.0.0.1:0", "c", a.Addr())
	settle(t, func() bool { return len(liveIDs(a)) == 3 }, "c never joined a")
	if liveIDs(b)["c"] {
		t.Fatal("b heard of c: its table is not partial")
	}

	client, err := NewClient(ClientConfig{clock: clk, network: newMemNet(clk), Addrs: []string{a.Addr(), b.Addr()}})
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()
	if err := client.RefreshView(); err != nil {
		t.Fatal(err)
	}
	for _, id := range []string{"a", "b", "c"} {
		if !clientHasLive(client, id) {
			t.Errorf("first refresh missed %s: %+v", id, client.Members())
		}
	}
}
