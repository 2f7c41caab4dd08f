package cluster

import (
	"errors"
	"fmt"
	"math/rand"
	"strings"
	"sync"
	"testing"
	"time"

	"github.com/qamarket/qamarket/internal/driver"
	"github.com/qamarket/qamarket/internal/engine"
	"github.com/qamarket/qamarket/internal/faultnet"
	"github.com/qamarket/qamarket/internal/metrics"
	"github.com/qamarket/qamarket/internal/sqldb"
)

// splitFederation builds two nodes with disjoint tables so a join
// across them is evaluable nowhere as a whole, on the wall clock: its
// tests read how long negotiation took.
func splitFederation(t *testing.T, mech Mechanism) (*Client, []*Node) {
	t.Helper()
	client, nodes, _ := splitFederationBehindLinks(t, ClientConfig{Mechanism: mech, PeriodMs: 50, Timeout: 5 * time.Second, clock: wallClock{}})
	return client, nodes
}

// The split federation's two databases: orders on the first node,
// customers on the second.
const (
	splitOrders = `CREATE TABLE orders (id INT, cust INT, amount FLOAT);
INSERT INTO orders VALUES (1, 10, 5.0), (2, 10, 7.5), (3, 20, 1.0), (4, 30, 9.0)`
	splitCustomers = `CREATE TABLE customers (id INT, name TEXT, vip BOOL);
INSERT INTO customers VALUES (10, 'ada', TRUE), (20, 'bob', FALSE), (30, 'cyd', TRUE)`
)

// splitFederationBehindLinks is splitFederation with a fault-injecting
// link in front of each node and the caller's client settings, all on
// the client's clock: by default a fake one that advances itself.
func splitFederationBehindLinks(t *testing.T, ccfg ClientConfig) (*Client, []*Node, []*faultnet.Link) {
	t.Helper()
	clk := ccfg.clock
	if clk == nil {
		clk = autoClock(t)
	}
	nw := newLinkNet(newMemNet(clk))
	var nodes []*Node
	var links []*faultnet.Link
	for _, db := range []*sqldb.DB{loadScripts(t, splitOrders), loadScripts(t, splitCustomers)} {
		n, err := StartNode("127.0.0.1:0", NodeConfig{clock: clk, network: newMemNet(clk), Driver: engine.FromDB(db), MsPerCostUnit: 0.01, PeriodMs: 50})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { n.Close() })
		l, front := nw.link(t, n.Addr(), nil)
		nodes = append(nodes, n)
		links = append(links, l)
		ccfg.Addrs = append(ccfg.Addrs, front)
	}
	ccfg.network, ccfg.clock = nw, clk
	client, err := NewClient(ccfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(client.Close)
	return client, nodes, links
}

func TestDistributedJoinAcrossNodes(t *testing.T) {
	client, _ := splitFederation(t, MechGreedy)
	d := NewDistributor(client)
	sql := `SELECT customers.name, SUM(orders.amount) AS total
		FROM orders JOIN customers ON orders.cust = customers.id
		WHERE customers.vip = TRUE AND orders.amount > 2.0
		GROUP BY customers.name ORDER BY customers.name`
	out, err := d.Run(1, sql)
	if err != nil {
		t.Fatalf("distributed run: %v", err)
	}
	if out.Subqueries != 2 {
		t.Errorf("subqueries = %d, want 2 (one per node)", out.Subqueries)
	}
	if len(out.PerNode) != 2 {
		t.Errorf("fragments from %d nodes, want 2", len(out.PerNode))
	}
	// Three proposal rounds went to the wire (whole query, two
	// subqueries), none of them resubmitted.
	if out.AssignMs <= 0 {
		t.Errorf("AssignMs = %v, want the summed negotiation time", out.AssignMs)
	}
	if out.Retries != 0 {
		t.Errorf("Retries = %d on an idle federation", out.Retries)
	}
	// Reference result computed on a single database holding everything.
	want, err := loadScripts(t, splitOrders, splitCustomers).Query(sql)
	if err != nil {
		t.Fatal(err)
	}
	assertSameResult(t, out.Result, want)
}

func assertSameResult(t *testing.T, got, want *sqldb.Result) {
	t.Helper()
	if len(got.Rows) != len(want.Rows) {
		t.Fatalf("rows = %d, want %d (%v vs %v)", len(got.Rows), len(want.Rows), got.Rows, want.Rows)
	}
	for i := range want.Rows {
		for j := range want.Rows[i] {
			if !sqldb.Equal(got.Rows[i][j], want.Rows[i][j]) {
				t.Errorf("row %d col %d: %v != %v", i, j, got.Rows[i][j], want.Rows[i][j])
			}
		}
	}
}

func TestDistributedPredicatePushdownShrinksFragments(t *testing.T) {
	client, _ := splitFederation(t, MechGreedy)
	d := NewDistributor(client)
	// Only 1 of 4 orders survives the pushed predicate.
	out, err := d.Run(2, `SELECT orders.id FROM orders
		JOIN customers ON orders.cust = customers.id
		WHERE orders.amount > 8.0`)
	if err != nil {
		t.Fatal(err)
	}
	// Fragments: orders (1 row after pushdown) + customers (3 rows).
	if out.FragmentRows != 4 {
		t.Errorf("fragment rows = %d, want 4 (pushdown failed?)", out.FragmentRows)
	}
	if len(out.Result.Rows) != 1 || out.Result.Rows[0][0].Int != 4 {
		t.Errorf("result = %v, want order 4", out.Result.Rows)
	}
}

func TestDistributedFastPathSingleNode(t *testing.T) {
	client, nodes := splitFederation(t, MechGreedy)
	d := NewDistributor(client)
	// orders lives wholly on node 0: no decomposition needed.
	out, err := d.Run(3, "SELECT COUNT(*) FROM orders")
	if err != nil {
		t.Fatal(err)
	}
	if out.Subqueries != 1 {
		t.Errorf("subqueries = %d, want 1 (fast path)", out.Subqueries)
	}
	if out.AssignMs <= 0 {
		t.Errorf("AssignMs = %v, want the fast path's negotiation time", out.AssignMs)
	}
	if out.Result.Rows[0][0].Int != 4 {
		t.Errorf("count = %v, want 4", out.Result.Rows[0][0])
	}
	if nodes[0].Executed() == 0 {
		t.Error("node 0 executed nothing")
	}
}

func TestDistributedUnderQANT(t *testing.T) {
	client, _ := splitFederation(t, MechQANT)
	d := NewDistributor(client)
	// The market gates subquery admission; with idle nodes everything
	// must eventually be served.
	for i := 0; i < 4; i++ {
		out, err := d.Run(int64(10+i), `SELECT customers.name FROM orders
			JOIN customers ON orders.cust = customers.id WHERE orders.id = 1`)
		if err != nil {
			t.Fatalf("run %d: %v", i, err)
		}
		if len(out.Result.Rows) != 1 || out.Result.Rows[0][0].Str != "ada" {
			t.Errorf("run %d result = %v", i, out.Result.Rows)
		}
	}
}

func TestDistributedRejectsNonSelect(t *testing.T) {
	client, _, _ := splitFederationBehindLinks(t, ClientConfig{Mechanism: MechGreedy, PeriodMs: 50, Timeout: 5 * time.Second})
	d := NewDistributor(client)
	if _, err := d.Run(1, "INSERT INTO orders VALUES (9, 9, 9.0)"); err == nil {
		t.Error("non-SELECT accepted")
	}
	if _, err := d.Run(1, "SELECT * FROM nowhere JOIN customers ON nowhere.id = customers.id"); err == nil {
		t.Error("unknown relation accepted")
	}
}

const distJoinSQL = `SELECT customers.name, SUM(orders.amount) AS total
	FROM orders JOIN customers ON orders.cust = customers.id
	GROUP BY customers.name ORDER BY customers.name`

// TestDistributedBacksOffWhileUnreachable: a round in which no node
// answers is transient for the Distributor exactly as it is for Run — it
// backs off and resubmits instead of failing the join on the spot (which
// it did while it carried its own copy of the loop).
func TestDistributedBacksOffWhileUnreachable(t *testing.T) {
	client, _, links := splitFederationBehindLinks(t, ClientConfig{
		Mechanism: MechGreedy, PeriodMs: 20, Timeout: time.Second,
		breakerThreshold: 100, // the partition must not outlast itself as open breakers
		Jitter:           rand.New(rand.NewSource(3)),
	})
	for _, p := range links {
		p.SetRefuse(true)
	}
	// Heal once the client has provably sat out a round: it has counted
	// the retry, and the clock has moved since.
	clk := client.cfg.clock.(*fakeClock)
	returned, healed := make(chan struct{}), make(chan struct{})
	go func() {
		defer close(healed)
		for client.Health()[metrics.RetriesTotal] < 1 {
			select {
			case <-returned:
				return
			case <-clk.nextMove():
			}
		}
		for _, p := range links {
			p.SetRefuse(false)
		}
	}()
	out, err := NewDistributor(client).Run(1, distJoinSQL)
	close(returned)
	<-healed
	if err != nil {
		t.Fatalf("join across a healed partition: %v", err)
	}
	if out.Subqueries != 2 || len(out.Result.Rows) != 3 {
		t.Fatalf("subqueries = %d rows = %d, want 2 and 3", out.Subqueries, len(out.Result.Rows))
	}
	if out.Retries < 1 {
		t.Errorf("Retries = %d, want the backed-off rounds counted", out.Retries)
	}
	if got := client.Health()[metrics.BackoffMsTotal]; got <= 0 {
		t.Errorf("backoff_ms_total = %v, want the wait accounted", got)
	}
}

// TestDistributedNoOfferWaitHonorsDeadline: the resubmit-next-period
// wait of a subquery nobody offers on is clipped to the query's
// deadline. The Distributor used to sleep a flat period and discover the
// expiry afterwards.
func TestDistributedNoOfferWaitHonorsDeadline(t *testing.T) {
	const period = 2 * time.Second
	client, _, _ := splitFederationBehindLinks(t, ClientConfig{
		Mechanism: MechGreedy, PeriodMs: period.Milliseconds(), Timeout: time.Second,
		QueryTimeout: 100 * time.Millisecond,
	})
	clk := client.cfg.clock
	start := clk.now()
	_, err := NewDistributor(client).Run(1,
		"SELECT * FROM nowhere JOIN customers ON nowhere.id = customers.id")
	if !errors.Is(err, ErrExpired) {
		t.Fatalf("err = %v, want ErrExpired", err)
	}
	if took := clk.since(start); took > period/2 {
		t.Fatalf("expiry surfaced after %v: the wait ignored the %v deadline", took, client.cfg.QueryTimeout)
	}
}

// TestDistributedFastPathLostReplyUnderAtMostOnce: when the whole-query
// fetch's reply is lost the outcome is unknown (the client is
// at-most-once) and the Distributor must say so. It used to drop the
// lost attempt on the floor and run the query again as fragments.
func TestDistributedFastPathLostReplyUnderAtMostOnce(t *testing.T) {
	client, nodes, links := splitFederationBehindLinks(t, ClientConfig{
		Mechanism: MechGreedy, PeriodMs: 20,
		Timeout: 100 * time.Millisecond, execTimeoutFactor: 1,
		execRetries: 1,
	})
	d := NewDistributor(client)
	// The fetch is written on a data connection that is already up, so
	// the partition swallows its reply and not the hello's.
	d.afterNegotiate = func(nodeID, _ string) {
		client.warmLane(t, client.lookup(nodeID), "fetch")
		links[0].Partition(faultnet.ServerToClient)
	}
	_, err := d.Run(1, "SELECT COUNT(*) FROM orders")
	if !errors.Is(err, ErrOutcomeUnknown) {
		t.Fatalf("err = %v, want ErrOutcomeUnknown", err)
	}
	if got := nodes[0].Executed(); got != 1 {
		t.Fatalf("orders node executed %d queries, want the one whose reply was lost", got)
	}
}

func TestSplitConjuncts(t *testing.T) {
	stmt, err := sqldb.Parse(`SELECT a.x FROM t AS a JOIN u AS b ON a.k = b.k
		WHERE a.x > 1 AND b.y < 2 AND a.z + b.w = 3`)
	if err != nil {
		t.Fatal(err)
	}
	sel := stmt.(*sqldb.SelectStmt)
	pushed, residual := splitConjuncts(sel)
	if len(pushed[0]) != 1 || pushed[0][0].String() != "(a.x > 1)" {
		t.Errorf("pushed[a] = %v", exprStrings(pushed[0]))
	}
	if len(pushed[1]) != 1 || pushed[1][0].String() != "(b.y < 2)" {
		t.Errorf("pushed[b] = %v", exprStrings(pushed[1]))
	}
	if len(residual) != 1 {
		t.Errorf("residual = %v", exprStrings(residual))
	}
}

func exprStrings(es []sqldb.Expr) []string {
	out := make([]string, len(es))
	for i, e := range es {
		out[i] = e.String()
	}
	return out
}

// TestDistributorFiltersAnswerTheProbe: on a gossip-joined split the
// client holds both members' relation filters, which prove that no
// member holds orders and customers together, so the join sends no
// whole-query CFP — each fragment's round goes to its one holder — and
// still matches the oracle. Where the filters cannot decide, the round
// runs as before: a relation one member holds takes the fast path, a
// static view carries no filters, and noShardProbe turns them off.
func TestDistributorFiltersAnswerTheProbe(t *testing.T) {
	want, err := loadScripts(t, splitOrders, splitCustomers).Query(distJoinSQL)
	if err != nil {
		t.Fatal(err)
	}
	ccfg := ClientConfig{Mechanism: MechGreedy, PeriodMs: 50, Timeout: 5 * time.Second}
	gossiped := func(t *testing.T, ccfg ClientConfig) *Client {
		client, _ := startOver(t, ccfg, true, 0,
			driver.NewLegacy(loadScripts(t, splitOrders)), driver.NewLegacy(loadScripts(t, splitCustomers)))
		return client
	}
	// join runs the split join and returns the negotiate RPCs it cost.
	join := func(t *testing.T, c *Client) int64 {
		t.Helper()
		rpcs0 := c.RPCCounts()["negotiate"]
		out, err := NewDistributor(c).Run(1, distJoinSQL)
		if err != nil {
			t.Fatal(err)
		}
		if out.Subqueries != 2 {
			t.Errorf("subqueries = %d, want 2 fragments", out.Subqueries)
		}
		assertSameResult(t, out.Result, want)
		return c.RPCCounts()["negotiate"] - rpcs0
	}

	t.Run("filters rule the whole query out", func(t *testing.T) {
		c := gossiped(t, ccfg)
		skips0 := c.health.Counter(metrics.ShardSkipsTotal)
		if got := join(t, c); got != 2 {
			t.Errorf("join cost %d negotiate RPCs, want 2: one per fragment, to its holder, and no whole-query round", got)
		}
		// Both members for the skipped round, the non-holder for each fragment.
		if got := c.health.Counter(metrics.ShardSkipsTotal) - skips0; got != 4 {
			t.Errorf("shard skips = %d, want 4", got)
		}
	})
	t.Run("a member holds every relation", func(t *testing.T) {
		c := gossiped(t, ccfg)
		rpcs0 := c.RPCCounts()["negotiate"]
		out, err := NewDistributor(c).Run(2, "SELECT COUNT(*) FROM orders")
		if err != nil {
			t.Fatal(err)
		}
		if out.Subqueries != 1 || out.Result.Rows[0][0].Int != 4 {
			t.Errorf("subqueries = %d, count = %v: want the fast path's 1 and 4", out.Subqueries, out.Result.Rows)
		}
		if got := c.RPCCounts()["negotiate"] - rpcs0; got != 1 {
			t.Errorf("fast path cost %d negotiate RPCs, want 1 to the holder", got)
		}
	})
	t.Run("static view", func(t *testing.T) {
		c, _ := splitFederation(t, MechGreedy)
		if got := join(t, c); got != 6 {
			t.Errorf("join cost %d negotiate RPCs, want 6: three rounds to both members", got)
		}
	})
	t.Run("shard probing off", func(t *testing.T) {
		off := ccfg
		off.noShardProbe = true
		if got := join(t, gossiped(t, off)); got != 6 {
			t.Errorf("join cost %d negotiate RPCs, want 6: three rounds to both members", got)
		}
	})
}

// threeWaySQL joins the three relations threeWaySplit spreads over
// three nodes.
const threeWaySQL = `SELECT sales.id, customers.name, items.label
	FROM sales JOIN customers ON sales.cust = customers.id JOIN items ON sales.item = items.id
	ORDER BY sales.id`

// threeWaySplit starts one node per relation of threeWaySQL — sales,
// customers, items, in FROM order — and returns them with the oracle,
// one database holding all three.
func threeWaySplit(t *testing.T, batchRows int, ccfg ClientConfig) (*Client, []*Node, *sqldb.DB) {
	t.Helper()
	var sales strings.Builder
	sales.WriteString("CREATE TABLE sales (id INT, cust INT, item INT);\nINSERT INTO sales VALUES ")
	for i := 0; i < 40; i++ {
		if i > 0 {
			sales.WriteString(", ")
		}
		fmt.Fprintf(&sales, "(%d, %d, %d)", i, i%5, i%3)
	}
	const (
		customers = "CREATE TABLE customers (id INT, name TEXT);\nINSERT INTO customers VALUES (0, 'ada'), (1, 'bob'), (2, 'cyd'), (3, 'dee'), (4, 'eve')"
		items     = "CREATE TABLE items (id INT, label TEXT);\nINSERT INTO items VALUES (0, 'bolt'), (1, 'nut'), (2, 'gear')"
	)
	client, nodes := startOver(t, ccfg, false, batchRows,
		driver.NewLegacy(loadScripts(t, sales.String())),
		engine.FromDB(loadScripts(t, customers)),
		driver.NewLegacy(loadScripts(t, items)))
	return client, nodes, loadScripts(t, sales.String(), customers, items)
}

// TestDistributorFragmentSeveredConcurrently: the fragments of a
// three-way join run as concurrent lifecycles, and the sales node severs
// its stream after two of ten batches. That fragment alone starts over —
// its table dropped, its node's dedup window replaying the result — and
// the join matches the oracle with each fragment executed exactly once.
func TestDistributorFragmentSeveredConcurrently(t *testing.T) {
	client, nodes, oracle := threeWaySplit(t, 4, ClientConfig{
		Mechanism: MechGreedy, PeriodMs: 50, Timeout: 5 * time.Second,
	})
	want, err := oracle.Query(threeWaySQL)
	if err != nil {
		t.Fatal(err)
	}
	nodes[0].frameSever.Store(2)
	d := NewDistributor(client)
	var (
		mu       sync.Mutex
		attempts = map[string]int{}
	)
	d.afterNegotiate = func(_, sql string) {
		mu.Lock()
		defer mu.Unlock()
		attempts[sql]++
	}
	out, err := d.Run(1, threeWaySQL)
	if err != nil {
		t.Fatal(err)
	}
	if err := sameCells(out.Result, want, true); err != nil {
		t.Fatal(err)
	}
	if nodes[0].frameSever.Load() != 0 {
		t.Fatal("the sever never fired")
	}
	if out.Subqueries != 3 || out.FragmentRows != 40+5+3 || out.Retries < 1 {
		t.Errorf("subqueries = %d, fragment rows = %d, retries = %d: want 3, 48 and the re-pull counted",
			out.Subqueries, out.FragmentRows, out.Retries)
	}
	for i, n := range nodes {
		if got := n.Executed(); got != 1 {
			t.Errorf("node %d executed %d subqueries, want 1", i, got)
		}
	}
	if hits := nodes[0].health.Snapshot()[metrics.DedupHitsTotal]; hits < 1 {
		t.Error("the severed fragment was not replayed from the dedup window")
	}
	mu.Lock()
	defer mu.Unlock()
	if len(attempts) != 3 {
		t.Errorf("attempted subqueries %v, want one per FROM entry", attempts)
	}
}

// TestDistributorReportsFromOrderFirstFailure: when two fragments fail,
// the error names the earlier FROM entry although it fails last — its
// node dies only after the later entry's node has died and that
// fragment has had time to give up (200 ms on a clock that moves only
// once nothing else can) — because outcomes are merged in FROM order
// once every fragment has finished.
func TestDistributorReportsFromOrderFirstFailure(t *testing.T) {
	client, nodes, _ := threeWaySplit(t, 0, ClientConfig{
		Mechanism: MechGreedy, PeriodMs: 20, Timeout: time.Second, MaxRetries: 1,
		clock: autoClock(t),
	})
	d := NewDistributor(client)
	var killSales, killCustomers sync.Once
	customersDown := make(chan struct{})
	d.afterNegotiate = func(_, sql string) {
		switch {
		case strings.Contains(sql, "FROM customers"):
			killCustomers.Do(func() {
				nodes[1].CloseNow()
				close(customersDown)
			})
		case strings.Contains(sql, "FROM sales"):
			killSales.Do(func() {
				<-customersDown
				client.cfg.clock.sleep(200 * time.Millisecond)
				nodes[0].CloseNow()
			})
		}
	}
	_, err := d.Run(1, threeWaySQL)
	if err == nil || !strings.Contains(err.Error(), "subquery for sales") {
		t.Fatalf("err = %v, want the sales fragment's failure", err)
	}
}
