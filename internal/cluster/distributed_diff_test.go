package cluster

import (
	"fmt"
	"reflect"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"

	"github.com/qamarket/qamarket/internal/driver"
	"github.com/qamarket/qamarket/internal/engine"
	"github.com/qamarket/qamarket/internal/sqldb"
)

// The Distributor's differential oracle, in the style of
// internal/driver/difftest: the same SELECT runs through Distributor.Run
// over a federation whose relations are split across nodes, and through
// the row engine on one database holding everything, and the two must
// agree cell for cell. The hash join picks its build side by fragment
// size, which pushdown changes, so row order is only compared where the
// query fixes it.

// federationOver starts one idle node per driver and a client over them.
// The nodes do not stretch execution to its modelled cost (a
// MsPerCostUnit of zero would mean 1), so a run takes what the engines
// and the wire take.
func federationOver(t testing.TB, drivers ...driver.Driver) *Client {
	t.Helper()
	client, _ := startOver(t, ClientConfig{Mechanism: MechGreedy, PeriodMs: 50, Timeout: 5 * time.Second}, false, 0, drivers...)
	return client
}

// startOver is federationOver with the caller's client settings and the
// nodes returned, on the in-memory network and the client's clock.
// gossiped joins the nodes into one membership and has the client
// refresh its view from it, by default on a fake clock that advances
// itself; it returns once every member's relation filter has reached
// the client.
func startOver(t testing.TB, ccfg ClientConfig, gossiped bool, batchRows int, drivers ...driver.Driver) (*Client, []*Node) {
	t.Helper()
	clk := ccfg.clock
	if clk == nil && gossiped {
		clk = autoClock(t)
	} else if clk == nil {
		clk = wallClock{}
	}
	var nodes []*Node
	for i, d := range drivers {
		cfg := NodeConfig{clock: clk, network: newMemNet(clk), Driver: d, MsPerCostUnit: 1e-9, PeriodMs: 50, fetchBatchRows: batchRows}
		if gossiped {
			cfg.NodeID, cfg.GossipPeriodMs = fmt.Sprintf("g%d", i), 15
			if i > 0 {
				cfg.Seeds = []string{nodes[0].Addr()}
			}
		}
		n, err := StartNode("127.0.0.1:0", cfg)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { n.Close() })
		nodes = append(nodes, n)
		ccfg.Addrs = append(ccfg.Addrs, n.Addr())
	}
	if gossiped {
		ccfg.ViewRefresh = 20 * time.Millisecond
	}
	ccfg.clock, ccfg.network = clk, newMemNet(clk)
	client, err := NewClient(ccfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(client.Close)
	if gossiped {
		waitFor(t, clk.(*fakeClock), 10*time.Second, func() bool {
			filtered := 0
			for _, m := range client.Members() {
				if m.State == "alive" && m.CatalogFilter != "" {
					filtered++
				}
			}
			return filtered == len(nodes)
		}, "the members' relation filters never reached the client")
	}
	return client, nodes
}

// loadScripts opens a row database holding the given scripts' relations.
func loadScripts(t testing.TB, scripts ...string) *sqldb.DB {
	t.Helper()
	db := sqldb.Open()
	for _, s := range scripts {
		if _, err := driver.ExecScript(driver.NewLegacy(db), s); err != nil {
			t.Fatal(err)
		}
	}
	return db
}

// sameCells reports whether two results agree cell for cell: NULL only
// with NULL, numerics by value, everything else by kind and value.
// Unordered results are compared as multisets.
func sameCells(got, want *sqldb.Result, ordered bool) error {
	if !reflect.DeepEqual(got.Columns, want.Columns) {
		return fmt.Errorf("columns = %v, want %v", got.Columns, want.Columns)
	}
	if len(got.Rows) != len(want.Rows) {
		return fmt.Errorf("%d rows, want %d:\n got %v\nwant %v", len(got.Rows), len(want.Rows), got.Rows, want.Rows)
	}
	g, w := got.Rows, want.Rows
	if !ordered {
		byKey := func(rows []sqldb.Row) []sqldb.Row {
			rows = append([]sqldb.Row(nil), rows...)
			key := func(r sqldb.Row) string {
				var b strings.Builder
				for _, v := range r {
					b.WriteString(v.GroupKey())
					b.WriteByte('|')
				}
				return b.String()
			}
			sort.SliceStable(rows, func(i, j int) bool { return key(rows[i]) < key(rows[j]) })
			return rows
		}
		g, w = byKey(g), byKey(w)
	}
	for i := range w {
		if len(g[i]) != len(w[i]) {
			return fmt.Errorf("row %d has %d cells, want %d", i, len(g[i]), len(w[i]))
		}
		for j := range w[i] {
			a, b := g[i][j], w[i][j]
			_, an := a.AsFloat()
			_, bn := b.AsFloat()
			if a.IsNull() != b.IsNull() || (a.Kind != b.Kind && !(an && bn)) || !sqldb.Equal(a, b) {
				return fmt.Errorf("row %d col %d (%s): %v, want %v", i, j, want.Columns[j], a, b)
			}
		}
	}
	return nil
}

// diffSales lives on the first node; diffRest on the second.
func diffSales() string {
	var sb strings.Builder
	sb.WriteString("CREATE TABLE sales (id INT, cust INT, item INT, qty INT, price FLOAT, note TEXT);\n")
	sb.WriteString("INSERT INTO sales VALUES ")
	for i := 0; i < 48; i++ {
		if i > 0 {
			sb.WriteString(", ")
		}
		cust, note := fmt.Sprint(i*7%9), fmt.Sprintf("'n%d'", i%4)
		if i%7 == 3 {
			cust = "NULL" // NULL join keys on the probe side
		}
		if i%5 == 2 {
			note = "NULL"
		}
		fmt.Fprintf(&sb, "(%d, %s, %d, %d, %d.25, %s)", i, cust, i%6, i%5+1, i*13%17, note)
	}
	sb.WriteString(";\nCREATE TABLE big (a INT, b FLOAT, c TEXT, d BOOL);\n")
	sb.WriteString("INSERT INTO big VALUES (0, 0.5, 't0', TRUE), (1, 1.5, 't1', FALSE), (1, 2.5, 't2', TRUE), (2, 3.5, 't3', FALSE), (0, 4.5, 't4', TRUE)")
	return sb.String()
}

const diffRest = `
CREATE TABLE customers (id INT, name TEXT, vip BOOL, region TEXT);
INSERT INTO customers VALUES
	(0, 'ada', TRUE, 'north'), (1, 'bob', FALSE, 'south'), (2, 'cyd', TRUE, 'north'),
	(3, 'dee', FALSE, 'east'), (4, 'eve', TRUE, NULL), (5, 'fay', NULL, 'south'),
	(NULL, 'nul', TRUE, 'west'), (7, 'gus', FALSE, 'east'), (7, 'gus2', TRUE, 'east');
CREATE TABLE items (id INT, label TEXT, weight FLOAT);
INSERT INTO items VALUES (0, 'bolt', 0.1), (1, 'nut', 0.05), (2, 'gear', 2.5), (3, 'cog', 1.0), (4, 'pin', NULL);
CREATE TABLE dim (k INT, name TEXT);
INSERT INTO dim VALUES (0, 'd00'), (1, 'd01'), (2, 'd02');
CREATE VIEW vips AS SELECT id, name FROM customers WHERE vip = TRUE`

func TestDistributorMatchesOracle(t *testing.T) {
	sales := diffSales()
	oracle := loadScripts(t, sales, diffRest)
	// One node answers from the row executor, the other from the vector
	// engine: fragments arrive alike from both.
	client := federationOver(t,
		driver.NewLegacy(loadScripts(t, sales)),
		engine.FromDB(loadScripts(t, diffRest)))
	d := NewDistributor(client)
	// Fragments run on their own goroutines, so the hook records under a
	// lock, and what it recorded is compared as a count per subquery
	// text: one fragment per binding, whatever order they ran in.
	var (
		mu         sync.Mutex
		subqueries map[string]int
	)
	d.afterNegotiate = func(_, sql string) {
		mu.Lock()
		defer mu.Unlock()
		subqueries[sql]++
	}

	const sc = "sales JOIN customers ON sales.cust = customers.id"
	cases := []struct {
		name    string
		sql     string
		ordered bool     // the query fixes the order of every row
		subs    []string // expected subquery texts, one per FROM entry
	}{
		{name: "plain join", ordered: true,
			sql: "SELECT sales.id, customers.name FROM " + sc + " ORDER BY sales.id, customers.name"},
		{name: "no order", sql: "SELECT sales.id, customers.name FROM " + sc},
		{name: "pushed predicates on both sides", ordered: true,
			sql: "SELECT sales.id, customers.name FROM " + sc + " WHERE sales.qty > 2 AND customers.vip = TRUE ORDER BY sales.id, customers.name"},
		{name: "columns only a pushed predicate reads stay home", ordered: true,
			sql:  "SELECT sales.id FROM " + sc + " WHERE customers.vip = TRUE AND sales.price > 5.5 ORDER BY sales.id",
			subs: []string{"SELECT cust, id FROM sales WHERE (sales.price > 5.5)", "SELECT id FROM customers WHERE (customers.vip = TRUE)"}},
		{name: "residual cross-table predicate", ordered: true,
			sql: "SELECT sales.id, customers.name FROM " + sc + " WHERE sales.qty > customers.id AND sales.price < 12.0 ORDER BY sales.id, customers.name"},
		{name: "OR across relations stays residual",
			sql: "SELECT sales.id, customers.name FROM " + sc + " WHERE sales.qty > 4 OR customers.vip = TRUE"},
		{name: "group by with aggregates", ordered: true,
			sql: "SELECT customers.region, COUNT(*), SUM(sales.price), AVG(sales.qty), MIN(sales.note), MAX(sales.price), COUNT(sales.note) FROM " + sc + " GROUP BY customers.region ORDER BY customers.region"},
		{name: "global aggregate", ordered: true,
			sql: "SELECT COUNT(*), SUM(sales.qty), MIN(customers.name) FROM " + sc},
		{name: "aggregate of an expression over both sides", ordered: true,
			sql: "SELECT customers.vip, SUM(sales.qty * sales.price + customers.id) FROM " + sc + " GROUP BY customers.vip ORDER BY customers.vip"},
		{name: "order by limit offset", ordered: true,
			sql: "SELECT sales.id, sales.price, customers.name FROM " + sc + " ORDER BY sales.price DESC, sales.id, customers.name LIMIT 7 OFFSET 3"},
		{name: "order key that is not an item", ordered: true,
			sql: "SELECT customers.name FROM " + sc + " WHERE sales.qty = 5 ORDER BY sales.id DESC, customers.name"},
		{name: "distinct", sql: "SELECT DISTINCT customers.region, sales.qty FROM " + sc},
		{name: "table aliases", ordered: true,
			sql:  "SELECT s.id, c.name FROM sales AS s JOIN customers AS c ON s.cust = c.id WHERE s.qty >= 3 ORDER BY s.id, c.name",
			subs: []string{"SELECT cust, id FROM sales AS s WHERE (s.qty >= 3)", "SELECT id, name FROM customers AS c"}},
		{name: "item aliases ordered by alias", ordered: true,
			sql: "SELECT c.name AS who, SUM(s.price) AS total FROM sales AS s JOIN customers AS c ON s.cust = c.id GROUP BY c.name ORDER BY total DESC, who"},
		{name: "NULL join keys on both sides",
			sql: "SELECT sales.id, sales.cust, customers.id, customers.name FROM " + sc + " WHERE sales.id < 24"},
		{name: "IS NULL pushed and residual",
			sql: "SELECT sales.id, customers.region FROM " + sc + " WHERE sales.note IS NULL AND customers.region IS NOT NULL"},
		{name: "IN BETWEEN LIKE", ordered: true,
			sql: "SELECT sales.id, customers.name FROM " + sc + " WHERE customers.region IN ('north', 'south') AND sales.qty BETWEEN 2 AND 4 AND customers.name LIKE '%a%' ORDER BY sales.id, customers.name"},
		{name: "expression items", ordered: true,
			sql: "SELECT sales.qty * sales.price AS amount, customers.name, -sales.qty FROM " + sc + " ORDER BY sales.id, customers.name"},
		{name: "three-way join", ordered: true,
			sql: "SELECT sales.id, customers.name, items.label FROM " + sc + " JOIN items ON sales.item = items.id ORDER BY sales.id, customers.name"},
		{name: "three-way join grouped", ordered: true,
			sql: "SELECT items.label, customers.region, SUM(sales.qty), MAX(items.weight) FROM " + sc + " JOIN items ON sales.item = items.id WHERE items.weight > 0.07 GROUP BY items.label, customers.region ORDER BY items.label, customers.region"},
		{name: "star item ships whole rows", ordered: true,
			sql:  "SELECT * FROM " + sc + " ORDER BY sales.id, customers.name",
			subs: []string{"SELECT * FROM sales", "SELECT * FROM customers"}},
		{name: "unqualified reference ships whole rows", ordered: true,
			sql:  "SELECT name, qty FROM " + sc + " WHERE qty > 3 AND customers.vip = TRUE ORDER BY sales.id, name",
			subs: []string{"SELECT * FROM sales", "SELECT * FROM customers WHERE (customers.vip = TRUE)"}},
		{name: "zero-row fragment", ordered: true,
			sql: "SELECT sales.id, customers.name FROM " + sc + " WHERE customers.region = 'nowhere'"},
		{name: "aggregate over a zero-row fragment", ordered: true,
			sql: "SELECT COUNT(*), SUM(sales.qty) FROM " + sc + " WHERE sales.qty > 99"},
		{name: "join against a view", ordered: true,
			sql: "SELECT sales.id, vips.name FROM sales JOIN vips ON sales.cust = vips.id ORDER BY sales.id, vips.name"},
		{name: "the benchmark's star join", ordered: true,
			sql:  "SELECT dim.name, COUNT(*), SUM(big.b) FROM big JOIN dim ON big.a = dim.k WHERE big.b >= 1 AND big.b < 4 GROUP BY dim.name ORDER BY dim.name",
			subs: []string{"SELECT a, b FROM big WHERE (big.b >= 1) AND (big.b < 4)", "SELECT k, name FROM dim"}},
	}
	for i, tc := range cases {
		want, err := oracle.Query(tc.sql)
		if err != nil {
			t.Fatalf("%s: oracle: %v", tc.name, err)
		}
		subqueries = map[string]int{}
		out, err := d.Run(int64(i+1), tc.sql)
		if err != nil {
			t.Errorf("%s: %v", tc.name, err)
			continue
		}
		if out.Subqueries < 2 {
			t.Errorf("%s: %d subqueries — the query was not decomposed", tc.name, out.Subqueries)
		}
		if err := sameCells(out.Result, want, tc.ordered); err != nil {
			t.Errorf("%s: %v\n  %s", tc.name, err, tc.sql)
		}
		if tc.subs == nil {
			continue
		}
		wantSubs := map[string]int{}
		for _, sub := range tc.subs {
			wantSubs[sub]++
		}
		mu.Lock()
		if !reflect.DeepEqual(subqueries, wantSubs) {
			t.Errorf("%s: subqueries\n got %v\nwant %v", tc.name, subqueries, wantSubs)
		}
		mu.Unlock()
	}
}

// TestDistributorCarriesWhatSQLTextCouldNot: fragments used to be
// rendered to INSERT literals and re-parsed, which broke on an
// apostrophe, on any float strconv prints with an exponent, on a column
// whose kind changes after the first row, and would have run a text
// shaped like SQL. Blocks carry all of them, plus an all-NULL column and
// a fragment with no rows. What still travels as SQL text is a
// pushed-down predicate, on the way out: its literals hold the same
// apostrophes and the same floats, and must read back on the node as
// what they were.
func TestDistributorCarriesWhatSQLTextCouldNot(t *testing.T) {
	num := func(v float64) sqldb.Value {
		if v < 1e6 && v == float64(int64(v)) {
			return sqldb.NewInt(int64(v)) // the producer ships whole numbers as ints
		}
		return sqldb.NewFloat(v)
	}
	texts := []string{"O'Brien", "'); DROP TABLE dim; --", "", "plain", "it''s"}
	nums := []float64{1e-7, 1e21, 3, 1.5, 4}
	var fact, dim []sqldb.Row
	for i, s := range texts {
		dim = append(dim, sqldb.Row{sqldb.NewInt(int64(i)), sqldb.NewText(s), sqldb.Null})
	}
	for i := 0; i < 10; i++ {
		fact = append(fact, sqldb.Row{sqldb.NewInt(int64(i)), sqldb.NewInt(int64(i % 6)), num(nums[i%len(nums)])})
	}

	// The fact node fronts a vector engine whose table was ingested as a
	// block, so its v column really does mix int and float kinds; the row
	// oracle stores the same numbers in a FLOAT column.
	factNode := engine.Open()
	var blk ColBlock
	blk.FillFromRows([]string{"id", "k", "v"}, fact)
	if err := factNode.AppendBlock("fact", &blk); err != nil {
		t.Fatal(err)
	}
	if blk.Cols[2].Kinds[0] == blk.Cols[2].Kinds[2] {
		t.Fatal("fixture: v does not mix kinds")
	}
	const dimDDL = "CREATE TABLE dim (k INT, label TEXT, spare INT)"
	dimNode := loadScripts(t, dimDDL)
	oracle := loadScripts(t, dimDDL, "CREATE TABLE fact (id INT, k INT, v FLOAT)")
	for _, db := range []*sqldb.DB{dimNode, oracle} {
		if err := db.AppendTableRows("dim", dim); err != nil {
			t.Fatal(err)
		}
	}
	if err := oracle.AppendTableRows("fact", fact); err != nil {
		t.Fatal(err)
	}

	d := NewDistributor(federationOver(t, factNode, driver.NewLegacy(dimNode)))
	for i, tc := range []struct {
		sql     string
		ordered bool
		selects bool // the oracle's answer must hold a row
	}{
		{sql: "SELECT fact.id, fact.v, dim.label, dim.spare FROM fact JOIN dim ON fact.k = dim.k ORDER BY fact.id", ordered: true},
		{sql: "SELECT dim.label, SUM(fact.v), MIN(fact.v), MAX(fact.v), COUNT(dim.spare) FROM fact JOIN dim ON fact.k = dim.k GROUP BY dim.label ORDER BY dim.label", ordered: true},
		{sql: "SELECT * FROM fact JOIN dim ON fact.k = dim.k WHERE fact.v < 2"},
		{sql: "SELECT fact.id, dim.label FROM fact JOIN dim ON fact.k = dim.k WHERE dim.k > 100", ordered: true},
		{sql: "SELECT COUNT(*), MAX(dim.label) FROM fact JOIN dim ON fact.k = dim.k WHERE fact.id < 0", ordered: true},
		// Pushed-down literals: each predicate selects something, so a
		// literal that reads back as another value shows.
		{sql: "SELECT fact.id, dim.label FROM fact JOIN dim ON fact.k = dim.k WHERE dim.label = 'O''Brien' ORDER BY fact.id", ordered: true, selects: true},
		{sql: "SELECT fact.id, dim.label FROM fact JOIN dim ON fact.k = dim.k WHERE dim.label <> 'it''''s' AND dim.label <> '''); DROP TABLE dim; --'", selects: true},
		{sql: "SELECT fact.id, fact.v FROM fact JOIN dim ON fact.k = dim.k WHERE fact.v >= 1000000000000000000000.0 ORDER BY fact.id", ordered: true, selects: true},
		{sql: "SELECT fact.id, fact.v FROM fact JOIN dim ON fact.k = dim.k WHERE fact.v < 0.0000005 AND fact.v * 2 < 3.0", selects: true},
	} {
		want, err := oracle.Query(tc.sql)
		if err != nil {
			t.Fatalf("oracle: %s: %v", tc.sql, err)
		}
		if tc.selects && len(want.Rows) == 0 {
			t.Fatalf("%s: the oracle selects nothing, so the predicate proves nothing", tc.sql)
		}
		out, err := d.Run(int64(i+1), tc.sql)
		if err != nil {
			t.Errorf("%s: %v", tc.sql, err)
			continue
		}
		if err := sameCells(out.Result, want, tc.ordered); err != nil {
			t.Errorf("%s: %v", tc.sql, err)
		}
	}
}

// TestDistributorRejectsRepeatedBinding: two FROM entries under one name
// would share a scratch table.
func TestDistributorRejectsRepeatedBinding(t *testing.T) {
	client, _ := splitFederation(t, MechGreedy)
	_, err := NewDistributor(client).Run(1, "SELECT customers.name FROM orders JOIN customers ON orders.cust = customers.id JOIN orders ON orders.id = customers.id")
	if err == nil || !strings.Contains(err.Error(), "twice") {
		t.Fatalf("err = %v, want the repeated binding named", err)
	}
}

// BenchmarkDistributedJoin runs the benchmark's star-join shape through
// an in-process two-node split: a 20k-row fragment of big and all of dim
// travel as blocks into the scratch engine and join there. The pair is
// gossip-joined, so the client holds both relation filters and skips
// the whole-query round; negotiate-rpcs/op shows it (the fragments' own
// ladders come from one CFP each to their one holder).
func BenchmarkDistributedJoin(b *testing.B) {
	const bigRows, dimRows = 200_000, 100
	big := loadScripts(b, "CREATE TABLE big (a INT, b FLOAT, c TEXT, d BOOL)")
	dim := loadScripts(b, "CREATE TABLE dim (k INT, name TEXT)")
	rows := make([]sqldb.Row, 0, bigRows)
	for i := 0; i < bigRows; i++ {
		rows = append(rows, sqldb.Row{
			sqldb.NewInt(int64(i * 31 % dimRows)), sqldb.NewFloat(0.5 * float64(i*7919%bigRows)),
			sqldb.NewText(fmt.Sprintf("t%03d", i%997)), sqldb.NewBool(i%2 == 0),
		})
	}
	if err := big.AppendTableRows("big", rows); err != nil {
		b.Fatal(err)
	}
	rows = rows[:0]
	for i := 0; i < dimRows; i++ {
		rows = append(rows, sqldb.Row{sqldb.NewInt(int64(i)), sqldb.NewText(fmt.Sprintf("d%02d", i))})
	}
	if err := dim.AppendTableRows("dim", rows); err != nil {
		b.Fatal(err)
	}
	client, _ := startOver(b, ClientConfig{Mechanism: MechGreedy, PeriodMs: 50, Timeout: 5 * time.Second}, true, 0,
		engine.FromDB(big), engine.FromDB(dim))
	d := NewDistributor(client)
	// b is 0.5 × a permutation of the row numbers: a range 10,000 wide
	// holds exactly 20,000 rows.
	const sql = "SELECT dim.name, COUNT(*), SUM(big.b) FROM big JOIN dim ON big.a = dim.k WHERE big.b >= 30000 AND big.b < 40000 GROUP BY dim.name"
	rpcs0 := client.RPCCounts()["negotiate"]
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		out, err := d.Run(int64(i+1), sql)
		if err != nil {
			b.Fatal(err)
		}
		if out.FragmentRows != 20_000+dimRows || len(out.Result.Rows) != dimRows {
			b.Fatalf("fragment rows = %d, result rows = %d", out.FragmentRows, len(out.Result.Rows))
		}
	}
	b.ReportMetric(float64(client.RPCCounts()["negotiate"]-rpcs0)/float64(b.N), "negotiate-rpcs/op")
}
