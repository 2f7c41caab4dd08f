package cluster

import (
	"math/rand"
	"strings"
	"testing"
	"time"

	"github.com/qamarket/qamarket/internal/driver"
	"github.com/qamarket/qamarket/internal/engine"
	"github.com/qamarket/qamarket/internal/sqldb"
)

// TestMixedExecutorFleet fronts the row, vector and fault-injecting mock
// executors with live gossip-joined nodes over fully replicated data, so
// any node answers any query and the row engine over one copy is the
// oracle:
//
//  1. each of the row and vector nodes, fetched alone through the frame
//     lane, matches the oracle cell for cell, and the vector node streams
//     a wide scan as several bounded blocks;
//  2. one market client over all three completes every query correctly,
//     and gossip advertises each member's executor by name;
//  3. a glacial engine that outlasts the RPC timeout forces retransmits
//     that the dedup window absorbs into exactly one execution;
//  4. an injected engine fault surfaces as a terminal error carrying the
//     injected message without the inner engine running, and the
//     resubmission after it succeeds.
func TestMixedExecutorFleet(t *testing.T) {
	rng := rand.New(rand.NewSource(91))
	ds, err := GenerateDataset(DatasetParams{
		Nodes: 3, Tables: 5, Views: 6, RowsPerTable: 60,
		MinCopies: 3, MaxCopies: 3,
	}, rng)
	if err != nil {
		t.Fatalf("dataset: %v", err)
	}
	oracle := func(sql string) *sqldb.Result {
		t.Helper()
		res, err := ds.DBs[0].Query(sql)
		if err != nil {
			t.Fatalf("oracle %q: %v", sql, err)
		}
		return res
	}
	rowDrv, err := engine.SelectDriver("row", ds.DBs[0])
	if err != nil {
		t.Fatal(err)
	}
	vecDrv, err := engine.SelectDriver("vector", ds.DBs[1])
	if err != nil {
		t.Fatal(err)
	}
	mock := driver.NewMock(driver.NewLegacy(ds.DBs[2]), driver.MockConfig{})
	var nodes []*Node
	var seeds []string
	for i, drv := range []driver.Driver{rowDrv, vecDrv, mock} {
		nodes = append(nodes, startGossipNode(t, nil, []string{"row", "vector", "mock"}[i], seeds, 4, func(cfg *NodeConfig) {
			cfg.Driver, cfg.GossipPeriodMs = drv, 40
			if drv == vecDrv {
				cfg.FetchBatchRows = 16 // a wide scan is a multi-frame stream
			}
		}))
		seeds = []string{nodes[0].Addr()}
	}
	waitFor(t, 5*time.Second, func() bool { return everyTable(nodes, "row", "vector", "mock") },
		"the three executors never converged into one federation")

	templates, err := ds.GenerateTemplates(5, 1, rng)
	if err != nil {
		t.Fatal(err)
	}
	sqls := make([]string, 24)
	for i := range sqls {
		sqls[i] = templates[i%len(templates)].Instantiate(rng)
	}
	qid := int64(0)
	client := func(seed int64, timeout time.Duration, addrs ...string) *Client {
		t.Helper()
		c, err := NewClient(ClientConfig{
			Addrs:    addrs,
			PeriodMs: 20, MaxRetries: 100,
			Timeout: timeout, ExecTimeoutFactor: 1, BreakerThreshold: 100,
			AtMostOnce: true, ExecRetries: 16,
			Jitter: rand.New(rand.NewSource(seed)),
		})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(c.Close)
		return c
	}
	fetchAll := func(what string, c *Client) {
		t.Helper()
		for _, sql := range sqls {
			qid++
			res, out := c.Fetch(qid, sql)
			if out.Err != nil {
				t.Fatalf("%s: %q: %v", what, sql, out.Err)
			}
			if err := sameCells(res, oracle(sql), false); err != nil {
				t.Fatalf("%s diverges from the row engine on %q: %v", what, sql, err)
			}
		}
	}

	fetchAll("row node", client(93, 5*time.Second, nodes[0].Addr()))
	vc := client(94, 5*time.Second, nodes[1].Addr())
	fetchAll("vector node", vc)
	scan := "SELECT id, k, v, grp FROM t00 WHERE v > 1.0"
	streamed := &sqldb.Result{}
	blocks := 0
	qid++
	out := vc.FetchEach(qid, scan, func(blk *ColBlock) error {
		blocks++
		var err error
		streamed.Rows, err = blk.AppendRows(streamed.Rows)
		return err
	})
	if out.Err != nil {
		t.Fatalf("stream: %v", out.Err)
	}
	want := oracle(scan)
	streamed.Columns = want.Columns
	if err := sameCells(streamed, want, false); err != nil {
		t.Fatalf("reassembled stream diverges from the row engine: %v", err)
	}
	if blocks < 2 {
		t.Fatalf("%d rows arrived in %d block(s), want a multi-frame stream", len(streamed.Rows), blocks)
	}

	mixed := client(95, 5*time.Second, nodes[0].Addr(), nodes[1].Addr(), nodes[2].Addr())
	if err := mixed.RefreshView(); err != nil {
		t.Fatal(err)
	}
	seen := map[string]bool{}
	for _, m := range mixed.Members() {
		seen[m.Driver] = true
	}
	for _, name := range []string{"row", "vector", "mock:row"} {
		if !seen[name] {
			t.Errorf("gossip view advertises no %q executor: %v", name, seen)
		}
	}
	fetchAll("mixed federation", mixed)

	// A retransmit lands while the first attempt still executes; the
	// dedup window must hand it the one execution's outcome.
	var glacial *driver.Mock
	slow := startSingleNode(t, func(cfg *NodeConfig) {
		glacial = driver.NewMock(driver.NewLegacy(cfg.DB), driver.MockConfig{ExecDelay: 400 * time.Millisecond})
		cfg.Driver = glacial
	})
	qid++
	sout := client(97, 100*time.Millisecond, slow.Addr()).Run(qid, "SELECT a, b FROM t")
	if sout.Err != nil {
		t.Fatalf("glacial engine: %v, want completion through the dedup window", sout.Err)
	}
	if sout.Retries == 0 {
		t.Fatal("glacial engine: no retransmits; ExecDelay did not outlast the RPC timeout")
	}
	if got := glacial.Executions(); got != 1 {
		t.Fatalf("glacial engine executed %d times under retransmits, want 1", got)
	}

	// An engine fault after admission is terminal, typed by its message,
	// and costs no execution; the fault burned off, the query runs.
	mc := client(98, 5*time.Second, nodes[2].Addr())
	before := mock.Executions()
	mock.FailNextExec(1)
	qid++
	if fout := mc.Run(qid, sqls[1]); fout.Err == nil || !strings.Contains(fout.Err.Error(), driver.ErrInjected.Error()) {
		t.Fatalf("injected fault surfaced as %v, want an error carrying %q", fout.Err, driver.ErrInjected)
	}
	if got := mock.Executions(); got != before {
		t.Fatalf("inner engine ran %d time(s) under an injected fault", got-before)
	}
	qid++
	if rout := mc.Run(qid, sqls[1]); rout.Err != nil {
		t.Fatalf("resubmission after the burned fault: %v", rout.Err)
	}
}
