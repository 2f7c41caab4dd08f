package cluster

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand"
	"strings"
	"testing"
	"time"

	"github.com/qamarket/qamarket/internal/catalog"
	"github.com/qamarket/qamarket/internal/driver"
	"github.com/qamarket/qamarket/internal/engine"
	"github.com/qamarket/qamarket/internal/membership"
	"github.com/qamarket/qamarket/internal/sqldb"
)

// TestMixedExecutorFleet fronts three gossip-joined nodes over fully
// replicated data — a node built from its row store (so it runs the
// vectorized engine), the same with 16-row fetch batches, and a
// fault-injecting mock over the vectorized engine — so any node answers
// any query and the row engine over one copy is the oracle:
//
//  1. each of the two plain nodes, fetched alone through the frame
//     lane, matches the oracle cell for cell, and the 16-row node
//     streams a wide scan as several bounded blocks;
//  2. one market client over all three completes every query correctly;
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
	mock := driver.NewMock(engine.FromDB(ds.DBs[2]), driver.MockConfig{})
	ids := []string{"plain", "batched", "mock"}
	var nodes []*Node
	var seeds []string
	for i, id := range ids {
		nodes = append(nodes, startGossipNode(t, ds.DBs[i], id, seeds, 4, func(cfg *NodeConfig) {
			cfg.GossipPeriodMs = 40
			switch id {
			case "batched":
				cfg.FetchBatchRows = 16 // a wide scan is a multi-frame stream
			case "mock":
				cfg.DB, cfg.Driver = nil, mock
			}
		}))
		seeds = []string{nodes[0].Addr()}
	}
	waitFor(t, 5*time.Second, func() bool { return everyTable(nodes, ids...) },
		"the three nodes never converged into one federation")

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

	fetchAll("plain node", client(93, 5*time.Second, nodes[0].Addr()))
	vc := client(94, 5*time.Second, nodes[1].Addr())
	fetchAll("batched node", vc)
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
	fetchAll("federation", mixed)

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

// TestNodeFromDBRunsVectorEngine: a node configured with only a row
// store (startSingleNode sets DB and no Driver) copies it into the
// vectorized engine, prepares through that engine, and keeps no
// reference to the row store.
func TestNodeFromDBRunsVectorEngine(t *testing.T) {
	n := startSingleNode(t, nil)
	if _, ok := n.cfg.Driver.(*engine.DB); !ok {
		t.Fatalf("node built from DB runs %T, want *engine.DB", n.cfg.Driver)
	}
	if n.cfg.DB != nil {
		t.Fatal("node keeps its *sqldb.DB after copying it into the engine")
	}
	st, _, _, err := n.estimate("SELECT a, b FROM t WHERE a = 1")
	if err != nil {
		t.Fatalf("estimate: %v", err)
	}
	blk, err := st.Execute()
	if err != nil || blk.Rows != 50 {
		t.Fatalf("prepared statement executed to %v rows (err %v), want 50", blk, err)
	}
}

// TestGossipRowWithExecutorNameMerges: member rows from nodes built
// before the executor's name left the wire carry a "drv" field. A
// current node decodes and merges such a row — first sight and a
// heartbeat update — with every other field intact, and gossips the
// row on without it.
func TestGossipRowWithExecutorNameMerges(t *testing.T) {
	n := startGossipNode(t, selTestDB(t), "new", nil, 1, func(cfg *NodeConfig) {
		cfg.GossipPeriodMs = 60_000 // no round runs while the test looks
	})
	filter := catalog.NewRelationFilter([]string{"fact", "dim"}).Encode()
	row := func(hb int, digest string) json.RawMessage {
		return json.RawMessage(fmt.Sprintf(`{"op":"gossip","gossip":{"v":1,"from":"old","members":[`+
			`{"id":"old","addr":"127.0.0.1:9","inc":3,"hb":%d,"state":"alive","catalog":%q,"cf":%q,"drv":"row","epoch":11}]}}`,
			hb, digest, filter))
	}
	for _, step := range []struct {
		hb     uint64
		digest string
	}{{7, "2:00000000deadbeef"}, {8, "2:00000000feedface"}} {
		raw := rawExchange(t, n.Addr(), row(int(step.hb), step.digest))
		if bytes.Contains(raw, []byte(`"drv"`)) {
			t.Fatalf("gossip reply still carries an executor name: %s", raw)
		}
		var got *membership.Member
		for _, m := range n.Members() {
			if m.ID == "old" {
				got = &m
			}
		}
		want := membership.Member{
			ID: "old", Addr: "127.0.0.1:9", Incarnation: 3, Heartbeat: step.hb,
			State: membership.StateAlive, CatalogDigest: step.digest, CatalogFilter: filter, Epoch: 11,
		}
		if got == nil || *got != want {
			t.Fatalf("hb %d: merged row = %+v, want %+v", step.hb, got, want)
		}
	}
}
