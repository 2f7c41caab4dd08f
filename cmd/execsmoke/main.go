// Command execsmoke is the storage-driver soak `make ci` runs: an
// in-process federation where every node fronts a DIFFERENT executor —
// legacy row-at-a-time, vectorized columnar, and the fault-injecting
// mock — over fully replicated data, so the same query is answerable
// by any backend and every answer can be checked against a local
// oracle. Four invariants are asserted:
//
//  1. Executor parity through the wire: the row node and the vector
//     node, fetched through the binary frame lane, return cell-for-cell
//     identical results to the oracle for every query.
//  2. Mixed fleets interoperate: a market client over all three nodes
//     completes every query correctly, and gossip advertises each
//     member's executor name ("row", "vector", "mock:row").
//  3. The frame stream really streams: a FetchEach against a node with
//     a tiny FetchBatchRows delivers the result in multiple bounded
//     column blocks that reassemble to the oracle's rows.
//  4. At-most-once holds across executor faults: a glacial mock engine
//     (ExecDelay far past the client RPC timeout) forces retransmits
//     that the dedup window must absorb into exactly ONE execution,
//     and an injected engine fault surfaces as a typed terminal error
//     without the inner engine ever running.
//
// Everything is seeded; exit status 0 means every invariant held.
package main

import (
	"fmt"
	"math/rand"
	"os"
	"sort"
	"strings"
	"time"

	"github.com/qamarket/qamarket/internal/cluster"
	"github.com/qamarket/qamarket/internal/driver"
	"github.com/qamarket/qamarket/internal/engine"
	"github.com/qamarket/qamarket/internal/market"
	"github.com/qamarket/qamarket/internal/sqldb"
)

func die(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "execsmoke: "+format+"\n", args...)
	os.Exit(1)
}

// waitFor polls cond until it holds or the deadline passes.
func waitFor(what string, d time.Duration, cond func() bool) {
	deadline := time.Now().Add(d)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(20 * time.Millisecond)
	}
	die("timed out waiting for %s", what)
}

// render folds a result into a sorted multiset of row keys, the
// order-insensitive form all equality checks compare in.
func render(rows []sqldb.Row) []string {
	keys := make([]string, len(rows))
	for i, r := range rows {
		keys[i] = sqldb.RowKey(r)
	}
	sort.Strings(keys)
	return keys
}

// oracle executes sql locally through the legacy driver — the engine
// of record every other executor is differential-tested against.
func oracle(d driver.Driver, sql string) []string {
	st, err := d.Prepare(sql)
	if err != nil {
		die("oracle prepare %q: %v", sql, err)
	}
	blk, err := st.Execute()
	if err != nil {
		die("oracle execute %q: %v", sql, err)
	}
	rows, err := blk.AppendRows(nil)
	if err != nil {
		die("oracle rows %q: %v", sql, err)
	}
	return render(rows)
}

func equal(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func newClient(addrs []string, seed int64) *cluster.Client {
	c, err := cluster.NewClient(cluster.ClientConfig{
		Addrs:    addrs,
		PeriodMs: 20, MaxRetries: 100,
		Timeout: 500 * time.Millisecond, BreakerThreshold: 100,
		AtMostOnce: true, ExecRetries: 8,
		Jitter: rand.New(rand.NewSource(seed)),
	})
	if err != nil {
		die("client: %v", err)
	}
	return c
}

func main() {
	start := time.Now()
	rng := rand.New(rand.NewSource(91))
	// Full replication: every relation on every node, identical rows,
	// so any node can answer any query and the oracle is always valid.
	ds, err := cluster.GenerateDataset(cluster.DatasetParams{
		Nodes: 3, Tables: 5, Views: 6, RowsPerTable: 60,
		MinCopies: 3, MaxCopies: 3,
	}, rng)
	if err != nil {
		die("dataset: %v", err)
	}
	ref := driver.NewLegacy(ds.DBs[0])

	// One executor per node: the heterogeneous fleet under test. The
	// binaries default to vector, so "row" is named: this lane is what
	// keeps the opt-in driver exercised behind a live node.
	rowDrv, err := engine.SelectDriver("row", ds.DBs[0])
	if err != nil {
		die("row driver: %v", err)
	}
	vecDrv, err := engine.SelectDriver("vector", ds.DBs[1])
	if err != nil {
		die("vector driver: %v", err)
	}
	mock := driver.NewMock(driver.NewLegacy(ds.DBs[2]), driver.MockConfig{})
	drvs := []driver.Driver{rowDrv, vecDrv, mock}

	var nodes []*cluster.Node
	var addrs []string
	for i, drv := range drvs {
		cfg := cluster.NodeConfig{
			Driver:         drv,
			Slowdown:       4,
			MsPerCostUnit:  0.02,
			PeriodMs:       20,
			GossipPeriodMs: 40,
			// Tiny batches on the vector node so phase 3 observes a
			// genuinely multi-frame stream.
			Market: market.DefaultConfig(2),
		}
		if i == 1 {
			cfg.FetchBatchRows = 16
		}
		if len(addrs) > 0 {
			cfg.Seeds = []string{addrs[0]}
		}
		n, err := cluster.StartNode("127.0.0.1:0", cfg)
		if err != nil {
			die("node %d: %v", i, err)
		}
		defer n.Close()
		nodes = append(nodes, n)
		addrs = append(addrs, n.Addr())
	}
	waitFor("full membership", 5*time.Second, func() bool {
		for _, n := range nodes {
			if len(n.Members()) != len(nodes) {
				return false
			}
		}
		return true
	})

	templates, err := ds.GenerateTemplates(5, 1, rng)
	if err != nil {
		die("templates: %v", err)
	}
	qrng := rand.New(rand.NewSource(92))
	sqls := make([]string, 24)
	for i := range sqls {
		sqls[i] = templates[i%len(templates)].Instantiate(qrng)
	}
	qid := int64(0)

	// Phase 1 — executor parity through the wire: fetch every query
	// from the row node and the vector node individually; both travel
	// the binary frame lane and both must equal the oracle.
	for i, name := range []string{"row", "vector"} {
		c := newClient(addrs[i:i+1], 93+int64(i))
		for _, sql := range sqls {
			qid++
			res, out := c.Fetch(qid, sql)
			if out.Err != nil {
				die("parity: %s node: %v", name, out.Err)
			}
			if want := oracle(ref, sql); !equal(render(res.Rows), want) {
				die("parity: %s node diverges from oracle on %q", name, sql)
			}
		}
		c.Close()
	}
	fmt.Printf("execsmoke: executor parity ok (%d queries x row+vector)\n", len(sqls))

	// Phase 2 — mixed federation: one market client over all three
	// executors; every query must complete and match the oracle, and
	// the client's gossip view must advertise each executor by name.
	mixed := newClient(addrs, 95)
	if err := mixed.RefreshView(); err != nil {
		die("mixed: refresh view: %v", err)
	}
	seen := map[string]bool{}
	for _, m := range mixed.Members() {
		seen[m.Driver] = true
	}
	for _, want := range []string{"row", "vector", "mock:row"} {
		if !seen[want] {
			die("mixed: gossip view missing executor %q (saw %v)", want, seen)
		}
	}
	for _, sql := range sqls {
		qid++
		res, out := mixed.Fetch(qid, sql)
		if out.Err != nil {
			die("mixed: query %d: %v", out.QueryID, out.Err)
		}
		if want := oracle(ref, sql); !equal(render(res.Rows), want) {
			die("mixed: federation diverges from oracle on %q", sql)
		}
	}
	fmt.Printf("execsmoke: mixed federation ok (%d queries, executors %d)\n", len(sqls), len(seen))

	// Phase 3 — the frame stream really streams: a wide scan against
	// the vector node (FetchBatchRows=16) must arrive as multiple
	// bounded column blocks that reassemble to the oracle's rows.
	vc := newClient(addrs[1:2], 96)
	scan := "SELECT id, k, v, grp FROM t00 WHERE v > 1.0"
	var got []sqldb.Row
	blocks := 0
	qid++
	out := vc.FetchEach(qid, scan, func(blk *cluster.ColBlock) error {
		blocks++
		var err error
		got, err = blk.AppendRows(got)
		return err
	})
	vc.Close()
	if out.Err != nil {
		die("stream: %v", out.Err)
	}
	if want := oracle(ref, scan); !equal(render(got), want) {
		die("stream: reassembled rows diverge from oracle (%d rows)", len(got))
	}
	if blocks < 2 {
		die("stream: %d rows arrived in %d block(s); want a multi-frame stream", len(got), blocks)
	}
	fmt.Printf("execsmoke: frame stream ok (%d rows in %d blocks)\n", len(got), blocks)

	// Phase 4a — executed-once under a glacial engine: a mock with
	// ExecDelay far past the RPC timeout forces the client to lose the
	// first reply and retransmit; the dedup window must absorb every
	// retransmit into exactly one inner execution.
	slowMock := driver.NewMock(driver.NewLegacy(ds.DBs[2]), driver.MockConfig{
		ExecDelay: 400 * time.Millisecond,
	})
	slow, err := cluster.StartNode("127.0.0.1:0", cluster.NodeConfig{
		Driver:        slowMock,
		Slowdown:      4,
		MsPerCostUnit: 0.02,
		PeriodMs:      20,
		Market:        market.DefaultConfig(2),
	})
	if err != nil {
		die("slow node: %v", err)
	}
	defer slow.Close()
	sc, err := cluster.NewClient(cluster.ClientConfig{
		Addrs:    []string{slow.Addr()},
		PeriodMs: 20, MaxRetries: 100,
		Timeout: 100 * time.Millisecond, ExecTimeoutFactor: 1,
		BreakerThreshold: 100,
		AtMostOnce:       true, ExecRetries: 16,
		Jitter: rand.New(rand.NewSource(97)),
	})
	if err != nil {
		die("slow client: %v", err)
	}
	qid++
	sout := sc.Run(qid, sqls[0])
	if sout.Err != nil {
		die("slow: query should complete via dedup replay, got %v", sout.Err)
	}
	if sout.Retries == 0 {
		die("slow: no retransmits happened; ExecDelay did not exceed the RPC timeout")
	}
	if got := slowMock.Executions(); got != 1 {
		die("slow: %d executions under retransmit, want exactly 1", got)
	}
	sc.Close()
	fmt.Printf("execsmoke: at-most-once ok (%d retransmit rounds, 1 execution)\n", sout.Retries)

	// Phase 4b — injected engine fault: FailNextExec makes the mock
	// node's next Execute fail AFTER admission. The client must surface
	// it as a typed terminal error, the inner engine must never run,
	// and the next query (fault burned off) must succeed.
	mc := newClient(addrs[2:3], 98)
	before := mock.Executions()
	mock.FailNextExec(1)
	qid++
	fout := mc.Run(qid, sqls[1])
	if fout.Err == nil {
		die("fault: injected engine fault did not surface")
	}
	if !strings.Contains(fout.Err.Error(), driver.ErrInjected.Error()) {
		die("fault: error %q does not carry the injected-fault message", fout.Err)
	}
	if got := mock.Executions(); got != before {
		die("fault: inner engine ran %d time(s) under an injected fault", got-before)
	}
	qid++
	if rout := mc.Run(qid, sqls[1]); rout.Err != nil {
		die("fault: resubmission after burned fault failed: %v", rout.Err)
	}
	mc.Close()
	mixed.Close()
	fmt.Printf("execsmoke: injected fault ok (typed error, zero executions)\n")

	fmt.Printf("execsmoke: all executor invariants held in %v\n", time.Since(start).Round(time.Millisecond))
}
