package cluster

import (
	"errors"
	"fmt"
	"reflect"
	"strings"
	"testing"
	"time"

	"github.com/qamarket/qamarket/internal/driver"
	"github.com/qamarket/qamarket/internal/engine"
	"github.com/qamarket/qamarket/internal/faultnet"
	"github.com/qamarket/qamarket/internal/market"
	"github.com/qamarket/qamarket/internal/metrics"
	"github.com/qamarket/qamarket/internal/sqldb"
)

// The release rule: a client releases a fetch outcome from the node's
// dedup window once its end frame arrived clean, by naming the header's
// sequence number on its next request to that node. The node then keeps
// the key and drops the result.

// selNode starts one node over selTestDB with the given batch size.
func selNode(t *testing.T, batchRows int) *Node {
	t.Helper()
	n, err := StartNode("127.0.0.1:0", NodeConfig{
		network: memWall,
		Driver:  engine.FromDB(selTestDB(t)), MsPerCostUnit: 0.02, PeriodMs: 50,
		Market: market.DefaultConfig(1), fetchBatchRows: batchRows,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { n.Close() })
	return n
}

// selClient starts a client on addr with one connection per lane, so a
// test knows which connection each request rides.
func selClient(t *testing.T, addr string, ccfg ClientConfig) *Client {
	t.Helper()
	ccfg.Addrs, ccfg.PeriodMs, ccfg.poolSize = []string{addr}, 50, 1
	if ccfg.network == nil {
		ccfg.network = memWall
	}
	c, err := NewClient(ccfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(c.Close)
	return c
}

// record reads the settled outcome a sequence number names.
func (d *dedupWindow) record(seq uint64) (settledOutcome, bool) {
	d.mu.Lock()
	defer d.mu.Unlock()
	if i := seq - d.head; i < uint64(len(d.ring)) {
		return d.ring[i], true
	}
	return settledOutcome{}, false
}

// lastSeq is the sequence number of the newest settled outcome.
func (d *dedupWindow) lastSeq() uint64 {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.head + uint64(len(d.ring)) - 1
}

// waitReleased waits for the node to apply a release, which it does
// after it has answered the request that carried it.
func waitReleased(t *testing.T, n *Node, seq uint64) {
	t.Helper()
	settle(t, func() bool {
		so, ok := n.dedup.record(seq)
		return ok && so.rec.released()
	}, fmt.Sprintf("outcome %d was never released", seq))
}

// TestReleasedDuplicateIsRefused: once the client has released a fetch,
// the node answers a duplicate of it with the typed released refusal and
// runs nothing; the client takes that as terminal and its breaker stays
// closed.
func TestReleasedDuplicateIsRefused(t *testing.T) {
	for _, sql := range []string{selTestNarrow, selTestWide} { // packed, and kept as produced
		t.Run(sql, func(t *testing.T) {
			node := selNode(t, 0)
			c := selClient(t, node.Addr(), ClientConfig{})
			if _, out := c.Fetch(1, sql); out.Err != nil {
				t.Fatalf("Fetch: %v", out.Err)
			}
			seq := node.dedup.lastSeq()
			if so, _ := node.dedup.record(seq); so.rec.released() {
				t.Fatal("the outcome was released before any request carried the release")
			}
			if _, retained := node.dedup.size(); retained == 0 {
				t.Fatal("dedup_retained_bytes is 0 while the result is held")
			}
			// A negotiate carries the release; it runs nothing.
			ns := c.lookup(node.Addr())
			var rep reply
			if err := c.rpcOn(ns, &request{Op: "negotiate", SQL: sql}, &rep, time.Second, nil, nil); err != nil {
				t.Fatal(err)
			}
			waitReleased(t, node, seq)
			if _, retained := node.dedup.size(); retained != 0 {
				t.Fatalf("dedup_retained_bytes = %d after the only result was released", retained)
			}

			_, out := c.Fetch(1, sql)
			if !errors.Is(out.Err, errReleased) {
				t.Fatalf("duplicate of a released fetch: err = %v, want errReleased", out.Err)
			}
			if got := node.Executed(); got != 1 {
				t.Fatalf("node executed %d times, want 1", got)
			}
			if st := ns.breaker.snapshot(); st != breakerClosed {
				t.Fatalf("breaker %v after a released refusal, want closed", st)
			}
			snap := node.nodeStats().Health
			if snap[metrics.DedupEntries] != 1 || snap[metrics.DedupRetainedBytes] != 0 {
				t.Fatalf("stats gauges: %v entries, %v bytes; want the one key and no bytes",
					snap[metrics.DedupEntries], snap[metrics.DedupRetainedBytes])
			}
		})
	}
}

// TestReleaseNamesOnlyTheRunsOwn: a release that names another run's
// outcome, a number the window never issued, or an evicted one changes
// nothing — on the wire, and in the window itself.
func TestReleaseNamesOnlyTheRunsOwn(t *testing.T) {
	node := selNode(t, 0)
	owner := selClient(t, node.Addr(), ClientConfig{})
	other := selClient(t, node.Addr(), ClientConfig{})
	if _, out := owner.Fetch(1, selTestNarrow); out.Err != nil {
		t.Fatal(out.Err)
	}
	seq := node.dedup.lastSeq()
	owner.lookup(node.Addr()).transport.rel.take(node.boot) // the owner never releases it
	// The other run names the owner's number, and numbers nobody issued.
	ons := other.lookup(node.Addr())
	for _, s := range []uint64{seq, seq + 1, seq + 1000, seq - 1, 1 << 63} {
		ons.transport.rel.add(node.boot, s)
	}
	var rep reply
	if err := other.rpcOn(ons, &request{Op: "negotiate", SQL: selTestNarrow}, &rep, time.Second, nil, nil); err != nil {
		t.Fatal(err)
	}
	// The release is applied after the reply is written; a second
	// exchange on the same connection is answered after it.
	if err := other.rpcOn(ons, &request{Op: "negotiate", SQL: selTestNarrow}, &rep, time.Second, nil, nil); err != nil {
		t.Fatal(err)
	}
	if so, _ := node.dedup.record(seq); so.rec.released() {
		t.Fatal("another run's release dropped the owner's result")
	}
	res, out := owner.Fetch(1, selTestNarrow)
	if out.Err != nil || len(res.Rows) != 20 {
		t.Fatalf("owner's retransmit: err %v, %d rows; want the replay", out.Err, len(res.Rows))
	}
	if got := node.Executed(); got != 1 {
		t.Fatalf("node executed %d times, want 1", got)
	}

	// In the window: unknown, evicted and foreign numbers change nothing.
	d := newDedupWindow(time.Minute, wallClock{})
	runA, runB := d.run("a"), d.run("b")
	settle := func(run uint64, id int64) uint64 {
		key := d.key("r", true, id, "q")
		d.claim(key, nil)
		var blk ColBlock
		blk.FillFromRows([]string{"n"}, []sqldb.Row{{sqldb.NewInt(id)}})
		return d.settle(key, run, executeReply{Accepted: true, Rows: 1}, &blk, true)
	}
	old := settle(runA, 1)
	d.ring[0].at -= 2 * time.Minute
	a := settle(runA, 2) // evicts old
	b := settle(runB, 3)
	entries, bytes := d.size()
	d.release(runA, []uint64{old, b, b + 1, a - 2, 1 << 40})
	if e, by := d.size(); e != entries || by != bytes {
		t.Fatalf("stray releases moved the window from %d keys, %d bytes to %d, %d", entries, bytes, e, by)
	}
	d.release(runA, []uint64{a, a})
	if so, _ := d.record(a); !so.rec.released() {
		t.Fatal("the run's own release did not drop its result")
	}
	if so, _ := d.record(b); so.rec.released() {
		t.Fatal("releasing run a's outcome dropped run b's")
	}
	if e, _ := d.size(); e != entries {
		t.Fatalf("a release dropped a key: %d keys, want %d", e, entries)
	}
}

// TestSeveredFetchReleasedAfterEnd: a faultnet link cuts the fetch
// stream after two batches. The retransmit resumes from the window,
// which still holds the result, and the client releases it only once
// the resumed stream's end frame has arrived.
func TestSeveredFetchReleasedAfterEnd(t *testing.T) {
	const batchRows = 32
	node := selNode(t, batchRows)
	want, err := selTestDB(t).Query(selTestWide)
	if err != nil {
		t.Fatal(err)
	}
	// The bytes the data connection carries up to two whole batches: the
	// hello's answer, then the stream's header and batch frames.
	stream := streamBytesUpTo(selBlock(t, selTestWide), batchRows, 2)
	cut := helloBytes(t, node) + len(stream) + 1
	// Connection 0 is the control lane's (the negotiate), 1 the data
	// lane's fetch; the retransmit's re-dial passes untouched.
	links := newLinkNet(memWall)
	_, front := links.link(t, node.Addr(), func(i int) faultnet.Plan {
		if i == 1 {
			return faultnet.Plan{TruncateReplyAfter: cut}
		}
		return faultnet.Plan{}
	})
	c := selClient(t, front, ClientConfig{network: links, execRetries: 3, Timeout: 2 * time.Second})

	var got []sqldb.Row
	var seq uint64
	out := c.FetchEach(1, selTestWide, func(blk *ColBlock) error {
		seq = node.dedup.lastSeq()
		if so, _ := node.dedup.record(seq); so.rec.released() {
			t.Error("the result was released while its stream was still arriving")
		}
		var err error
		got, err = blk.AppendRows(got)
		return err
	})
	if out.Err != nil {
		t.Fatalf("FetchEach across the cut: %v", out.Err)
	}
	if !reflect.DeepEqual(got, want.Rows) {
		t.Fatalf("delivered %d rows, want the oracle's %d exactly once each", len(got), len(want.Rows))
	}
	snap := node.health.Snapshot()
	if out.Retries == 0 || snap[metrics.DedupHitsTotal] != 1 || node.Executed() != 1 {
		t.Fatalf("retries %d, dedup hits %v, executed %d: want a resume replayed from the window",
			out.Retries, snap[metrics.DedupHitsTotal], node.Executed())
	}
	if so, _ := node.dedup.record(seq); so.rec.released() {
		t.Fatal("the result was released before a request carried the release")
	}
	if q := c.lookup(front).transport.rel.take(node.boot); !reflect.DeepEqual(q, []uint64{seq}) {
		t.Fatalf("queued releases %v, want the resumed stream's %d only", q, seq)
	}
	c.lookup(front).transport.rel.add(node.boot, seq)
	if out := c.Run(2, selTestNarrow); out.Err != nil {
		t.Fatal(out.Err)
	}
	waitReleased(t, node, seq)
}

// streamBytesUpTo is streamFetch's header and first batches frames of a
// result.
func streamBytesUpTo(res *ColBlock, batchRows, batches int) []byte {
	buf := appendFetchHeader(nil, 2, res.Columns, 0, batchRows, res.Rows, 0)
	var cur driver.Cursor
	var batch ColBlock
	for i := 0; i < batches && res.NextBatch(&cur, batchRows, &batch); i++ {
		buf = appendFetchBatchCols(buf, 2, &batch)
	}
	return buf
}

// TestDialDropsQueuedReleases: a number only means something to the
// node incarnation that issued it, and a restarted node numbers its
// outcomes from 0 again. So the queue rides a re-dialed connection that
// meets the same incarnation, and a connection that meets another one
// drops it, whose record then stays until its TTL.
func TestDialDropsQueuedReleases(t *testing.T) {
	clk := autoClock(t)
	t.Run("same boot carries it", func(t *testing.T) {
		node := selNode(t, 0)
		c := selClient(t, node.Addr(), ClientConfig{})
		if _, out := c.Fetch(1, selTestNarrow); out.Err != nil {
			t.Fatal(out.Err)
		}
		seq := node.dedup.lastSeq()
		nt := c.lookup(node.Addr()).transport
		nt.control.slots[0].fail(errors.New("connection lost")) // the next negotiate re-dials
		if out := c.Run(2, selTestWide); out.Err != nil {
			t.Fatal(out.Err)
		}
		waitReleased(t, node, seq)
		if q := nt.rel.take(node.boot); len(q) != 0 {
			t.Fatalf("releases %v still queued after a request carried them", q)
		}
	})

	t.Run("new boot drops it", func(t *testing.T) {
		node := selNode(t, 0)
		addr := node.Addr()
		c := selClient(t, addr, ClientConfig{RunID: "run"})
		if _, out := c.Fetch(1, selTestNarrow); out.Err != nil {
			t.Fatal(out.Err)
		}
		seq := node.dedup.lastSeq()
		node.CloseNow()
		// A new incarnation takes the address, and its own first outcome
		// under the same run takes the number the queued release names.
		restarted, err := StartNode(addr, NodeConfig{
			network: newMemNet(clk),
			clock:   clk,
			Driver:  engine.FromDB(selTestDB(t)), MsPerCostUnit: 0.02, PeriodMs: 50,
			Market: market.DefaultConfig(1),
		})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { restarted.Close() })
		other := selClient(t, addr, ClientConfig{RunID: "run"})
		if out := other.Run(7, selTestWide); out.Err != nil {
			t.Fatal(out.Err)
		}
		if got := restarted.dedup.lastSeq(); got != seq {
			t.Fatalf("the new incarnation numbered its first outcome %d, want %d", got, seq)
		}
		if out := c.Run(2, selTestWide); out.Err != nil {
			t.Fatal(out.Err)
		}
		nt := c.lookup(addr).transport
		if q := nt.rel.take(restarted.boot); len(q) != 0 {
			t.Fatalf("releases %v still queued after a dial met a new incarnation", q)
		}
		// A release is applied after its request is answered; this one is
		// answered after it.
		var rep reply
		if err := c.rpcOn(c.lookup(addr), &request{Op: "negotiate", SQL: selTestNarrow}, &rep, time.Second, nil, nil); err != nil {
			t.Fatal(err)
		}
		if so, _ := restarted.dedup.record(seq); so.rec.released() {
			t.Fatal("a release the old incarnation issued dropped the new one's outcome")
		}
	})
}

// TestRefusedRequestKeepsItsReleases: a request refused before a byte
// of it was written (here for its size) hands its releases back, and
// the next request carries them.
func TestRefusedRequestKeepsItsReleases(t *testing.T) {
	node := selNode(t, 0)
	c := selClient(t, node.Addr(), ClientConfig{})
	if _, out := c.Fetch(1, selTestNarrow); out.Err != nil {
		t.Fatal(out.Err)
	}
	seq := node.dedup.lastSeq()
	big := "SELECT a FROM big WHERE d = '" + strings.Repeat("x", maxRequestBytes) + "'"
	if out := c.Run(2, big); !errors.Is(out.Err, ErrTooLarge) {
		t.Fatalf("oversize query: err = %v, want %v", out.Err, ErrTooLarge)
	}
	if out := c.Run(3, selTestWide); out.Err != nil {
		t.Fatal(out.Err)
	}
	waitReleased(t, node, seq)
}

// TestPrunedMemberKeepsItsPool: the view refresher prunes a member while
// a fetch to it is in flight, and the stream then dies mid-result. The
// query keeps the member's pooled transport: its retransmit re-dials
// only the connection that died, later requests ride the pool rather
// than a dial each, and the release of the result the client then holds
// whole reaches the node.
func TestPrunedMemberKeepsItsPool(t *testing.T) {
	node := selNode(t, 1) // a frame per row: the stream can be cut after one
	links := newLinkNet(memWall)
	p, front := links.link(t, node.Addr(), nil)
	c := selClient(t, front, ClientConfig{network: links, execRetries: 2, Timeout: 2 * time.Second})
	ns := c.lookup(front)
	// The follow-up requests below stand for a second query that sent
	// to the member before it left: they hold its transport as that
	// query would, from before the fetch until they are done.
	nt := ns.pools()
	c.holdTransport(nt)
	defer c.dropTransport(nt)

	node.frameSever.Store(1)
	pruned := false
	var got []sqldb.Row
	out := c.FetchEach(1, selTestNarrow, func(blk *ColBlock) error {
		if !pruned {
			pruned = true
			// The refresher hears that the member left.
			c.applyMembers(&membersReply{Members: []wireMember{
				{ID: node.ID(), Addr: front, Incarnation: 1, State: "left"},
			}})
		}
		var err error
		got, err = blk.AppendRows(got)
		return err
	})
	if !pruned {
		t.Fatal("the fetch delivered nothing")
	}
	if out.Err != nil || len(got) != 20 {
		t.Fatalf("fetch across the prune: err %v, %d rows; want all 20", out.Err, len(got))
	}
	if out.Retries == 0 || node.Executed() != 1 {
		t.Fatalf("retries %d, executed %d: want a retransmit replayed from the window", out.Retries, node.Executed())
	}
	if c.lookup(ns.nodeID()) == ns {
		t.Fatal("the member is still in the view")
	}
	// The negotiate, the fetch, and the one re-dial of the data
	// connection the cut killed.
	if n := p.Dials(); n != 3 {
		t.Fatalf("%d connections for a negotiate, a fetch and one retransmit, want 3", n)
	}

	// Requests that a query holding the pruned member still owes it ride
	// the pool, and the first carries the release.
	seq := node.dedup.lastSeq()
	for _, op := range []string{"negotiate", "stats", "stats"} {
		var rep reply
		if err := c.rpcOn(ns, &request{Op: op, SQL: selTestNarrow}, &rep, time.Second, nil, nil); err != nil {
			t.Fatalf("%s on the pruned member: %v", op, err)
		}
	}
	if n := p.Dials(); n != 3 {
		t.Fatalf("three more requests dialed %d connections, want none", n-3)
	}
	waitReleased(t, node, seq)
}

// TestPrunedMemberClosesItsPool: a pruned member's pooled connections
// close once no query holds them — at once when the member is idle, and
// when the last query that sent to it ends otherwise — and the client
// keeps nothing of the transport.
func TestPrunedMemberClosesItsPool(t *testing.T) {
	for _, midQuery := range []bool{false, true} {
		node := selNode(t, 1)
		c := selClient(t, node.Addr(), ClientConfig{Timeout: 2 * time.Second})
		prune := func() {
			c.applyMembers(&membersReply{Members: []wireMember{
				{ID: node.ID(), Addr: node.Addr(), Incarnation: 1, State: "left"},
			}})
		}
		pruned := false
		out := c.FetchEach(1, selTestNarrow, func(blk *ColBlock) error {
			if midQuery && !pruned {
				pruned = true
				prune()
			}
			return nil
		})
		if out.Err != nil {
			t.Fatalf("midQuery=%v: fetch: %v", midQuery, out.Err)
		}
		if midQuery && !pruned {
			t.Fatal("the fetch delivered nothing")
		}
		if !midQuery {
			if n := node.openConns(); n != 2 {
				t.Fatalf("%d open connections after a negotiate and a fetch, want 2", n)
			}
			prune()
		}
		settle(t, func() bool { return node.openConns() == 0 },
			"the pruned member's connections stayed open")
		c.viewMu.RLock()
		left := len(c.retired)
		c.viewMu.RUnlock()
		if left != 0 {
			t.Fatalf("midQuery=%v: the client still keeps %d retired transports", midQuery, left)
		}
	}
}
