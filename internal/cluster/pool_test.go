package cluster

import (
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net"
	"sync"
	"testing"
	"time"
)

// testTransport names the state a test's first RPC finds its lane in:
// "pooled" rides a connection a previous exchange left open, "fresh"
// dials its connection and says hello first. They are the two branches
// of pool.get, and a typed answer must classify the same on both.
type testTransport struct {
	name  string
	fresh bool
}

var transports = []testTransport{{"pooled", false}, {"fresh", true}}

// prepare readies ns's lane for op as the transport names: a pooled
// test warms it, a fresh one leaves it cold.
func (tt testTransport) prepare(t testing.TB, c *Client, ns *nodeState, op string) {
	t.Helper()
	if !tt.fresh {
		c.warmLane(t, ns, op)
	}
}

// warmLane opens every connection of ns's lane for op, hello answered,
// so the op's next request is written on a connection already up: a
// fault armed after it hits the request, not the hello. A fault on a
// cold lane hits the hello's own round trip, which leaves the request
// unsent.
func (c *Client) warmLane(t testing.TB, ns *nodeState, op string) {
	t.Helper()
	lane := ns.pools().lane(op)
	for range c.cfg.poolSize {
		if _, err := lane.get(5 * time.Second); err != nil {
			t.Fatalf("warming the %s lane of %s: %v", op, ns.label(), err)
		}
	}
}

// TestConcurrentTransportsAgree is the stress test of the pooled
// transport: N goroutines × M queries against a 3-node federation,
// race-clean, multiplexed on the per-node pools, every answer's
// cardinality matching the row engine over the same dataset, and no
// connection left open after Close. The dataset, templates, and
// per-goroutine SQL streams are all seeded, so every run sees a
// byte-identical workload.
func TestConcurrentTransportsAgree(t *testing.T) {
	clk := autoClock(t)
	const nClients, nQueries = 8, 5
	ds, nodes, addrs := startTestFederation(t, []float64{1, 2, 3}, onClock(clk))
	templates, err := ds.GenerateTemplates(8, 2, rand.New(rand.NewSource(23)))
	if err != nil {
		t.Fatalf("templates: %v", err)
	}
	client, err := NewClient(ClientConfig{
		network:   memWall,
		Addrs:     addrs,
		Mechanism: MechGreedy, // always offers: results depend only on the data
		PeriodMs:  25,
		Timeout:   5 * time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}

	rows := make(map[int64]int)
	sqls := make(map[int64]string)
	var mu sync.Mutex
	var wg sync.WaitGroup
	for g := 0; g < nClients; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(1000 + g)))
			for q := 0; q < nQueries; q++ {
				id := int64(g*nQueries + q)
				sql := templates[rng.Intn(len(templates))].Instantiate(rng)
				out := client.Run(id, sql)
				if out.Err != nil {
					t.Errorf("query %d: %v", id, out.Err)
					return
				}
				mu.Lock()
				rows[id], sqls[id] = out.Rows, sql
				mu.Unlock()
			}
		}(g)
	}
	wg.Wait()

	// No leaked connections: closing the client must sever every
	// persistent connection it holds.
	client.Close()
	settle(t, func() bool {
		open := 0
		for _, n := range nodes {
			open += n.openConns()
		}
		return open == 0
	}, "connections still open after Close")

	if len(rows) != nClients*nQueries {
		t.Fatalf("completed %d queries, want %d", len(rows), nClients*nQueries)
	}
	// The oracle: any replica that holds a query's relations answers it
	// alike, so the first one the row engine can run it on is the truth.
	for id, got := range rows {
		want := -1
		for _, db := range ds.DBs {
			if res, err := db.Query(sqls[id]); err == nil {
				want = len(res.Rows)
				break
			}
		}
		if got != want {
			t.Errorf("query %d (%s): %d rows, the row engine says %d", id, sqls[id], got, want)
		}
	}
}

// TestPooledReusesConnections pins the point of the pool: a burst of
// sequential RPCs must not dial per RPC. With two connections per lane
// and two lanes the client needs at most 4 connections to one node.
func TestPooledReusesConnections(t *testing.T) {
	_, nodes, addrs := startTestFederation(t, []float64{1}, nil)
	client, err := NewClient(ClientConfig{
		network: memWall,
		Addrs:   addrs, Mechanism: MechGreedy, PeriodMs: 25,
		Timeout: 5 * time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()
	for i := 0; i < 20; i++ {
		if _, err := client.Stats(addrs[0]); err != nil {
			t.Fatal(err)
		}
	}
	if open := nodes[0].openConns(); open > 4 {
		t.Fatalf("pooled transport holds %d conns after 20 RPCs, want <= 4", open)
	}
	// The latency histogram saw every exchange.
	sum, ok := client.OpLatencies()["stats"]
	if !ok || sum.Count != 20 {
		t.Fatalf("stats latency summary = %+v, want 20 observations", sum)
	}
	if sum.P50Ms <= 0 || sum.P99Ms < sum.P50Ms || sum.MaxMs < sum.P99Ms {
		t.Fatalf("implausible latency summary %v", sum)
	}
}

// TestMultiplexedPipelining drives many concurrent RPCs through a
// single-connection pool and checks every caller gets its own reply —
// the demux-by-id property, exercised directly.
func TestMultiplexedPipelining(t *testing.T) {
	_, _, addrs := startTestFederation(t, []float64{1}, nil)
	client, err := NewClient(ClientConfig{
		network: memWall,
		Addrs:   addrs, Mechanism: MechGreedy, PeriodMs: 25,
		Timeout: 5 * time.Second, poolSize: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()
	var wg sync.WaitGroup
	errs := make(chan error, 32)
	for g := 0; g < 32; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			st, err := client.Stats(addrs[0])
			if err != nil {
				errs <- err
				return
			}
			if st.Health == nil {
				// A stats reply always carries the health map; a reply
				// without one would mean a crossed or dropped demux.
				errs <- fmt.Errorf("empty stats reply")
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

// writeFailConn is a connection whose every write fails.
type writeFailConn struct{ net.Conn }

func (writeFailConn) Write([]byte) (int, error) { return 0, errors.New("broken pipe") }

// TestDeadConnectionCallIsNotSent: a call on a connection that died
// after the pool handed it out writes nothing, so the node never saw
// the request and failing over is safe. A write that fails after the
// call registered may have put bytes on the wire: a lost reply.
func TestDeadConnectionCallIsNotSent(t *testing.T) {
	ns := &nodeState{breaker: newBreaker(3, time.Second, wallClock{}, nil), id: "n", addr: "n"}
	for _, tc := range []struct {
		name string
		mc   func(conn net.Conn) *mconn
		want attemptKind
	}{
		{"dead before the call", func(conn net.Conn) *mconn {
			mc := newMconn(conn, wallClock{})
			mc.fail(io.EOF)
			return mc
		}, attemptNotSent},
		{"write fails", func(conn net.Conn) *mconn { return newMconn(writeFailConn{conn}, wallClock{}) }, attemptLost},
	} {
		t.Run(tc.name, func(t *testing.T) {
			server, client := net.Pipe()
			defer server.Close()
			mc := tc.mc(client)
			defer mc.fail(errPoolClosed)
			err := mc.call(&request{Op: "execute"}, &reply{}, time.Second, nil)
			if kind, err := classifyTransport(ns, "execute", err); kind != tc.want {
				t.Fatalf("kind = %v (%v), want %v", kind, err, tc.want)
			}
		})
	}
}

// openConns reports how many client connections the node tracks.
func (n *Node) openConns() int {
	n.connMu.Lock()
	defer n.connMu.Unlock()
	return len(n.conns)
}
