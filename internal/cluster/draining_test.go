package cluster

import (
	"bufio"
	"errors"
	"net"
	"testing"
	"time"

	"github.com/qamarket/qamarket/internal/metrics"
	"github.com/qamarket/qamarket/internal/sqldb"
)

// startCodedStub runs a stub that answers every request past the
// hello, regardless of op, with the given typed refusal.
func startCodedStub(t *testing.T, code, msg string) string {
	t.Helper()
	return startStub(t, func(*request) reply { return reply{Err: msg, Code: code} })
}

// startDrainingStub answers everything with the typed draining refusal
// a real node sends for non-stats ops during graceful drain.
func startDrainingStub(t *testing.T) string {
	t.Helper()
	return startCodedStub(t, CodeDraining, "node draining")
}

// breakerOps are the client ops the typed-reply audits drive: every
// wire op, with fetch under both sink kinds. op is the wire op sent.
var breakerOps = []struct {
	name, op string
	call     func(t *testing.T, c *Client) error
}{
	{"negotiate", "negotiate", func(t *testing.T, c *Client) error {
		_, _, err := c.neg.negotiate(0, "SELECT 1 FROM t", "", nil, time.Time{})
		return err
	}},
	{"execute", "execute", func(t *testing.T, c *Client) error {
		_, _, err := c.executeOn(c.nodes()[0], 1, "SELECT 1 FROM t", nil, time.Time{})
		return err
	}},
	{"fetch", "fetch", func(t *testing.T, c *Client) error {
		q := query{id: 1, sql: "SELECT 1 FROM t", sink: accumulateSink(&sqldb.Result{})}
		return c.begin(q).attempt(c.nodes()[0]).err
	}},
	{"fetch-each", "fetch", func(t *testing.T, c *Client) error {
		q := query{id: 1, sql: "SELECT 1 FROM t", sink: &fetchSink{block: func(*ColBlock) error { return nil }}}
		return c.begin(q).attempt(c.nodes()[0]).err
	}},
	{"stats", "stats", func(t *testing.T, c *Client) error {
		_, err := c.Stats(c.nodes()[0].address())
		return err
	}},
}

// TestDrainingTripsBreakerOnEveryOp is the audit the draining satellite
// asks for: every client op that receives a typed draining reply must
// trip the node's breaker the same way, on a warm lane and a cold one.
func TestDrainingTripsBreakerOnEveryOp(t *testing.T) {
	for _, transport := range transports {
		for _, op := range breakerOps {
			t.Run(transport.name+"/"+op.name, func(t *testing.T) {
				addr := startDrainingStub(t)
				c, err := NewClient(ClientConfig{
					network: memWall,
					Addrs:   []string{addr},
					Timeout: 2 * time.Second,
					// High threshold proves the open circuit came from the
					// typed trip, not accumulated failures.
					breakerThreshold: 100,
				})
				if err != nil {
					t.Fatal(err)
				}
				defer c.Close()
				transport.prepare(t, c, c.nodes()[0], op.op)
				if err := op.call(t, c); err == nil {
					t.Fatalf("%s against draining node succeeded", op.name)
				}
				if st := c.nodes()[0].breaker.snapshot(); st != breakerOpen {
					t.Fatalf("breaker after draining %s = %v, want open", op.name, st)
				}
				if got := c.Health()[metrics.BreakerOpenTotal]; got != 1 {
					t.Fatalf("breaker_open_total = %v, want 1", got)
				}
			})
		}
	}
}

// TestMarketRefusalsDoNotTripBreaker is the overload-satellite
// counterpart: typed overload and expired replies are market refusals
// from live nodes, so none of the four ops may charge them to the
// circuit breaker — while a transport error on the same op still must.
func TestMarketRefusalsDoNotTripBreaker(t *testing.T) {
	refusals := []struct {
		code, msg string
	}{
		{CodeOverload, msgOverloaded},
		{CodeExpired, msgExpired},
	}
	for _, transport := range transports {
		for _, refusal := range refusals {
			for _, op := range breakerOps {
				t.Run(transport.name+"/"+refusal.code+"/"+op.name, func(t *testing.T) {
					addr := startCodedStub(t, refusal.code, refusal.msg)
					c, err := NewClient(ClientConfig{
						network: memWall,
						Addrs:   []string{addr},
						Timeout: 2 * time.Second,
						// Threshold 1: a single failure charged to the breaker
						// would open it, so a closed breaker after the call
						// proves the refusal was not charged at all.
						breakerThreshold: 1,
					})
					if err != nil {
						t.Fatal(err)
					}
					defer c.Close()
					transport.prepare(t, c, c.nodes()[0], op.op)
					op.call(t, c)
					if st := c.nodes()[0].breaker.snapshot(); st != breakerClosed {
						t.Fatalf("breaker after typed %s %s = %v, want closed", refusal.code, op.name, st)
					}
					if got := c.Health()[metrics.BreakerOpenTotal]; got != 0 {
						t.Fatalf("breaker_open_total = %v, want 0", got)
					}
				})
			}
		}
	}
	// Control: the work ops against a dead address must still charge the
	// breaker — typed refusals are special, transport errors are not.
	// (Stats is excluded by design: it is an out-of-band observability
	// op whose transport failures never feed the breaker.)
	for _, op := range breakerOps {
		if op.name == "stats" {
			continue
		}
		t.Run("transport-error/"+op.name, func(t *testing.T) {
			ln, err := memWall.listen("127.0.0.1:0")
			if err != nil {
				t.Fatal(err)
			}
			addr := ln.Addr().String()
			ln.Close() // nothing listens here anymore: dials are refused
			c, err := NewClient(ClientConfig{
				network:          memWall,
				Addrs:            []string{addr},
				Timeout:          500 * time.Millisecond,
				breakerThreshold: 1,
			})
			if err != nil {
				t.Fatal(err)
			}
			defer c.Close()
			if err := op.call(t, c); err == nil {
				t.Fatalf("%s against dead address succeeded", op.name)
			}
			if st := c.nodes()[0].breaker.snapshot(); st != breakerOpen {
				t.Fatalf("breaker after %s transport error = %v, want open", op.name, st)
			}
		})
	}
}

// TestFetchRefusalsAnswerInJSON: a fetch that does not run to a result
// is answered in the JSON envelope an execute gets, never in frames, and
// the client classifies it on a warm lane and a cold one as it
// classifies the execute's: market refusals leave the breaker closed
// and may move on, a draining or stopping node opens it, and a SQL
// error is terminal.
func TestFetchRefusalsAnswerInJSON(t *testing.T) {
	cases := []struct {
		name, sql, code string
		arm             func(n *Node)
		kind            attemptKind
		err             error // nil: an untyped terminal error
		breaker         breakerState
	}{
		{name: "overload", code: CodeOverload, kind: attemptRefused, err: ErrOverloaded,
			arm: func(n *Node) { n.working.Add(int64(n.cfg.MaxInflight)) }},
		{name: "expired", code: CodeExpired, kind: attemptRefused, err: ErrExpired,
			arm: func(n *Node) {
				n.mu.Lock()
				n.backlogMs = 1e12
				n.mu.Unlock()
			}},
		{name: "draining", code: CodeDraining, kind: attemptRefused, err: errDraining, breaker: breakerOpen,
			arm: func(n *Node) { n.draining.Store(true) }},
		{name: "sql error", sql: "SELECT nope FROM missing", kind: attemptFatal},
		// The executor has stopped while connections are still up: the
		// window a hard stop opens before it severs them.
		{name: "node stopping", kind: attemptRefused, breaker: breakerOpen,
			arm: func(n *Node) { n.stopOnce.Do(func() { close(n.stopCh) }) }},
	}
	for _, transport := range transports {
		for _, tc := range cases {
			t.Run(transport.name+"/"+tc.name, func(t *testing.T) {
				n, c, _ := selFederation(t, nil, 0, ClientConfig{
					QueryTimeout: 10 * time.Second, breakerThreshold: 1,
				})
				transport.prepare(t, c, c.nodes()[0], "fetch")
				// A stopped executor leaves CloseNow nothing to do; finish the
				// stop it began.
				t.Cleanup(func() { n.CloseNow(); n.ln.Close(); n.closeConns(); n.wg.Wait() })
				sql := tc.sql
				if sql == "" {
					sql = selTestNarrow
				}
				if tc.arm != nil {
					tc.arm(n)
				}

				conn, r := dialGreeted(t, n.Addr(), MechGreedy)
				if err := writeRequest(bufio.NewWriter(conn), 1, &request{Op: "fetch", SQL: sql, DeadlineMs: 10_000}); err != nil {
					t.Fatal(err)
				}
				var rep reply
				if _, err := recvMsg(r, &rep); err != nil {
					t.Fatalf("refused fetch: %v, want a message frame", err)
				}
				// The node-wide gates (inflight, drain) refuse in the envelope
				// itself, everything past them in its execute reply.
				refused := rep.Err != "" || rep.Execute != nil && !rep.Execute.Accepted && rep.Execute.Err != ""
				if rep.Code != tc.code || !refused {
					t.Fatalf("reply = %+v (execute %+v), want code %q and an error", rep, rep.Execute, tc.code)
				}

				q := query{id: 1, sql: sql, sink: accumulateSink(&sqldb.Result{})}
				res := c.begin(q).attempt(c.nodes()[0])
				if res.kind != tc.kind {
					t.Fatalf("attempt kind = %v (err %v), want %v", res.kind, res.err, tc.kind)
				}
				if tc.err != nil && !errors.Is(res.err, tc.err) {
					t.Fatalf("err = %v, want %v", res.err, tc.err)
				}
				if st := c.nodes()[0].breaker.snapshot(); st != tc.breaker {
					t.Fatalf("breaker = %v, want %v", st, tc.breaker)
				}
			})
		}
	}
}

// TestConnAcceptedAcrossHardStopIsClosed: a connection the accept loop
// took just before a hard stop, whose serveConn starts only after
// closeConns ran, is closed at once. It used to be tracked too late to
// be severed, so its serveConn waited on the idle client and the stop's
// wg.Wait with it (TestDistributorRetriesAcrossDeparture hung once).
func TestConnAcceptedAcrossHardStopIsClosed(t *testing.T) {
	n := &Node{conns: make(map[net.Conn]struct{})}
	n.closeConns()
	server, client := net.Pipe()
	defer client.Close()
	done := make(chan struct{})
	go func() {
		n.serveConn(server)
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("serveConn kept a connection accepted after the hard stop")
	}
}
