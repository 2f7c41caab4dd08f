package cluster

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"io"
	"net"
	"strings"
	"syscall"
	"testing"
	"time"
)

// startStub runs a minimal wire-speaking fake node: it accepts every
// hello as node "stub" and answers every other request with answer's
// reply, under the request's frame id, one request at a time per
// connection.
func startStub(t *testing.T, answer func(req *request) reply) string {
	t.Helper()
	ln, err := memWall.listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ln.Close() })
	go func() {
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			go func() {
				defer conn.Close()
				r := bufio.NewReader(conn)
				w := bufio.NewWriter(conn)
				for {
					var req request
					id, err := recvRequest(r, &req)
					if err != nil {
						return
					}
					rep := reply{Hello: &helloReply{NodeID: "stub"}}
					if req.Op != "hello" {
						rep = answer(&req)
					}
					if err := writeMsg(w, id, maxFramePayload, &rep); err != nil {
						return
					}
				}
			}()
		}
	}()
	return ln.Addr().String()
}

// recvRequest reads one request, a request frame or a message frame as
// its op travels, into req and returns its id.
func recvRequest(r *bufio.Reader, req *request) (uint64, error) {
	fm, err := readFrame(r, maxRequestBytes)
	if err != nil {
		return 0, err
	}
	if fm.typ == frameTypeReq {
		defer fm.release()
		return fm.id, decodeRequest(fm.payload, req)
	}
	return fm.id, decodeMsg(fm, req)
}

// recvMsg reads one message frame into v and returns its id.
func recvMsg(r *bufio.Reader, v any) (uint64, error) {
	fm, err := readFrame(r, maxFramePayload)
	if err != nil {
		return 0, err
	}
	return fm.id, decodeMsg(fm, v)
}

// dialGreeted dials addr and says hello as run "raw": a hand-driven
// client connection in the state every pooled one starts in. The
// returned reader holds whatever followed the hello reply.
func dialGreeted(t testing.TB, addr string, mech Mechanism) (net.Conn, *bufio.Reader) {
	t.Helper()
	return dialGreetedOn(t, memWall, addr, mech)
}

// dialGreetedOn is dialGreeted on the network nw.
func dialGreetedOn(t testing.TB, nw network, addr string, mech Mechanism) (net.Conn, *bufio.Reader) {
	t.Helper()
	conn, err := nw.dial(addr, time.Second)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { conn.Close() })
	conn.SetDeadline(time.Now().Add(5 * time.Second))
	h := &hello{RunID: "raw", Mechanism: mech}
	if err := writeMsg(bufio.NewWriter(conn), 1, maxRequestBytes, &request{Op: "hello", Hello: h}); err != nil {
		t.Fatal(err)
	}
	r := bufio.NewReader(conn)
	var rep reply
	if _, err := recvMsg(r, &rep); err != nil || rep.Hello == nil {
		t.Fatalf("hello: %+v (err %v)", rep, err)
	}
	return conn, r
}

// TestWorkWithoutHelloRefused: every connection opens with a hello, so
// a connection whose first frame is anything else runs nothing. Each op
// gets the typed protocol refusal under its id, and the node hangs up:
// an execute or fetch that left out its run id would run with no dedup
// at all, and a gossip push that named no peer would be merged unseen.
// Once a connection has said hello, a batched CFP on it is solved and
// answered positionally.
func TestWorkWithoutHelloRefused(t *testing.T) {
	_, node, addr, sql := protectionQuery(t, func(_ int, cfg *NodeConfig) { cfg.network = tcpNetwork{} })
	stranger := []wireMember{{ID: "stranger", Addr: "127.0.0.1:9", Incarnation: 1, Heartbeat: 1, State: "alive"}}
	for _, req := range []request{
		{Op: "negotiate", SQL: sql, Batch: []batchQuery{{QueryID: 3, SQL: sql}}},
		{Op: "execute", SQL: sql, QueryID: 1},
		{Op: "fetch", SQL: sql, QueryID: 2},
		{Op: "stats"},
		{Op: "members"},
		{Op: "spans"},
		{Op: "gossip", Gossip: &gossipPayload{Members: stranger}},
	} {
		conn, err := net.DialTimeout("tcp", addr, time.Second)
		if err != nil {
			t.Fatal(err)
		}
		conn.SetDeadline(time.Now().Add(5 * time.Second))
		if err := writeRequest(bufio.NewWriter(conn), 5, &req); err != nil {
			t.Fatal(err)
		}
		r := bufio.NewReader(conn)
		var rep reply
		id, err := recvMsg(r, &rep)
		if err != nil {
			t.Fatalf("%s: %v", req.Op, err)
		}
		if rep.Code != CodeProtocol || id != 5 || rep.Hello != nil || rep.Execute != nil || rep.Negotiate != nil ||
			rep.Batch != nil || rep.Stats != nil || rep.Members != nil || rep.Spans != nil || rep.Gossip != nil {
			t.Fatalf("%s as a first frame answered %+v under id %d, want the %q refusal alone under id 5", req.Op, rep, id, CodeProtocol)
		}
		if _, err := r.ReadByte(); err != io.EOF {
			t.Fatalf("%s: connection still open after the refusal (read err %v)", req.Op, err)
		}
		conn.Close()
	}
	if got := node.Executed(); got != 0 {
		t.Fatalf("node executed %d queries for connections with no hello, want 0", got)
	}
	for _, m := range node.Members() {
		if m.ID == "stranger" {
			t.Fatal("the node merged a gossip push that came with no hello")
		}
	}

	conn, r := dialGreetedOn(t, tcpNetwork{}, addr, MechGreedy)
	if err := writeRequest(bufio.NewWriter(conn), 1, &request{
		Op: "negotiate", SQL: sql,
		Batch: []batchQuery{{QueryID: 7, SQL: sql}, {QueryID: 8, SQL: "SELECT nope FROM missing"}},
	}); err != nil {
		t.Fatal(err)
	}
	var nrep reply
	if _, err := recvMsg(r, &nrep); err != nil {
		t.Fatal(err)
	}
	if nrep.Negotiate == nil || !nrep.Negotiate.Feasible || len(nrep.Batch) != 2 {
		t.Fatalf("batched negotiate after the hello answered %+v", nrep)
	}
	if b := nrep.Batch; b[0].Negotiate == nil || !b[0].Negotiate.Feasible || b[1].Negotiate == nil || b[1].Negotiate.Feasible {
		t.Errorf("riders answered %+v and %+v, want a proposal and an infeasible reply", b[0], b[1])
	}
}

// TestWorkInJSONRefused: negotiate, execute and fetch have one
// encoding, the request frame. The same op in a JSON message frame, after
// a hello the node accepted, gets the typed protocol refusal under its
// id, and the node hangs up having run nothing.
func TestWorkInJSONRefused(t *testing.T) {
	_, node, addr, sql := protectionQuery(t, nil)
	for _, op := range []string{"negotiate", "execute", "fetch"} {
		conn, r := dialGreeted(t, addr, MechGreedy)
		msg := map[string]any{"op": op, "sql": sql, "query_id": 1}
		if err := writeMsg(bufio.NewWriter(conn), 4, maxRequestBytes, msg); err != nil {
			t.Fatal(err)
		}
		var rep reply
		id, err := recvMsg(r, &rep)
		if err != nil || id != 4 || rep.Code != CodeProtocol || rep.Err != msgWorkInJSON {
			t.Fatalf("%s in a message frame answered %+v under id %d (err %v), want the %q refusal under id 4", op, rep, id, err, CodeProtocol)
		}
		if _, err := r.ReadByte(); err != io.EOF {
			t.Fatalf("%s: connection still open after the refusal (read err %v)", op, err)
		}
	}
	if got := node.Executed(); got != 0 {
		t.Fatalf("node executed %d queries sent as JSON, want 0", got)
	}
}

// TestUnknownMechanismRefused: a node runs any mechanism but qa-nt as
// greedy, so a misspelt name ("qant") would always be offered and never
// charged to the node's market. A client refuses to start with one, and
// a node answers a hello naming one with the typed protocol refusal and
// hangs up, before the execute behind it runs or trades.
func TestUnknownMechanismRefused(t *testing.T) {
	_, node, addr, sql := protectionQuery(t, nil)
	c, err := NewClient(ClientConfig{network: memWall, Addrs: []string{addr}, Mechanism: "qant"})
	if err == nil {
		c.Close()
		t.Fatal(`NewClient accepted mechanism "qant"`)
	}
	if msg := err.Error(); !strings.Contains(msg, `"greedy"`) || !strings.Contains(msg, `"qa-nt"`) {
		t.Errorf("the refusal %q does not name both mechanisms", msg)
	}

	before := node.MarketTelemetry().Stats
	conn, err := memWall.dial(addr, time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	conn.SetDeadline(time.Now().Add(5 * time.Second))
	// The hello and the execute behind it leave in one write: the node
	// hangs up once it has refused the hello, and a second write could
	// meet the closed connection.
	var out bytes.Buffer
	w := bufio.NewWriter(&out)
	if err := writeMsg(w, 1, maxRequestBytes, &request{Op: "hello", Hello: &hello{RunID: "raw", Mechanism: "qant"}}); err != nil {
		t.Fatal(err)
	}
	if err := writeRequest(w, 2, &request{Op: "execute", SQL: sql, QueryID: 1}); err != nil {
		t.Fatal(err)
	}
	if _, err := conn.Write(out.Bytes()); err != nil {
		t.Fatal(err)
	}
	r := bufio.NewReader(conn)
	var rep reply
	id, err := recvMsg(r, &rep)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Code != CodeProtocol || rep.Hello != nil || id != 1 || !strings.Contains(rep.Err, `"qant"`) {
		t.Fatalf(`hello naming "qant" answered %+v under id %d, want the %q refusal under id 1`, rep, id, CodeProtocol)
	}
	// The node closes with the execute still unread, so the kernel may
	// answer that close with a reset instead of a FIN: both are a close.
	if _, err := r.ReadByte(); err != io.EOF && !errors.Is(err, syscall.ECONNRESET) {
		t.Fatalf("connection still open after the refusal (read err %v)", err)
	}
	if got := node.Executed(); got != 0 {
		t.Errorf("node executed %d queries behind a refused hello, want 0", got)
	}
	if after := node.MarketTelemetry().Stats; after != before {
		t.Errorf("market counters moved %+v → %+v", before, after)
	}
}

// TestHelloVersionMismatch: a node refuses a frame of another protocol
// version with the typed code and closes the connection, and a client
// whose only offering node refuses its hello — or answers it in another
// version's frames — fails the query with a typed error after one
// round, having run it nowhere.
func TestHelloVersionMismatch(t *testing.T) {
	_, node, addr, sql := protectionQuery(t, nil)

	t.Run("raw-wire", func(t *testing.T) {
		conn, err := memWall.dial(addr, time.Second)
		if err != nil {
			t.Fatal(err)
		}
		defer conn.Close()
		conn.SetDeadline(time.Now().Add(5 * time.Second))
		var buf bytes.Buffer
		if err := writeMsg(bufio.NewWriter(&buf), 1, maxRequestBytes, &request{Op: "hello", Hello: &hello{RunID: "future", Mechanism: MechQANT}}); err != nil {
			t.Fatal(err)
		}
		frame := buf.Bytes()
		frame[1] = protocolVersion + 1
		if _, err := conn.Write(frame); err != nil {
			t.Fatal(err)
		}
		r := bufio.NewReader(conn)
		var rep reply
		id, err := recvMsg(r, &rep)
		if err != nil {
			t.Fatal(err)
		}
		if rep.Code != CodeProtocol || rep.Hello != nil || id != 1 {
			t.Fatalf("hello v%d answered %+v under id %d, want the %q refusal under id 1", frame[1], rep, id, CodeProtocol)
		}
		if _, err := r.ReadByte(); err != io.EOF {
			t.Fatalf("connection still open after the refusal (read err %v)", err)
		}
	})

	for _, tc := range []struct {
		name   string
		toNode bool
	}{
		{"client", true},                      // a client from another protocol version
		{"client-reads-other-version", false}, // a node from another protocol version
	} {
		t.Run(tc.name, func(t *testing.T) {
			c, err := NewClient(ClientConfig{network: memWall, Addrs: []string{versionProxy(t, addr, tc.toNode)}, Mechanism: MechQANT, PeriodMs: 10, MaxRetries: 5})
			if err != nil {
				t.Fatal(err)
			}
			defer c.Close()
			out := c.Run(1, sql)
			if !errors.Is(out.Err, errHelloRefused) {
				t.Fatalf("err = %v, want %v", out.Err, errHelloRefused)
			}
			if out.Retries != 0 {
				t.Errorf("retries = %d: resubmitted to a node that cannot serve the client", out.Retries)
			}
			if got := node.Executed(); got != 0 {
				t.Fatalf("node executed %d queries for a refused client, want 0", got)
			}
		})
	}
}

// versionProxy relays connections to addr and stamps another protocol
// version into the first frame header that crosses it towards the node
// (toNode) or back to the client: a peer of another version, as far as
// the other end can tell.
func versionProxy(t *testing.T, addr string, toNode bool) string {
	t.Helper()
	ln, err := memWall.listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ln.Close() })
	relay := func(dst, src net.Conn, stamp bool) {
		defer dst.Close()
		if stamp {
			var hdr [frameHdrLen]byte
			if _, err := io.ReadFull(src, hdr[:]); err != nil {
				return
			}
			hdr[1] = protocolVersion + 1
			if _, err := dst.Write(hdr[:]); err != nil {
				return
			}
		}
		io.Copy(dst, src)
	}
	go func() {
		for {
			client, err := ln.Accept()
			if err != nil {
				return
			}
			server, err := memWall.dial(addr, time.Second)
			if err != nil {
				client.Close()
				continue
			}
			go relay(server, client, toNode)
			go relay(client, server, !toNode)
		}
	}()
	return ln.Addr().String()
}

// helloBytes is how many bytes node n's answer to a hello takes on the
// wire: a fault that cuts a connection this far in hits the first reply
// after it.
func helloBytes(t *testing.T, n *Node) int {
	t.Helper()
	b, err := json.Marshal(reply{Hello: &helloReply{NodeID: n.ID(), Boot: n.boot}})
	if err != nil {
		t.Fatal(err)
	}
	return frameHdrLen + len(b)
}
