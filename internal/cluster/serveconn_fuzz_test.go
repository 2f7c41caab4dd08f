package cluster

import (
	"bufio"
	"encoding/json"
	"errors"
	"io"
	"testing"
	"time"

	"github.com/qamarket/qamarket/internal/engine"
	"github.com/qamarket/qamarket/internal/sqldb"
)

// FuzzServeConn feeds a node arbitrary frames as a connection's first
// and later messages, over the in-memory network: no socket per input.
// The first is a message frame; the later one a request frame when
// binary is set, else a message frame. The node runs on a fake clock
// nobody advances, so no period, gossip round or execution stretch moves
// between inputs. It holds the request path to four promises:
//
//   - no input panics the node (the fuzzer would report it);
//   - a first frame that is not a hello the node accepts is refused —
//     the typed protocol refusal or nothing — and the connection closed,
//     having run nothing;
//   - a work op in a message frame gets the typed protocol refusal and
//     the connection closes, having run nothing;
//   - a gossip merge never drops a member the node knows.
func FuzzServeConn(f *testing.F) {
	for _, seed := range [][2]string{
		{`{"op":"hello","hello":{"run_id":"r","mechanism":"qa-nt"}}`, `{"op":"stats"}`},
		{`{"op":"hello","hello":{"run_id":"r","mechanism":"greedy","future":true}}`, `{"op":"negotiate","sql":"SELECT a FROM t"}`},
		{`{"op":"hello","hello":{"run_id":"r"}}`, `{"op":"execute","sql":"SELECT a, b FROM t","query_id":1}`},
		{`{"op":"hello","hello":{"run_id":"r","mechanism":"greedy"}}`, `{"op":"fetch","sql":"SELECT a, b FROM t","query_id":2}`},
		{`{"op":"hello","hello":{"run_id":"g"}}`, `{"op":"gossip","gossip":{"members":[{"id":"known","addr":"mem:x","inc":9,"hb":1,"state":"dead","shard":7}]}}`},
		{`{"op":"hello","hello":{"run_id":"g"}}`, `{"op":"gossip","gossip":{"members":[{"id":"","state":"left"},{"id":"new","inc":1,"state":"alive"}]}}`},
		{`{"op":"hello","hello":{"run_id":"r","mechanism":"qant"}}`, `{"op":"stats"}`},
		{`{"op":"stats"}`, `{"op":"stats"}`},
		{`{"op":"gossip","gossip":{"members":[{"id":"stranger","inc":1,"state":"alive"}]}}`, ``},
		{`{"op":"hello"}`, ``},
		{`not json`, `{"op":"members"}`},
	} {
		f.Add([]byte(seed[0]), []byte(seed[1]), false)
	}
	// Work ops as request frames, the way a client sends them, each
	// behind a hello that lets it run.
	for _, seed := range []struct {
		hello string
		req   *request
	}{
		{`{"op":"hello","hello":{"run_id":"r","mechanism":"qa-nt"}}`, &request{Op: "negotiate", SQL: "SELECT a FROM t", DeadlineMs: 50,
			Batch: []batchQuery{{QueryID: 2, SQL: "SELECT b FROM t"}, {SQL: "SELECT nope FROM t"}}, Trace: &traceCtx{ID: 1, Span: "s"}}},
		{`{"op":"hello","hello":{"run_id":"r"}}`, &request{Op: "execute", SQL: "SELECT a, b FROM t", QueryID: 1, Release: []uint64{1}}},
		{`{"op":"hello","hello":{"run_id":"r","mechanism":"greedy"}}`, &request{Op: "fetch", SQL: "SELECT a, b FROM t", QueryID: 2}},
	} {
		f.Add([]byte(seed.hello), appendRequest(nil, 2, seed.req)[frameHdrLen:], true)
	}

	db := sqldb.Open()
	for _, q := range []string{"CREATE TABLE t (a INT, b INT)", "INSERT INTO t VALUES (1, 2), (3, 4)"} {
		if _, _, err := db.Exec(q); err != nil {
			f.Fatal(err)
		}
	}
	clk := newFakeClock()
	node, err := StartNode("127.0.0.1:0", NodeConfig{
		clock: clk, network: newMemNet(clk), NodeID: "fuzz",
		Driver: engine.FromDB(db), MsPerCostUnit: 1e-12,
	})
	if err != nil {
		f.Fatal(err)
	}
	f.Cleanup(func() { node.CloseNow() })
	// The node knows one member besides itself from the start.
	conn, r := dialGreeted(f, node.Addr(), "")
	push := &request{Op: "gossip", Gossip: &gossipPayload{Members: []wireMember{
		{ID: "known", Addr: "mem:known", Incarnation: 1, Heartbeat: 1, State: "alive"},
	}}}
	var rep reply
	if err := writeMsg(bufio.NewWriter(conn), 2, maxRequestBytes, push); err != nil {
		f.Fatal(err)
	}
	if _, err := recvMsg(r, &rep); err != nil || rep.Gossip == nil {
		f.Fatalf("seeding gossip: %+v (err %v)", rep, err)
	}
	conn.Close()

	f.Fuzz(func(t *testing.T, first, later []byte, binary bool) {
		known := make(map[string]bool)
		for _, m := range node.Members() {
			known[m.ID] = true
		}
		executed := node.Executed()

		conn, err := memWall.dial(node.Addr(), time.Second)
		if err != nil {
			t.Fatal(err)
		}
		defer conn.Close()
		conn.SetDeadline(time.Now().Add(5 * time.Second)) // a guard: every answer is due at once
		w := bufio.NewWriter(conn)
		// A write the node has hung up on fails here and shows as EOF on
		// the read that follows, which is what the checks read.
		writeRaw := func(id uint64, typ byte, payload []byte) {
			buf, hdr := beginFrame(nil, typ, id)
			_, _ = w.Write(endFrame(append(buf, payload...), hdr))
			_ = w.Flush()
		}
		r := bufio.NewReader(conn)
		writeRaw(1, frameTypeMsg, first)

		var req request
		accepted := json.Unmarshal(first, &req) == nil && req.Op == "hello" && req.Hello != nil &&
			req.Hello.RunID != "" && (req.Hello.Mechanism == "" || req.Hello.Mechanism.check() == nil)
		if !accepted {
			fm, err := readFrame(r, maxFramePayload)
			if err == nil {
				var rep reply
				if err := decodeMsg(fm, &rep); err != nil || rep.Code != CodeProtocol || rep.Hello != nil {
					t.Fatalf("first frame %q answered %+v (err %v), want the protocol refusal", first, rep, err)
				}
				_, err = readFrame(r, maxFramePayload)
			}
			if !errors.Is(err, io.EOF) {
				t.Fatalf("first frame %q: the connection stayed open (read err %v)", first, err)
			}
			if got := node.Executed(); got != executed {
				t.Fatalf("first frame %q ran %d queries", first, got-executed)
			}
		} else {
			var rep reply
			if _, err := recvMsg(r, &rep); err != nil || rep.Hello == nil || rep.Hello.NodeID != "fuzz" {
				t.Fatalf("hello %q answered %+v (err %v)", first, rep, err)
			}
			typ := byte(frameTypeMsg)
			if binary {
				typ = frameTypeReq
			}
			writeRaw(2, typ, later)
			var req request
			if !binary && json.Unmarshal(later, &req) == nil && workOp(req.Op) != 0 {
				var rep reply
				if _, err := recvMsg(r, &rep); err != nil || rep.Code != CodeProtocol {
					t.Fatalf("%s in a message frame answered %+v (err %v), want the protocol refusal", later, rep, err)
				}
				if _, err := readFrame(r, maxFramePayload); !errors.Is(err, io.EOF) {
					t.Fatalf("%s in a message frame: the connection stayed open (read err %v)", later, err)
				}
				if got := node.Executed(); got != executed {
					t.Fatalf("%s in a message frame ran %d queries", later, got-executed)
				}
			}
			// Read to the request's last frame: a message, or a fetch
			// stream's end; an unreadable request closes the connection.
			for {
				fm, err := readFrame(r, maxFramePayload)
				if err != nil {
					if !errors.Is(err, io.EOF) {
						t.Fatalf("request %q: %v", later, err)
					}
					break
				}
				typ := fm.typ
				fm.release()
				if typ == frameTypeMsg || typ == frameTypeEnd {
					break
				}
			}
		}

		members := make(map[string]bool)
		for _, m := range node.Members() {
			members[m.ID] = true
		}
		for id := range known {
			if !members[id] {
				t.Fatalf("after %q then %q the node dropped member %q", first, later, id)
			}
		}
	})
}
