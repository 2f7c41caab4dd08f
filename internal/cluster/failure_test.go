package cluster

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"math/rand"
	"runtime"
	"strings"
	"testing"
	"time"

	"github.com/qamarket/qamarket/internal/engine"
	"github.com/qamarket/qamarket/internal/sqldb"
)

// TestNodeFailureMidWorkload kills one node partway through a workload
// and verifies the client keeps completing queries on the survivors.
func TestNodeFailureMidWorkload(t *testing.T) {
	clk := autoClock(t)
	ds, nodes, addrs := startTestFederation(t, []float64{1, 1, 1}, onClock(clk))
	client, err := NewClient(ClientConfig{
		network: newMemNet(clk),
		clock:   clk,
		Addrs:   addrs, Mechanism: MechGreedy, PeriodMs: 50, Timeout: 2 * time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(41))
	templates, err := ds.GenerateTemplates(6, 1, rng)
	if err != nil {
		t.Fatal(err)
	}
	completed, failed := 0, 0
	for qi := 0; qi < 30; qi++ {
		if qi == 10 {
			nodes[2].Close() // node 2 dies mid-run
		}
		out := client.Run(int64(qi), templates[qi%len(templates)].Instantiate(rng))
		if out.Err != nil {
			failed++
			continue
		}
		completed++
		if qi > 10 && out.Node == nodes[2].ID() {
			t.Errorf("query %d assigned to the dead node", qi)
		}
	}
	// Queries answerable by the survivors must keep completing. Some
	// relations may have lived only on node 2; those fail legitimately.
	if completed < 15 {
		t.Errorf("only %d/30 completed after one node died", completed)
	}
	t.Logf("completed=%d failed=%d after mid-run node loss", completed, failed)
}

// TestAllNodesDown verifies a clean client error when nobody answers.
func TestAllNodesDown(t *testing.T) {
	client, err := NewClient(ClientConfig{
		network: memWall,
		Addrs:   []string{"127.0.0.1:1", "127.0.0.1:2"}, Mechanism: MechGreedy,
		PeriodMs: 20, MaxRetries: 1, Timeout: 200 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	out := client.Run(1, "SELECT 1 FROM t")
	if out.Err == nil {
		t.Fatal("dead federation produced a result")
	}
	if !strings.Contains(out.Err.Error(), "no node reachable") {
		t.Errorf("unexpected error: %v", out.Err)
	}
}

// TestMalformedRequests throws protocol garbage at a node and checks
// it survives and keeps serving well-formed clients.
func TestMalformedRequests(t *testing.T) {
	clk := autoClock(t)
	db := sqldb.Open()
	if _, _, err := db.Exec("CREATE TABLE t (a INT)"); err != nil {
		t.Fatal(err)
	}
	if _, _, err := db.Exec("INSERT INTO t VALUES (1)"); err != nil {
		t.Fatal(err)
	}
	node, err := StartNode("127.0.0.1:0", NodeConfig{network: memWall, Driver: engine.FromDB(db), MsPerCostUnit: 0.001})
	if err != nil {
		t.Fatal(err)
	}
	defer node.Close()

	lines := []string{
		"this is not json\n",
		"{\"op\": 12}\n",
		"{\"op\": \"nonsense\"}\n",
		"{\"op\": \"execute\"}\n",                     // missing SQL
		"{\"op\": \"negotiate\", \"sql\": \"???\"}\n", // unparseable SQL
		strings.Repeat("x", 1<<16) + "\n",
		// Over the request bound: a hostile client announcing an endless
		// request must be cut off at maxRequestBytes, not buffered.
		"{\"op\": \"negotiate\", \"sql\": \"" + strings.Repeat("y", maxRequestBytes+1024) + "\"}\n",
	}
	// Each line is thrown raw, the newline-delimited form this protocol
	// no longer reads, and as the payload of a well-formed message frame.
	var garbage []string
	for _, g := range lines {
		buf, hdr := beginFrame(nil, frameTypeMsg, 1)
		garbage = append(garbage, g, string(endFrame(append(buf, g...), hdr)))
	}
	for i, g := range garbage {
		conn, err := memWall.dial(node.Addr(), time.Second)
		if err != nil {
			t.Fatalf("dial %d: %v", i, err)
		}
		if _, err := conn.Write([]byte(g)); err == nil {
			// Read whatever comes back (error reply or close) and move on.
			conn.SetReadDeadline(clk.now().Add(500 * time.Millisecond))
			readFrame(bufio.NewReader(conn), maxFramePayload)
		}
		conn.Close()
	}
	// The node must still answer a healthy client.
	client, err := NewClient(ClientConfig{network: newMemNet(clk), clock: clk, Addrs: []string{node.Addr()}, Mechanism: MechGreedy})
	if err != nil {
		t.Fatal(err)
	}
	out := client.Run(1, "SELECT COUNT(*) FROM t")
	if out.Err != nil {
		t.Fatalf("node unhealthy after garbage: %v", out.Err)
	}
}

// TestRequestFrameBound exercises the request bound: a request of up to
// maxRequestBytes is read whole, and a header announcing more is
// refused from the header alone. A node answers it with the typed
// too_large refusal at once, before any payload has arrived, and hangs
// up.
func TestRequestFrameBound(t *testing.T) {
	sql := strings.Repeat("a", maxRequestBytes-64)
	var buf bytes.Buffer
	if err := writeRequest(bufio.NewWriter(&buf), 1, &request{Op: "negotiate", SQL: sql}); err != nil {
		t.Fatal(err)
	}
	var req request
	if _, err := recvRequest(bufio.NewReaderSize(&buf, 64), &req); err != nil || req.SQL != sql {
		t.Fatalf("request under the bound: %d-byte SQL back, err %v", len(req.SQL), err)
	}

	hdr, _ := beginFrame(nil, frameTypeMsg, 9)
	binary.LittleEndian.PutUint32(hdr[12:], maxRequestBytes+1)
	if _, err := readFrame(bufio.NewReader(bytes.NewReader(hdr)), maxRequestBytes); !errors.Is(err, ErrTooLarge) {
		t.Fatalf("header over the bound: got %v, want %v", err, ErrTooLarge)
	}

	_, _, addr, _ := protectionQuery(t, nil)
	conn, err := memWall.dial(addr, time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	conn.SetDeadline(time.Now().Add(5 * time.Second))
	if _, err := conn.Write(hdr); err != nil {
		t.Fatal(err)
	}
	r := bufio.NewReader(conn)
	var rep reply
	if id, err := recvMsg(r, &rep); err != nil || rep.Code != CodeTooLarge || id != 9 {
		t.Fatalf("header over the bound answered %+v under id %d (err %v), want code %q under id 9", rep, id, err, CodeTooLarge)
	}
	if _, err := r.ReadByte(); err != io.EOF {
		t.Fatalf("connection still open after the refusal (read err %v)", err)
	}
}

// TestLyingHeaderCostsWhatWasSent: a reader sizes a payload's buffer by
// the bytes that arrive, not by the length a header announces. A header
// announcing a reader's whole bound with 10 bytes behind it and then EOF
// costs a client (64 MiB bound) and a node (1 MiB) well under a MiB.
// Once a pooled buffer has grown, a payload that fits is read straight
// into it, with no allocation at all.
func TestLyingHeaderCostsWhatWasSent(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	for _, tc := range []struct {
		name  string
		limit int
		read  func(*bufio.Reader) (frameMsg, error)
	}{
		{"client", maxFramePayload, readReply},
		{"node", maxRequestBytes, func(r *bufio.Reader) (frameMsg, error) { return readFrame(r, maxRequestBytes) }},
	} {
		hdr, _ := beginFrame(nil, frameTypeMsg, 1)
		binary.LittleEndian.PutUint32(hdr[12:], uint32(tc.limit))
		r := bufio.NewReader(bytes.NewReader(append(hdr, make([]byte, 10)...)))
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		_, err := tc.read(r)
		runtime.ReadMemStats(&after)
		if !errors.Is(err, io.ErrUnexpectedEOF) {
			t.Fatalf("%s: %v, want %v", tc.name, err, io.ErrUnexpectedEOF)
		}
		if got := after.TotalAlloc - before.TotalAlloc; got >= 1<<20 {
			t.Fatalf("%s: a header announcing %d bytes before 10 cost %d bytes of allocation", tc.name, tc.limit, got)
		}
	}

	if raceEnabled {
		return // sync.Pool drops items at random under the race detector
	}
	frame, hdr := beginFrame(nil, frameTypeMsg, 1)
	frame = endFrame(append(frame, make([]byte, 100_000)...), hdr)
	var src bytes.Reader
	br := bufio.NewReader(&src)
	allocs := testing.AllocsPerRun(20, func() {
		src.Reset(frame)
		br.Reset(&src)
		fm, err := readReply(br)
		if err != nil {
			t.Fatal(err)
		}
		fm.release()
	})
	if allocs != 0 {
		t.Fatalf("reading a frame into a grown pooled buffer costs %.0f allocs, want 0", allocs)
	}
}

// TestConcurrentClientsShareOneMarket runs several clients against the
// same QA-NT federation at once; accounting must stay exact.
func TestConcurrentClientsShareOneMarket(t *testing.T) {
	clk := autoClock(t)
	ds, nodes, addrs := startTestFederation(t, []float64{1, 2}, onClock(clk))
	rng := rand.New(rand.NewSource(55))
	templates, err := ds.GenerateTemplates(4, 1, rng)
	if err != nil {
		t.Fatal(err)
	}
	const clients = 4
	const perClient = 8
	done := make(chan Outcome, clients*perClient)
	for c := 0; c < clients; c++ {
		go func(c int) {
			client, err := NewClient(ClientConfig{
				network: newMemNet(clk),
				clock:   clk,
				Addrs:   addrs, Mechanism: MechQANT, PeriodMs: 50,
				MaxRetries: 100, Timeout: 5 * time.Second,
			})
			if err != nil {
				panic(err)
			}
			crng := rand.New(rand.NewSource(int64(100 + c)))
			for q := 0; q < perClient; q++ {
				done <- client.Run(int64(c*perClient+q), templates[crng.Intn(len(templates))].Instantiate(crng))
			}
		}(c)
	}
	completed := 0
	for i := 0; i < clients*perClient; i++ {
		out := <-done
		if out.Err != nil {
			t.Errorf("query %d: %v", out.QueryID, out.Err)
			continue
		}
		completed++
	}
	total := 0
	for _, n := range nodes {
		total += n.Executed()
	}
	if total != completed {
		t.Errorf("nodes executed %d, clients completed %d", total, completed)
	}
}
