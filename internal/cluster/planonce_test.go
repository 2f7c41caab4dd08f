package cluster

import (
	"bufio"
	"bytes"
	"net"
	"sync"
	"testing"

	"github.com/qamarket/qamarket/internal/driver"
	"github.com/qamarket/qamarket/internal/market"
	"github.com/qamarket/qamarket/internal/metrics"
	"github.com/qamarket/qamarket/internal/sqldb"
)

// TestOnePreparePerQuery: a node plans a query once per request. A
// negotiate prepares to price; an execute or fetch prepares at
// admission and runs that same statement at dequeue; a retransmit
// answered from the dedup window prepares nothing.
func TestOnePreparePerQuery(t *testing.T) {
	db := sqldb.Open()
	for _, q := range []string{
		"CREATE TABLE t (a INT, b TEXT)",
		"INSERT INTO t VALUES (1, 'w'), (2, 'x'), (3, 'y'), (4, 'z')",
	} {
		if _, _, err := db.Exec(q); err != nil {
			t.Fatal(err)
		}
	}
	mock := driver.NewMock(driver.NewLegacy(db), driver.MockConfig{})
	node, err := StartNode("127.0.0.1:0", NodeConfig{
		network: memWall,
		Driver:  mock, MsPerCostUnit: 1e-6, PeriodMs: 60_000, Market: market.DefaultConfig(1),
	})
	if err != nil {
		t.Fatal(err)
	}
	defer node.CloseNow()
	conn, r := dialGreeted(t, node.Addr(), MechQANT)
	w := bufio.NewWriter(conn)

	const sql = "SELECT a, b FROM t WHERE a > 1"
	for _, step := range []struct {
		name            string
		req             request
		rows            int
		prepares, execs int64
	}{
		{"negotiate", request{Op: "negotiate", SQL: sql}, 0, 1, 0},
		{"execute", request{Op: "execute", SQL: sql, QueryID: 1}, 3, 1, 1},
		{"execute retransmit", request{Op: "execute", SQL: sql, QueryID: 1}, 3, 0, 0},
		{"fetch", request{Op: "fetch", SQL: sql, QueryID: 2}, 3, 1, 1},
		{"fetch retransmit", request{Op: "fetch", SQL: sql, QueryID: 2}, 3, 0, 0},
	} {
		prepares, execs := mock.Prepares(), mock.Executions()
		if err := writeRequest(w, 1, &step.req); err != nil {
			t.Fatal(err)
		}
		if rows := readReplyRows(t, r, step.name); rows != step.rows {
			t.Fatalf("%s: %d rows, want %d", step.name, rows, step.rows)
		}
		if got := mock.Prepares() - prepares; got != step.prepares {
			t.Errorf("%s: %d Prepare calls, want %d", step.name, got, step.prepares)
		}
		if got := mock.Executions() - execs; got != step.execs {
			t.Errorf("%s: %d executions, want %d", step.name, got, step.execs)
		}
	}
}

// readReplyRows reads one successful reply — a message or a result
// frame stream — and returns the rows it reports (none for a negotiate).
func readReplyRows(t *testing.T, r *bufio.Reader, step string) int {
	t.Helper()
	fs := &fetchStream{sink: fetchSink{block: func(*ColBlock) error { return nil }}}
	for {
		fm, err := readFrame(r, maxFramePayload)
		if err != nil {
			t.Fatalf("%s: %v", step, err)
		}
		if fm.typ == frameTypeMsg {
			return replyRows(t, fm, step)
		}
		_, err = fs.onFrame(fm.typ, fm.payload)
		fm.release()
		if err != nil {
			t.Fatalf("%s: %v", step, err)
		}
		if fs.done {
			return int(fs.end.rows)
		}
	}
}

// replyRows decodes a reply message and returns the rows it reports.
func replyRows(t *testing.T, fm frameMsg, step string) int {
	t.Helper()
	var rep reply
	if err := decodeMsg(fm, &rep); err != nil {
		t.Fatalf("%s: %v", step, err)
	}
	switch {
	case rep.Negotiate != nil && rep.Negotiate.Feasible && rep.Negotiate.Offer:
		return 0
	case rep.Execute != nil && rep.Execute.Accepted:
		return rep.Execute.Rows
	}
	t.Fatalf("%s: reply %+v", step, rep)
	return 0
}

// countingConn counts the writes that reach the socket and keeps their
// bytes.
type countingConn struct {
	net.Conn
	writes int
	buf    bytes.Buffer
}

func (c *countingConn) Write(p []byte) (int, error) {
	c.writes++
	return c.buf.Write(p)
}

// TestSmallFetchReplyIsOneWrite: a streamed reply that fits the
// connection's buffer — header, batch and end frame — leaves in one
// write, byte-identical to its frames written one by one.
func TestSmallFetchReplyIsOneWrite(t *testing.T) {
	srv := &Node{health: metrics.NewHealth()}
	for _, n := range []int{0, 1, 8, packRowsMax} {
		rows := make([]sqldb.Row, n)
		for i := range rows {
			rows[i] = sqldb.Row{sqldb.NewInt(int64(i)), sqldb.NewInt(7), sqldb.NewFloat(0.5 * float64(i))}
		}
		var res ColBlock
		res.FillFromRows([]string{"grp", "n", "total"}, rows)
		conn := &countingConn{}
		var wmu sync.Mutex
		if err := srv.streamFetch(conn, bufio.NewWriter(conn), &wmu, 5, &frameStream{res: &res, execMs: 0.25, batch: 4096}); err != nil {
			t.Fatal(err)
		}
		if conn.writes != 1 {
			t.Errorf("a %d-row reply took %d writes, want 1", n, conn.writes)
		}
		want := appendFetchHeader(nil, 5, res.Columns, 0.25, 4096, n, 0)
		batches := 0
		if n > 0 {
			want = appendFetchBatchCols(want, 5, &res)
			batches = 1
		}
		want = appendFetchEnd(want, 5, uint64(n), batches, "")
		if !bytes.Equal(conn.buf.Bytes(), want) {
			t.Errorf("a %d-row reply's bytes differ from its frames", n)
		}
	}
}
