package cluster

import (
	"bufio"
	"bytes"
	"errors"
	"testing"
	"time"

	"github.com/qamarket/qamarket/internal/sqldb"
)

// FuzzReplyDemux feeds arbitrary frame sequences to a client
// connection's demux (mconn.readLoop) over the in-memory network, on a
// fake clock nobody advances, while two calls wait on it: a unary call
// under request id 1 and a streamed fetch under id 2 whose fetchStream
// accumulates its rows. Then the node's end hangs up. It holds the
// reply path to four promises:
//
//   - no input panics the client (the fuzzer would report it);
//   - each call returns, with one answer or the connection's error;
//   - the demux returns at the end of its input, failing the connection;
//   - no batch past the row count its header announced reaches the sink.
func FuzzReplyDemux(f *testing.F) {
	// Small seeds keep the minimizer quick. v travels scaled.
	in, fl := sqldb.NewInt, sqldb.NewFloat
	res := &sqldb.Result{Columns: []string{"k", "v"}, Rows: []sqldb.Row{
		{in(1), fl(0.5)}, {in(2), fl(-1.25)}, {sqldb.Null, fl(3)}, {in(4), sqldb.Null}, {in(5), fl(8)},
	}}
	var msgs bytes.Buffer
	if err := writeMsg(bufio.NewWriter(&msgs), 1, maxFramePayload, &reply{Execute: &executeReply{Accepted: true, ExecMs: 1.5}}); err != nil {
		f.Fatal(err)
	}
	stream := appendFetchHeader(nil, 2, res.Columns, 1, 2, 5, 3)
	for lo := 0; lo < 5; lo += 2 {
		stream = appendFetchBatch(stream, 2, res, lo, min(lo+2, 5))
	}
	stream = appendFetchEnd(stream, 2, 5, 3, "")
	// The unary reply ahead of the stream, behind it, and in its middle.
	f.Add(append(append([]byte(nil), msgs.Bytes()...), stream...))
	f.Add(append(append([]byte(nil), stream...), msgs.Bytes()...))
	mid := appendFetchHeader(nil, 2, res.Columns, 1, 3, 5, 3)
	mid = appendFetchBatch(mid, 2, res, 0, 3)
	mid = append(mid, msgs.Bytes()...)
	mid = appendFetchBatch(mid, 2, res, 3, 5)
	f.Add(appendFetchEnd(mid, 2, 5, 2, ""))
	// A header announcing fewer rows than its batches carry, a stream cut
	// by a stopping node, a refusal in place of a stream, and a batch for
	// the unary call.
	short := appendFetchHeader(nil, 2, res.Columns, 1, 3, 4, 3)
	short = appendFetchBatch(short, 2, res, 0, 3)
	short = appendFetchBatch(short, 2, res, 3, 5)
	f.Add(appendFetchEnd(short, 2, 5, 2, ""))
	cut := appendFetchHeader(nil, 2, res.Columns, 1, 3, 5, 3)
	f.Add(appendFetchEnd(appendFetchBatch(cut, 2, res, 0, 3), 2, 3, 1, msgNodeStopping))
	var refusal bytes.Buffer
	if err := writeMsg(bufio.NewWriter(&refusal), 2, maxFramePayload, &reply{Err: "busy", Code: CodeOverload}); err != nil {
		f.Fatal(err)
	}
	f.Add(append(refusal.Bytes(), appendFetchBatch(nil, 1, res, 0, 1)...))
	f.Add([]byte{})

	clk := newFakeClock()
	nw := newMemNet(clk)
	ln, err := nw.listen("127.0.0.1:0")
	if err != nil {
		f.Fatal(err)
	}
	f.Cleanup(func() { ln.Close() })

	f.Fuzz(func(t *testing.T, data []byte) {
		conn, err := nw.dial(ln.Addr().String(), 0)
		if err != nil {
			t.Fatal(err)
		}
		node, err := ln.Accept()
		if err != nil {
			t.Fatal(err)
		}
		defer node.Close()
		mc := newMconn(conn, clk)
		r := bufio.NewReader(node)
		// readRequest waits for the next request, so that the calls take
		// ids 1 and 2 in that order.
		readRequest := func() {
			fm, err := readFrame(r, maxRequestBytes)
			if err != nil {
				t.Fatal(err)
			}
			fm.release()
		}

		unary := make(chan error, 1)
		go func() {
			var rep reply
			unary <- mc.call(&request{Op: "execute"}, &rep, time.Hour, nil)
		}()
		readRequest()

		rows := &sqldb.Result{}
		fs := &fetchStream{sink: *accumulateSink(rows)}
		accumulate := fs.sink.block
		fs.sink.block = func(blk *ColBlock) error {
			if got := uint64(len(rows.Rows) + blk.Rows); got > fs.header.totalRows {
				t.Errorf("the sink holds %d rows under a header announcing %d", got, fs.header.totalRows)
			}
			return accumulate(blk)
		}
		fetch := make(chan error, 1)
		go func() {
			var rep reply
			fetch <- mc.call(&request{Op: "fetch"}, &rep, time.Hour, fs.onFrame)
		}()
		readRequest()

		// The demux may refuse the input and hang up before it is all
		// written; the write then fails, which is as good as the end.
		node.Write(data)
		node.Close()

		for name, ch := range map[string]chan error{"unary call": unary, "fetch": fetch} {
			select {
			case <-ch:
			case <-time.After(10 * time.Second):
				t.Fatalf("the %s never returned", name)
			}
		}
		select {
		case <-mc.deadCh:
		case <-time.After(10 * time.Second):
			t.Fatal("the demux outlived its input")
		}
		if err := mc.terminalErr(); err == nil || errors.Is(err, errRPCTimeout) {
			t.Fatalf("the connection died of %v, want its input's end or fault", err)
		}
	})
}
