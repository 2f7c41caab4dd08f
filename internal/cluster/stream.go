package cluster

import (
	"bufio"
	"errors"
	"fmt"
	"net"
	"sync"

	"github.com/qamarket/qamarket/internal/driver"
	"github.com/qamarket/qamarket/internal/metrics"
	"github.com/qamarket/qamarket/internal/sqldb"
)

// This file holds the two halves of a streamed fetch: the server's
// frame writer (streamFetch, invoked by serveConn for every accepted
// fetch) and the client's frame consumer (fetchStream, fed by
// mconn.call).
//
// Memory stays O(batch) on both sides by construction: the server
// appends one batch into a pooled buffer and hands it to the
// connection's writer before building the next, and the client decodes
// each frame into one reusable ColBlock handed to the caller's sink. A
// batch larger than the writer's buffer goes straight to the socket; a
// small reply's frames collect in the buffer and leave in one write at
// the end frame. When the sink is slow, the client's demux blocks, its
// socket reads stop, and TCP backpressure stalls the server's write —
// the transport itself is the flow control.

// frameStream carries an accepted fetch result from the handler to
// serveConn's writer goroutine, which streams it as binary frames.
type frameStream struct {
	res    *ColBlock
	execMs float64
	batch  int    // max rows per batch frame
	seq    uint64 // the outcome's number in the dedup window
}

// errStreamAbort wraps an error returned by a streamed fetch's sink:
// the consumer itself refused the data. Transport and peer stay
// healthy, so the failure is terminal for the query, not the node.
var errStreamAbort = errors.New("cluster: fetch sink aborted stream")

// writeFrame writes one frame to the connection's writer under its
// shared write lock and flushes the writer if flush is set (the end
// frame); a frame that outgrows the buffer reaches the socket anyway.
// Another reply flushes whatever is buffered with its own message, so
// frames keep their order. Taking the lock per frame
// (not per stream) keeps the multiplexed connection live for other
// replies between batches of a long stream.
func writeFrame(w *bufio.Writer, wmu *sync.Mutex, frame []byte, flush bool) error {
	wmu.Lock()
	defer wmu.Unlock()
	if _, err := w.Write(frame); err != nil {
		return err
	}
	if flush {
		return w.Flush()
	}
	return nil
}

// streamFetch writes one accepted fetch result as a frame stream:
// header, bounded batches, terminal end frame. A hard shutdown mid-
// stream truncates it with an end frame carrying msgNodeStopping, so
// the client knows the delivered prefix is incomplete; the PR 6
// classification (node stopping = safe to resubmit elsewhere) holds
// for partial streams too. A batch is cut short where its frame would
// pass maxFramePayload, and a row that alone would ends the stream with
// an error in its end frame: no frame leaves that a reader refuses. The
// frame buffer is pooled and reused across streams; only the end frame
// flushes, so a small reply costs one write.
func (n *Node) streamFetch(conn net.Conn, w *bufio.Writer, wmu *sync.Mutex, id uint64, fs *frameStream) error {
	fb := getFrameBuf()
	defer func() {
		putFrameBuf(fb)
	}()
	res := fs.res
	if res == nil {
		res = &ColBlock{}
	}
	total := res.Rows
	buf := appendFetchHeader(fb.b[:0], id, res.Columns, fs.execMs, fs.batch, total, fs.seq)
	fb.b = buf[:0]
	if err := writeFrame(w, wmu, buf, false); err != nil {
		return err
	}
	n.health.Add(metrics.FetchBytesTotal, int64(len(buf)))

	// The result is already columnar: NextBatch re-slices the driver
	// block's typed arrays per batch and appendFittingBatch writes them
	// straight onto the wire — no row materialization anywhere on the
	// server's hot path.
	var (
		sent         uint64
		batches      int
		errMsg       string
		cur          driver.Cursor
		batch, piece ColBlock
	)
	for errMsg == "" && res.NextBatch(&cur, fs.batch, &batch) {
		select {
		case <-n.stopCh:
			errMsg = msgNodeStopping
			continue
		default:
		}
		if cut := n.frameSever.Load(); cut > 0 && int32(batches) >= cut {
			// Test hook: simulate a connection lost mid-stream, after the
			// frames written so far have reached the client. One-shot so
			// the retransmit after re-dial streams cleanly.
			n.frameSever.Store(0)
			wmu.Lock()
			_ = w.Flush() // the connection is closed next either way
			wmu.Unlock()
			conn.Close()
			return fmt.Errorf("cluster: frame stream severed by test hook")
		}
		// Nearly always one frame takes the whole batch; a cut frame's
		// rows are dropped before the rest goes out.
		for rows := 0; rows < batch.Rows; {
			batch.Drop(rows)
			buf, rows = appendFittingBatch(fb.b[:0], id, &batch, &piece)
			fb.b = buf[:0]
			if rows == 0 {
				errMsg = fmt.Sprintf("cluster: result row %d alone is over the %d-byte frame limit", sent+1, maxFramePayload)
				break
			}
			if err := writeFrame(w, wmu, buf, false); err != nil {
				return err
			}
			sent += uint64(rows)
			batches++
			n.health.Inc(metrics.FetchBatchesTotal)
			n.health.Add(metrics.FetchBytesTotal, int64(len(buf)))
		}
	}

	buf = appendFetchEnd(fb.b[:0], id, sent, batches, errMsg)
	fb.b = buf[:0]
	if err := writeFrame(w, wmu, buf, true); err != nil {
		return err
	}
	n.health.Add(metrics.FetchBytesTotal, int64(len(buf)))
	return nil
}

// --- Client side ------------------------------------------------------

// fetchSink receives a fetch result batch by batch: block gets each
// streamed batch as a reusable ColBlock (buffers overwritten between
// calls — copy out anything retained). header, when set, is called once
// per stream, before any batch, with the result's columns and the row
// count the node announced — a size from outside the program, which a
// clean end frame later confirms but which may be a lie until then.
//
// reset says who owns delivered rows. Non-nil: they sit in a buffer the
// client owns, reset discards them (and whatever header declared), and
// a query whose stream died mid-result may start over on any node. Nil:
// rows escape to the caller as they arrive and the lifecycle's
// partial-delivery rule applies.
type fetchSink struct {
	header func(columns []string, rows uint64) error
	block  func(*ColBlock) error
	reset  func()
}

// accumulateSink collects the whole result into res.Rows.
func accumulateSink(res *sqldb.Result) *fetchSink {
	return &fetchSink{
		block: func(blk *ColBlock) error {
			var err error
			res.Rows, err = blk.AppendRows(res.Rows)
			return err
		},
		reset: func() { res.Rows = res.Rows[:0] },
	}
}

// fetchStream decodes one streamed fetch reply: header, then batch
// frames delivered to the sink, then the terminal end frame. skip
// drops that many leading rows before delivery — the resume path,
// where a dedup replay re-streams the identical full result and the
// client discards the prefix a previous attempt already delivered.
type fetchStream struct {
	sink      fetchSink
	skip      int64
	header    frameHeader
	gotHeader bool
	block     ColBlock
	recv      uint64 // rows received off the wire (pre-skip)
	delivered int64  // rows handed to the sink
	batches   int
	done      bool
	end       frameEnd
}

// onFrame consumes one frame; it is the callback handed to mconn.call.
// done=true ends the stream.
func (fs *fetchStream) onFrame(typ byte, payload []byte) (bool, error) {
	switch typ {
	case frameTypeHeader:
		if fs.gotHeader {
			return false, fmt.Errorf("%w: duplicate header frame", errFrameDecode)
		}
		if err := decodeFetchHeader(payload, &fs.header); err != nil {
			return false, err
		}
		fs.gotHeader = true
		fs.block.Columns = fs.header.columns
		if fs.sink.header != nil {
			if err := fs.sink.header(fs.header.columns, fs.header.totalRows); err != nil {
				return false, fmt.Errorf("%w: %v", errStreamAbort, err)
			}
		}
		return false, nil
	case frameTypeBatch:
		if !fs.gotHeader {
			return false, fmt.Errorf("%w: batch frame before header", errFrameDecode)
		}
		if err := decodeFetchBatch(payload, &fs.block); err != nil {
			return false, err
		}
		// A batch carries the header's columns, and rows only through
		// them: a zero-column batch costs 8 bytes whatever rows it claims.
		// Nor does it carry rows past the header's count, which sized the
		// sink's tables: no row beyond it reaches the sink.
		if ncols := len(fs.block.Cols); ncols != len(fs.header.columns) || (ncols == 0 && fs.block.Rows > 0) {
			return false, fmt.Errorf("%w: batch of %d rows × %d columns under a %d-column header",
				errFrameDecode, fs.block.Rows, ncols, len(fs.header.columns))
		}
		if fs.recv+uint64(fs.block.Rows) > fs.header.totalRows {
			return false, fmt.Errorf("%w: batch of %d rows after %d, under a header announcing %d",
				errFrameDecode, fs.block.Rows, fs.recv, fs.header.totalRows)
		}
		fs.batches++
		fs.recv += uint64(fs.block.Rows)
		if fs.skip > 0 {
			if int64(fs.block.Rows) <= fs.skip {
				fs.skip -= int64(fs.block.Rows)
				return false, nil
			}
			fs.block.Drop(int(fs.skip))
			fs.skip = 0
		}
		if fs.block.Rows == 0 {
			return false, nil
		}
		fs.delivered += int64(fs.block.Rows)
		if err := fs.sink.block(&fs.block); err != nil {
			return false, fmt.Errorf("%w: %v", errStreamAbort, err)
		}
		return false, nil
	case frameTypeEnd:
		if !fs.gotHeader {
			return false, fmt.Errorf("%w: end frame before header", errFrameDecode)
		}
		end, err := decodeFetchEnd(payload)
		if err != nil {
			return false, err
		}
		if end.errMsg == "" && (end.rows != fs.recv || end.rows != fs.header.totalRows) {
			return false, fmt.Errorf("%w: end frame claims %d rows, received %d under a header announcing %d",
				errFrameDecode, end.rows, fs.recv, fs.header.totalRows)
		}
		fs.end = end
		fs.done = true
		return true, nil
	}
	return false, fmt.Errorf("%w: unexpected frame type %d", errFrameDecode, typ)
}

// frameFunc consumes one frame of a streamed fetch; done ends the stream.
type frameFunc func(typ byte, payload []byte) (done bool, err error)

// errUnexpectedFrame reports a result frame answering a call that
// expected one message, or a message frame that should have been a
// request: the peer broke the protocol.
var errUnexpectedFrame = errors.New("cluster: unexpected result frame where a message belongs")
