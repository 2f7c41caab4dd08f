package cluster

import (
	"bufio"
	"errors"
	"fmt"
	"net"
	"sync"
	"time"

	"github.com/qamarket/qamarket/internal/driver"
	"github.com/qamarket/qamarket/internal/metrics"
	"github.com/qamarket/qamarket/internal/sqldb"
)

// This file holds the two halves of a streamed fetch: the server's
// frame writer (streamFetch, invoked by serveConn when the fetch
// handler negotiated frames) and the client's frame consumer
// (fetchStream, fed by mconn.stream or freshStream).
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
	batch  int // max rows per batch frame
}

// errStreamAbort wraps an error returned by a streamed fetch's sink:
// the consumer itself refused the data. Transport and peer stay
// healthy, so the failure is terminal for the query, not the node.
var errStreamAbort = errors.New("cluster: fetch sink aborted stream")

// writeFrame writes one frame to the connection's writer under its
// shared write lock and flushes the writer if flush is set (the end
// frame); a frame that outgrows the buffer reaches the socket anyway.
// Another reply's writeMsg flushes whatever is buffered with its own
// message, so frames keep their order. Taking the lock per frame
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
// for partial streams too. The frame buffer is pooled and reused
// across streams; only the end frame flushes, so a small reply costs
// one write.
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
	buf := appendFetchHeader(fb.b[:0], id, res.Columns, fs.execMs, fs.batch, total)
	fb.b = buf[:0]
	if err := writeFrame(w, wmu, buf, false); err != nil {
		return err
	}
	n.health.Add(metrics.FetchBytesTotal, int64(len(buf)))

	// The result is already columnar: NextBatch re-slices the driver
	// block's typed arrays per batch and appendFetchBatchCols copies
	// them straight onto the wire — no row materialization anywhere on
	// the server's hot path.
	var (
		sent    uint64
		batches int
		errMsg  string
		cur     driver.Cursor
		batch   ColBlock
	)
	for res.NextBatch(&cur, fs.batch, &batch) {
		select {
		case <-n.stopCh:
			errMsg = msgNodeStopping
		default:
		}
		if errMsg != "" {
			break
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
		buf = appendFetchBatchCols(fb.b[:0], id, &batch)
		fb.b = buf[:0]
		if err := writeFrame(w, wmu, buf, false); err != nil {
			return err
		}
		sent += uint64(batch.Rows)
		batches++
		n.health.Inc(metrics.FetchBatchesTotal)
		n.health.Add(metrics.FetchBytesTotal, int64(len(buf)))
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

// fetchSink receives a fetch result however it arrives: block gets
// streamed batches as reusable ColBlocks (buffers overwritten between
// calls — copy out anything retained), rows gets a JSON downgrade's
// decoded result whole, so old and new servers feed the same consumer.
//
// reset says who owns delivered rows. Non-nil: they sit in a buffer the
// client owns, reset discards them, and a query whose stream died
// mid-result may start over on any node. Nil: rows escape to the caller
// as they arrive and the lifecycle's partial-delivery rule applies.
type fetchSink struct {
	block func(*ColBlock) error
	rows  func(columns []string, rows []sqldb.Row) error
	reset func()
}

// accumulateSink collects the whole result into res.Rows.
func accumulateSink(res *sqldb.Result) *fetchSink {
	return &fetchSink{
		block: func(blk *ColBlock) error {
			var err error
			res.Rows, err = blk.AppendRows(res.Rows)
			return err
		},
		rows: func(_ []string, rs []sqldb.Row) error {
			res.Rows = append(res.Rows, rs...)
			return nil
		},
		reset: func() { res.Rows = res.Rows[:0] },
	}
}

// blockSink hands the result to fn batch by batch, never materializing
// rows: streamed frames pass their decoded ColBlocks straight through,
// and a JSON downgrade is bridged through one reusable block, so fn sees
// a single columnar interface whatever the server's generation.
func blockSink(fn func(*ColBlock) error, reset func()) *fetchSink {
	var bridge ColBlock
	return &fetchSink{
		block: fn,
		rows: func(columns []string, rs []sqldb.Row) error {
			bridge.FillFromRows(columns, rs)
			if bridge.Rows == 0 {
				return nil
			}
			return fn(&bridge)
		},
		reset: reset,
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

// onFrame consumes one frame; it is the callback handed to
// mconn.stream / freshStream. done=true ends the stream.
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
		return false, nil
	case frameTypeBatch:
		if !fs.gotHeader {
			return false, fmt.Errorf("%w: batch frame before header", errFrameDecode)
		}
		if err := decodeFetchBatch(payload, &fs.block); err != nil {
			return false, err
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
		if end.errMsg == "" && end.rows != fs.recv {
			return false, fmt.Errorf("%w: end frame claims %d rows, received %d", errFrameDecode, end.rows, fs.recv)
		}
		fs.end = end
		fs.done = true
		return true, nil
	}
	return false, fmt.Errorf("%w: unexpected frame type %d", errFrameDecode, typ)
}

// freshStream is the fresh-transport analogue of mconn.stream: dial,
// send the request, then demux by peeking the first byte of each
// message — frames feed onFrame, a JSON reply lands in rep
// (jsonReply=true). The per-message read deadline is a progress bound,
// like the pooled path's per-frame timer.
func freshStream(addr string, req *request, rep *reply, timeout time.Duration, onFrame func(typ byte, payload []byte) (bool, error), wc *wireCounter) (jsonReply bool, err error) {
	conn, err := dial(addr, timeout)
	if err != nil {
		return false, fmt.Errorf("%w: %v", errNotSent, err)
	}
	defer conn.Close()
	if wc != nil {
		conn = &countedConn{Conn: conn, wc: wc}
	}
	if err := conn.SetWriteDeadline(time.Now().Add(timeout)); err != nil {
		return false, err
	}
	w := bufio.NewWriter(conn)
	if err := writeMsg(w, req); err != nil {
		return false, err
	}
	r := bufio.NewReader(conn)
	for {
		if err := conn.SetReadDeadline(time.Now().Add(timeout)); err != nil {
			return false, err
		}
		first, err := r.Peek(1)
		if err != nil {
			return false, err
		}
		if first[0] != frameMagic {
			return true, readMsg(r, rep)
		}
		fm, err := readFrame(r)
		if err != nil {
			return false, err
		}
		done, ferr := onFrame(fm.typ, fm.payload)
		fm.release()
		if ferr != nil {
			return false, ferr
		}
		if done {
			return false, nil
		}
	}
}
