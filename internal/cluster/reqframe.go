package cluster

import (
	"bufio"
	"encoding/binary"
	"fmt"
)

// Work requests. A negotiate, execute or fetch leaves the client as one
// request frame (type 5) whose payload is the request in binary: every
// query pays for one of them on every node it asks, so its encoding is
// the mechanism's per-message cost. The cold ops — hello, gossip,
// stats, members and spans — stay JSON message frames. Each op has one
// encoding: a node refuses a work op in a message frame with the typed
// protocol refusal.
//
// Request payload, in field order. Signed integers are zigzag varints
// and counts and lengths are unsigned varints, as encoding/binary writes
// them:
//
//	op         u8       1 negotiate, 2 execute, 3 fetch
//	query id   varint
//	deadline   varint   the budget left in ms; 0 is none
//	sql        uvarint length, then the bytes
//	release    uvarint count, then each sequence number as a uvarint
//	trace      u8 0 (untraced) or 1, then the trace id as a varint and
//	           the span as a uvarint length and its bytes
//	batch      uvarint count, then per query its id and deadline as
//	           varints and its sql as a uvarint length and the bytes
//
// The decoder takes only what the encoder writes — a known op, every
// varint in its fewest bytes, a trace byte of 0 or 1, batch entries on a
// negotiate only, no trailing byte — so a request that decodes
// re-encodes to the same bytes (FuzzFrameDecode holds that).
const (
	opNegotiate byte = 1 + iota
	opExecute
	opFetch
)

// workOps names each work op's byte.
var workOps = [...]string{opNegotiate: "negotiate", opExecute: "execute", opFetch: "fetch"}

// workOp is op's byte in a request frame, or 0 for an op that travels as
// a JSON message.
func workOp(op string) byte {
	switch op {
	case "negotiate":
		return opNegotiate
	case "execute":
		return opExecute
	case "fetch":
		return opFetch
	}
	return 0
}

// appendRequest appends req, a work op, as a request frame under id.
func appendRequest(buf []byte, id uint64, req *request) []byte {
	buf, hdr := beginFrame(buf, frameTypeReq, id)
	buf = append(buf, workOp(req.Op))
	buf = binary.AppendVarint(buf, req.QueryID)
	buf = binary.AppendVarint(buf, req.DeadlineMs)
	buf = appendString(buf, req.SQL)
	buf = binary.AppendUvarint(buf, uint64(len(req.Release)))
	for _, seq := range req.Release {
		buf = binary.AppendUvarint(buf, seq)
	}
	if tc := req.Trace; tc != nil {
		buf = append(buf, 1)
		buf = binary.AppendVarint(buf, tc.ID)
		buf = appendString(buf, tc.Span)
	} else {
		buf = append(buf, 0)
	}
	buf = binary.AppendUvarint(buf, uint64(len(req.Batch)))
	for _, bq := range req.Batch {
		buf = binary.AppendVarint(buf, bq.QueryID)
		buf = binary.AppendVarint(buf, bq.DeadlineMs)
		buf = appendString(buf, bq.SQL)
	}
	return endFrame(buf, hdr)
}

func appendString(buf []byte, s string) []byte {
	return append(binary.AppendUvarint(buf, uint64(len(s))), s...)
}

// writeRequest writes req under id and flushes it: a work op as a
// request frame, any other op as a JSON message frame. A request over
// maxRequestBytes, the bound a node reads, is refused with ErrTooLarge
// before it is written, so the connection stays clean.
func writeRequest(w *bufio.Writer, id uint64, req *request) error {
	if workOp(req.Op) == 0 {
		return writeMsg(w, id, maxRequestBytes, req)
	}
	buf := appendRequest(w.AvailableBuffer(), id, req)
	if n := len(buf) - frameHdrLen; n > maxRequestBytes {
		return fmt.Errorf("%w: %d-byte request", ErrTooLarge, n)
	}
	if _, err := w.Write(buf); err != nil {
		return err
	}
	return w.Flush()
}

// decodeRequest parses a request frame's payload into req, which must
// be zero. Its SQL texts are the request's only allocations besides the
// release list, the trace context and the batch.
func decodeRequest(p []byte, req *request) error {
	c := cursor{p: p}
	op, ok := c.u8()
	if !ok || op < opNegotiate || op > opFetch {
		return fmt.Errorf("%w: request op", errFrameDecode)
	}
	req.Op = workOps[op]
	qid, ok1 := c.varint()
	deadline, ok2 := c.varint()
	sql, ok3 := c.str()
	if !ok1 || !ok2 || !ok3 {
		return fmt.Errorf("%w: request prefix", errFrameDecode)
	}
	req.QueryID, req.DeadlineMs, req.SQL = qid, deadline, sql
	// A sequence number costs at least a byte, so the count is checked
	// against the bytes left before anything is sized from it.
	n, ok := c.uvarint()
	if !ok || n > uint64(c.remaining()) {
		return fmt.Errorf("%w: request release count", errFrameDecode)
	}
	if n > 0 {
		req.Release = make([]uint64, n)
		for i := range req.Release {
			if req.Release[i], ok = c.uvarint(); !ok {
				return fmt.Errorf("%w: request release", errFrameDecode)
			}
		}
	}
	traced, ok := c.u8()
	if !ok || traced > 1 {
		return fmt.Errorf("%w: request trace flag", errFrameDecode)
	}
	if traced == 1 {
		id, ok1 := c.varint()
		span, ok2 := c.str()
		if !ok1 || !ok2 {
			return fmt.Errorf("%w: request trace", errFrameDecode)
		}
		req.Trace = &traceCtx{ID: id, Span: span}
	}
	// A batch entry costs at least three bytes, and only a negotiate
	// carries any.
	n, ok = c.uvarint()
	if !ok || n > uint64(c.remaining())/3 || (n > 0 && op != opNegotiate) {
		return fmt.Errorf("%w: request batch count", errFrameDecode)
	}
	if n > 0 {
		req.Batch = make([]batchQuery, n)
		for i := range req.Batch {
			qid, ok1 := c.varint()
			deadline, ok2 := c.varint()
			sql, ok3 := c.str()
			if !ok1 || !ok2 || !ok3 {
				return fmt.Errorf("%w: request batch query %d", errFrameDecode, i)
			}
			req.Batch[i] = batchQuery{QueryID: qid, SQL: sql, DeadlineMs: deadline}
		}
	}
	if c.remaining() != 0 {
		return fmt.Errorf("%w: %d trailing request bytes", errFrameDecode, c.remaining())
	}
	return nil
}
