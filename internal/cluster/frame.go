package cluster

import (
	"bufio"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"math/bits"
	"slices"
	"sync"

	"github.com/qamarket/qamarket/internal/driver"
)

// One framing. Every message on a connection, in both directions, is a
// length-prefixed little-endian frame with the same 16-byte header. A
// work request — negotiate, execute or fetch — is one binary request
// frame (reqframe.go); every other request, and every reply that
// carries no result rows, is one message frame whose payload is the
// request or reply envelope as JSON. A client's connection opens with
// the hello message, which carries the run id and the mechanism once
// for the connection. Every accepted fetch result comes back as a
// sequence of binary frames:
//
//	header frame  (accepted, exec ms, column names, batch size, row count, seq)
//	batch frame   (<= batch-size rows as typed columns)  — repeated
//	end frame     (terminal marker: rows sent, batch count, error)
//
// Every refusal or error stays a message frame, so the result frames
// only ever carry the hot payload. The header alone tells a reader what
// follows, so nothing is peeked: its version byte is the protocol's one
// version, its id the one request id, and its length is checked against
// the reader's bound before any payload is read.
//
// Frame layout (all integers little-endian):
//
//	offset  size  field
//	0       1     magic (0xFA)
//	1       1     version (protocolVersion)
//	2       1     type (1 header, 2 batch, 3 end, 4 message, 5 request)
//	3       1     flags (reserved, 0)
//	4       8     request id (the reply's frames echo the request's)
//	12      4     payload length
//	16      ...   payload
const (
	frameMagic      = 0xFA
	frameTypeHeader = 1
	frameTypeBatch  = 2
	frameTypeEnd    = 3
	frameTypeMsg    = 4
	frameTypeReq    = 5
	frameHdrLen     = 16
	// maxFramePayload bounds one frame's payload as a client reads it, so
	// a corrupt length prefix cannot make it allocate gigabytes. Writers
	// cut batches to fit (appendFittingBatch) and refuse a header that cannot.
	maxFramePayload = 1 << 26
	// maxRequestBytes bounds one request as a node reads it: the node
	// refuses a header announcing more before it reads or allocates any
	// payload, so a misbehaving client cannot grow server memory.
	maxRequestBytes = 1 << 20
)

// errFrameDecode reports a malformed frame. The connection is
// unrecoverable afterwards (the stream position is mid-frame), so
// readers drop it.
var errFrameDecode = errors.New("cluster: malformed binary frame")

// errFrameVersion reports a frame of another protocol version. A node
// answers it with the typed protocol refusal and hangs up; to a client
// it means what that refusal means, a node that cannot serve it, so it
// wraps errHelloRefused.
var errFrameVersion = fmt.Errorf("%w: frame of another protocol version", errHelloRefused)

// frameBuf is a pooled, grown-once byte buffer shared by frame writers
// (one per stream) and frame readers (one per in-flight frame). Pooling
// keeps the steady-state fetch path allocation-free: after warm-up the
// same backing arrays carry every stream. A reader reads a frame's
// header into hdr, so that no frame costs an allocation of its own.
type frameBuf struct {
	hdr [frameHdrLen]byte
	b   []byte
}

var frameBufPool = sync.Pool{New: func() any { return new(frameBuf) }}

func getFrameBuf() *frameBuf { return frameBufPool.Get().(*frameBuf) }
func putFrameBuf(fb *frameBuf) {
	if fb != nil {
		frameBufPool.Put(fb)
	}
}

// beginFrame appends a frame header with a zero payload length and
// returns the header's offset for endFrame to patch.
func beginFrame(buf []byte, typ byte, id uint64) ([]byte, int) {
	hdr := len(buf)
	buf = append(buf, frameMagic, protocolVersion, typ, 0)
	buf = binary.LittleEndian.AppendUint64(buf, id)
	buf = binary.LittleEndian.AppendUint32(buf, 0)
	return buf, hdr
}

// endFrame patches the payload length of the frame begun at hdr.
func endFrame(buf []byte, hdr int) []byte {
	binary.LittleEndian.PutUint32(buf[hdr+12:hdr+16], uint32(len(buf)-hdr-frameHdrLen))
	return buf
}

// writeMsg writes msgs, each encoded as JSON, as message frames under id
// and flushes them in one write. A message over limit, the bound its
// reader holds it to, is refused with ErrTooLarge before it is written,
// so a connection stays clean and the sender can answer, or be
// answered, in a typed refusal. Each header is built in the writer's
// free buffer with its payload written behind it: no payload is copied.
func writeMsg(w *bufio.Writer, id uint64, limit int, msgs ...any) error {
	for _, v := range msgs {
		b, err := json.Marshal(v)
		if err != nil {
			return fmt.Errorf("cluster: encoding message: %w", err)
		}
		if len(b) > limit {
			return fmt.Errorf("%w: %d-byte message", ErrTooLarge, len(b))
		}
		hdr, _ := beginFrame(w.AvailableBuffer(), frameTypeMsg, id)
		binary.LittleEndian.PutUint32(hdr[12:], uint32(len(b)))
		if _, err := w.Write(hdr); err != nil {
			return err
		}
		if _, err := w.Write(b); err != nil {
			return err
		}
	}
	return w.Flush()
}

// appendFetchHeader appends the stream-opening header frame: accepted
// flag, server-side exec time, column names, the batch size the server
// will honor, the total row count, and the outcome's sequence number in
// the node's dedup window, which the client releases once it holds the
// whole stream.
func appendFetchHeader(buf []byte, id uint64, columns []string, execMs float64, batchRows int, totalRows int, seq uint64) []byte {
	buf, hdr := beginFrame(buf, frameTypeHeader, id)
	buf = append(buf, 1) // accepted; refusals never reach the frame lane
	buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(execMs))
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(columns)))
	for _, name := range columns {
		buf = binary.LittleEndian.AppendUint16(buf, uint16(len(name)))
		buf = append(buf, name...)
	}
	buf = binary.LittleEndian.AppendUint32(buf, uint32(batchRows))
	buf = binary.LittleEndian.AppendUint64(buf, uint64(totalRows))
	buf = binary.LittleEndian.AppendUint64(buf, seq)
	return endFrame(buf, hdr)
}

// checkFetchHeader reports a result whose header frame cannot be
// written: a column name longer than the header's 16-bit length field (an
// unaliased expression is named by its text), or names that together
// pass maxFramePayload. The node answers such a fetch with an error reply
// before it packs or streams anything.
func checkFetchHeader(columns []string) error {
	size := 33 // accepted, exec ms, column count, batch size, row count, seq
	for i, name := range columns {
		if len(name) > math.MaxUint16 {
			return fmt.Errorf("cluster: result column %d is named by %d bytes, over the frame header's %d; alias it",
				i+1, len(name), math.MaxUint16)
		}
		size += 2 + len(name)
	}
	if size > maxFramePayload {
		return fmt.Errorf("cluster: result column names take %d bytes, over the %d-byte frame limit", size, maxFramePayload)
	}
	return nil
}

// appendFittingBatch appends one batch frame carrying as many leading
// rows of blk as its reader accepts and returns how many it took: all of
// them, unless their texts are huge, in which case the count halves
// until the planned payload fits maxFramePayload, and only then is the
// frame encoded. Zero means blk's first row alone is over the limit; buf
// then comes back unchanged. piece is the cut's scratch.
func appendFittingBatch(buf []byte, id uint64, blk, piece *ColBlock) ([]byte, int) {
	var stack [8]colPlan
	src := blk
	for {
		plan, size := planBatch(stack[:0], src)
		if size <= maxFramePayload {
			return appendBatchPlanned(buf, id, src, plan, size), src.Rows
		}
		if src.Rows == 1 {
			return buf, 0
		}
		piece.Columns, piece.Rows, piece.Sel = blk.Columns, blk.Rows, nil
		piece.Cols = append(piece.Cols[:0], blk.Cols...)
		piece.Truncate(src.Rows / 2)
		src = piece
	}
}

// colPlan is how one column of a batch goes on the wire, settled once
// per batch so that sizing and filling the frame each walk the values
// once.
type colPlan struct {
	mode       byte  // the column's one value kind, or 0: per-row kind bytes follow
	base       int64 // the ints' minimum, which their deltas count up from
	intW, lenW int   // bytes per int delta and per text length
	blob       int   // the texts' bytes
	floats     floatScale
}

// floatScale is how a column's floats travel. A zero w means raw 8-byte
// words. Otherwise every float times 2^k is an integer, k is the least
// such, and each of those integers goes as its difference from base,
// their minimum, in w bytes.
type floatScale struct {
	w, k int
	base int64
}

// maxFloatScale is the largest k a scaled float column carries, so that
// 2^k is a float and scaling takes one multiplication each way. Only a
// column of subnormal values finer than 2^-1023 needs more; it goes raw.
const maxFloatScale = 1023

// scaleFloats plans fs, which must not be empty, in one pass with no
// branch on a value: the least k, the minimum and the maximum. The
// floats scale when each is finite and not −0, k is at most
// maxFloatScale, each times 2^k is at most 2^53 in magnitude, and the
// scaled range fits 1, 2 or 4 bytes; then scaling is exact both ways
// and the decoder gives back the same bits. Otherwise they go raw.
func scaleFloats(fs []float64) floatScale {
	// least is 1075 plus the least exponent of a value's lowest set bit.
	// The ends come from the bits' largest as a signed and as an
	// unsigned integer and their least as an unsigned one (floatEnds),
	// which is cheaper than comparing floats.
	least := math.MaxInt32
	maxS, maxU, minU := int64(math.MinInt64), uint64(0), uint64(math.MaxUint64)
	for _, v := range fs {
		b := math.Float64bits(v)
		mag := b &^ (1 << 63)
		// v's lowest set bit is worth 2^(max(e,1) − 1075 + tz), where e is
		// its exponent field and tz counts its significand's trailing
		// zeros, the implicit bit included. +0 has none and asks for no
		// k (MaxInt32); −0 asks for k = 1076, past any, which sends the
		// column raw (−1).
		at := max(int(mag>>52), 1) + bits.TrailingZeros64(mag|1<<52)
		zeroAt := int(int64(b)>>32) ^ math.MaxInt32
		if mag == 0 {
			at = zeroAt
		}
		least = min(least, at)
		maxS, maxU, minU = max(maxS, int64(b)), max(maxU, b), min(minU, b)
	}
	k := max(1075-least, 0)
	lo, hi := floatEnds(maxS, maxU, minU)
	// NaN's bits order past ±Inf's, so an end holds any of them, and
	// none is within the bound.
	if k > maxFloatScale || !(max(-lo, hi) <= math.Ldexp(1, 53-k)) {
		return floatScale{}
	}
	up := math.Ldexp(1, k)
	base := int64(lo * up)
	w := uintWidth(uint64(int64(hi*up) - base))
	if w == 8 {
		return floatScale{}
	}
	return floatScale{w: w, k: k, base: base}
}

// floatEnds finds the least and the greatest of some floats from their
// bits' largest as a signed integer and largest and least as unsigned
// ones. Bits order as their floats do among floats with the sign clear,
// and in reverse among those with it set, which are the larger as
// unsigned and the negative as signed. So the greatest is the largest
// signed when its sign is clear, else the least unsigned; and the least
// is the largest unsigned when its sign is set, else the least
// unsigned.
func floatEnds(maxS int64, maxU, minU uint64) (lo, hi float64) {
	lo, hi = math.Float64frombits(minU), math.Float64frombits(minU)
	if maxS >= 0 {
		hi = math.Float64frombits(uint64(maxS))
	}
	if maxU >= 1<<63 {
		lo = math.Float64frombits(maxU)
	}
	return lo, hi
}

// planBatch plans each column of blk into plan, reusing it, and returns
// it with the batch's exact payload length. A column's kind comes from
// its typed arrays' lengths (driver.SingleKind); its ints' range, its
// floats' scale and its longest text set their widths.
func planBatch(plan []colPlan, blk *ColBlock) ([]colPlan, int) {
	plan = resize(plan, len(blk.Cols))
	size := 8 // row and column counts
	for j := range blk.Cols {
		col, pl := &blk.Cols[j], &plan[j]
		*pl = colPlan{mode: driver.SingleKind(blk.Rows, len(col.Ints), len(col.Floats), len(col.Texts), len(col.Bools))}
		// mode, then the counts of ints, floats, texts, text blob and bools
		size += 21 + (len(col.Bools)+7)/8
		if pl.mode == 0 {
			size += len(col.Kinds)
		}
		if len(col.Ints) > 0 {
			lo, hi := col.Ints[0], col.Ints[0]
			for _, v := range col.Ints {
				lo, hi = min(lo, v), max(hi, v)
			}
			pl.base, pl.intW = lo, uintWidth(uint64(hi-lo))
			size += 9 + pl.intW*len(col.Ints) // base and width, then the deltas
		}
		if len(col.Floats) > 0 {
			pl.floats = scaleFloats(col.Floats)
			if pl.floats.w == 0 {
				size += 1 + 8*len(col.Floats) // width 0, then the words
			} else {
				size += 11 + pl.floats.w*len(col.Floats) // width, k and base, then the deltas
			}
		}
		if len(col.Texts) > 0 {
			longest := 0
			for _, t := range col.Texts {
				pl.blob += len(t)
				longest = max(longest, len(t))
			}
			pl.lenW = uintWidth(uint64(longest))
			size += 1 + pl.lenW*len(col.Texts) + pl.blob // width, lengths, blob
		}
	}
	return plan, size
}

// uintWidth is the fewest of 1, 2, 4 or 8 bytes that hold v.
func uintWidth(v uint64) int {
	switch {
	case v <= math.MaxUint8:
		return 1
	case v <= math.MaxUint16:
		return 2
	case v <= math.MaxUint32:
		return 4
	}
	return 8
}

// appendFetchBatchCols appends one batch frame carrying blk's rows as
// typed columns. Per column: a mode byte, which is the column's one value
// kind (the driver's kind byte for int, float, text or bool) when every
// row has it, or else 0 and one kind byte per row behind it — a column
// that mixes kinds or holds NULLs; then the non-null values of
// each type in row order — ints frame-of-reference, as their minimum and
// each value's difference from it at the fewest bytes that hold the
// largest; floats the same way once scaled, when each times the least
// power of two 2^k that makes them all integers is one of at most 2^53
// (then as k, their minimum and the differences), else as 8-byte words
// (see scaleFloats); texts as a length table at the fewest
// bytes that hold the longest, plus one concatenated blob (so the client
// can decode all of a column's strings with a single allocation); bools
// as packed bits with zero padding. Driver blocks hold the same typed
// arrays, so encoding moves arrays, not values: the payload is planned,
// sized and reserved once, the kind bytes and text bytes are copied, and
// every word is written by index — no append and no switch per value,
// and no transposition.
func appendFetchBatchCols(buf []byte, id uint64, blk *ColBlock) []byte {
	var stack [8]colPlan
	plan, size := planBatch(stack[:0], blk)
	return appendBatchPlanned(buf, id, blk, plan, size)
}

// appendBatchPlanned is appendFetchBatchCols with blk's plan and payload
// size, planBatch's results, already known.
func appendBatchPlanned(buf []byte, id uint64, blk *ColBlock, plan []colPlan, size int) []byte {
	buf = slices.Grow(buf, frameHdrLen+size)
	buf, hdr := beginFrame(buf, frameTypeBatch, id)
	start := len(buf)
	buf = buf[:start+size]
	p := buf[start:]
	le := binary.LittleEndian
	le.PutUint32(p, uint32(blk.Rows))
	le.PutUint32(p[4:], uint32(len(blk.Cols)))
	o := 8
	for j := range blk.Cols {
		col, pl := &blk.Cols[j], &plan[j]
		p[o] = pl.mode
		o++
		if pl.mode == 0 {
			o += copy(p[o:], col.Kinds)
		}

		le.PutUint32(p[o:], uint32(len(col.Ints)))
		o += 4
		if len(col.Ints) > 0 {
			le.PutUint64(p[o:], uint64(pl.base))
			p[o+8] = byte(pl.intW)
			o += 9
			o += putDeltas(p[o:], col.Ints, uint64(pl.base), pl.intW)
		}

		le.PutUint32(p[o:], uint32(len(col.Floats)))
		o += 4
		if fl := pl.floats; len(col.Floats) > 0 {
			p[o] = byte(fl.w)
			o++
			if fl.w == 0 {
				for _, v := range col.Floats {
					le.PutUint64(p[o:o+8], math.Float64bits(v))
					o += 8
				}
			} else {
				le.PutUint16(p[o:], uint16(fl.k))
				le.PutUint64(p[o+2:], uint64(fl.base))
				o += 10
				o += putScaled(p[o:], col.Floats, fl)
			}
		}

		le.PutUint32(p[o:], uint32(len(col.Texts)))
		le.PutUint32(p[o+4:], uint32(pl.blob))
		o += 8
		if len(col.Texts) > 0 {
			p[o] = byte(pl.lenW)
			o++
			o += putTexts(p[o:], col.Texts, pl.lenW)
		}

		le.PutUint32(p[o:], uint32(len(col.Bools)))
		o += 4
		o += packBools(p[o:], col.Bools)
	}
	return endFrame(buf, hdr)
}

// putDeltas writes each of ints less base in w bytes and returns the
// bytes written.
func putDeltas(dst []byte, ints []int64, base uint64, w int) int {
	le := binary.LittleEndian
	switch w {
	case 1:
		dst = dst[:len(ints)]
		for i, v := range ints {
			dst[i] = byte(uint64(v) - base)
		}
	case 2:
		for i, v := range ints {
			le.PutUint16(dst[2*i:], uint16(uint64(v)-base))
		}
	case 4:
		for i, v := range ints {
			le.PutUint32(dst[4*i:], uint32(uint64(v)-base))
		}
	default:
		for i, v := range ints {
			le.PutUint64(dst[8*i:], uint64(v)-base)
		}
	}
	return w * len(ints)
}

// putScaled writes each of floats times 2^fl.k, less fl.base, in fl.w
// bytes and returns the bytes written.
func putScaled(dst []byte, floats []float64, fl floatScale) int {
	le := binary.LittleEndian
	up := math.Ldexp(1, fl.k)
	base := uint64(fl.base)
	switch fl.w {
	case 1:
		dst = dst[:len(floats)]
		for i, v := range floats {
			dst[i] = byte(uint64(int64(v*up)) - base)
		}
	case 2:
		dst = dst[:2*len(floats)]
		for _, v := range floats {
			le.PutUint16(dst[:2:2], uint16(uint64(int64(v*up))-base))
			dst = dst[2:]
		}
	default:
		dst = dst[:4*len(floats)]
		for _, v := range floats {
			le.PutUint32(dst[:4:4], uint32(uint64(int64(v*up))-base))
			dst = dst[4:]
		}
	}
	return fl.w * len(floats)
}

// putTexts writes the length of each of texts in w bytes, then the texts
// themselves behind the table, and returns the bytes written.
func putTexts(dst []byte, texts []string, w int) int {
	le := binary.LittleEndian
	end := w * len(texts)
	switch w {
	case 1:
		lens := dst[:len(texts)]
		for i, t := range texts {
			lens[i] = byte(len(t))
			end += copy(dst[end:], t)
		}
	case 2:
		for i, t := range texts {
			le.PutUint16(dst[2*i:], uint16(len(t)))
			end += copy(dst[end:], t)
		}
	default:
		for i, t := range texts {
			le.PutUint32(dst[4*i:], uint32(len(t)))
			end += copy(dst[end:], t)
		}
	}
	return end
}

// packBools writes bs to dst as bits, least significant first, eight to
// a byte and zero padding in the last, and returns the bytes written.
func packBools(dst []byte, bs []bool) int {
	n := (len(bs) + 7) / 8
	full := len(bs) / 8
	for i := range dst[:full] {
		b := bs[8*i : 8*i+8 : 8*i+8]
		dst[i] = b2u8(b[0]) | b2u8(b[1])<<1 | b2u8(b[2])<<2 | b2u8(b[3])<<3 |
			b2u8(b[4])<<4 | b2u8(b[5])<<5 | b2u8(b[6])<<6 | b2u8(b[7])<<7
	}
	if full < n {
		var bits byte
		for k, v := range bs[8*full:] {
			bits |= b2u8(v) << k
		}
		dst[full] = bits
	}
	return n
}

func b2u8(v bool) byte {
	if v {
		return 1
	}
	return 0
}

// appendFetchEnd appends the terminal frame: rows and batches sent, and
// the stream's error ("" for a clean finish; msgNodeStopping when a
// hard shutdown interrupted the stream mid-result).
func appendFetchEnd(buf []byte, id uint64, rows uint64, batches int, errMsg string) []byte {
	buf, hdr := beginFrame(buf, frameTypeEnd, id)
	buf = binary.LittleEndian.AppendUint64(buf, rows)
	buf = binary.LittleEndian.AppendUint32(buf, uint32(batches))
	buf = binary.LittleEndian.AppendUint16(buf, uint16(len(errMsg)))
	buf = append(buf, errMsg...)
	return endFrame(buf, hdr)
}

// --- Reading ---------------------------------------------------------

// frameMsg is one frame as read off a connection. The payload is backed
// by a pooled frameBuf; whoever consumes the frame calls release.
type frameMsg struct {
	typ     byte
	id      uint64
	fb      *frameBuf
	payload []byte
}

func (fm *frameMsg) release() {
	putFrameBuf(fm.fb)
	fm.fb, fm.payload = nil, nil
}

// readFrame reads one complete frame whose payload is at most limit
// bytes. The header is checked before the payload is read: a frame
// whose magic, version or type is wrong, or whose payload would pass
// limit, is refused with its payload unread. Nor is the payload's
// buffer sized from the header alone: a pooled buffer big enough takes
// it whole, and a smaller one grows as the bytes arrive, so a lying
// length costs what was sent, not what was announced. A refused
// frame's fm still carries the header's type and id, so a node can
// answer the request it refuses.
func readFrame(r *bufio.Reader, limit int) (fm frameMsg, err error) {
	fb := getFrameBuf()
	hdr := &fb.hdr
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		putFrameBuf(fb)
		return frameMsg{}, err
	}
	fm.typ, fm.id = hdr[2], binary.LittleEndian.Uint64(hdr[4:12])
	plen := binary.LittleEndian.Uint32(hdr[12:16])
	switch {
	case hdr[0] != frameMagic:
		err = fmt.Errorf("%w: magic %#x", errFrameDecode, hdr[0])
		fm = frameMsg{}
	case hdr[1] != protocolVersion:
		err = fmt.Errorf("%w: version %d, this build speaks %d", errFrameVersion, hdr[1], protocolVersion)
	case fm.typ < frameTypeHeader || fm.typ > frameTypeReq:
		err = fmt.Errorf("%w: type %d", errFrameDecode, fm.typ)
	case uint64(plen) > uint64(limit):
		err = fmt.Errorf("%w: %d-byte frame payload, over the %d-byte bound", ErrTooLarge, plen, limit)
	}
	if err != nil {
		putFrameBuf(fb)
		return fm, err
	}
	fm.fb = fb
	if fm.payload, err = readPayload(r, fb.b[:0], int(plen)); err != nil {
		fm.release()
		return frameMsg{}, err
	}
	fm.fb.b = fm.payload
	return fm, nil
}

// minPayloadGrowth is the first size readPayload grows a small buffer to.
const minPayloadGrowth = 4 << 10

// readPayload reads n bytes into buf, which is empty: straight into it
// when it has room, else growing it, at most doubling, only as the
// bytes arrive.
func readPayload(r io.Reader, buf []byte, n int) ([]byte, error) {
	if cap(buf) >= n {
		buf = buf[:n]
		_, err := io.ReadFull(r, buf)
		return buf, err
	}
	for len(buf) < n {
		if len(buf) == cap(buf) {
			buf = slices.Grow(buf, min(n-len(buf), max(cap(buf), minPayloadGrowth)))
		}
		end := min(cap(buf), n)
		if _, err := io.ReadFull(r, buf[len(buf):end]); err != nil {
			return buf, err
		}
		buf = buf[:end]
	}
	return buf, nil
}

// readReply reads one frame of a node's answer. A correct node caps its
// frames at maxFramePayload and never sends a request frame, so either
// is malformed: the node's fault, charged to its breaker, not an
// ErrTooLarge of the client's own.
func readReply(r *bufio.Reader) (frameMsg, error) {
	fm, err := readFrame(r, maxFramePayload)
	switch {
	case errors.Is(err, ErrTooLarge):
		err = fmt.Errorf("%w: %v", errFrameDecode, err)
	case err == nil && fm.typ == frameTypeReq:
		fm.release()
		return frameMsg{}, fmt.Errorf("%w: a request frame in a reply", errFrameDecode)
	}
	return fm, err
}

// decodeMsg decodes a message frame's JSON into v and releases the
// frame. Any other frame is errUnexpectedFrame: the call reading it
// expected one message.
func decodeMsg(fm frameMsg, v any) error {
	defer fm.release()
	if fm.typ != frameTypeMsg {
		return errUnexpectedFrame
	}
	return json.Unmarshal(fm.payload, v)
}

// cursor walks a frame payload with bounds checking; every getter
// reports ok=false on overrun instead of panicking, which is what the
// fuzz target leans on.
type cursor struct {
	p   []byte
	off int
}

func (c *cursor) remaining() int { return len(c.p) - c.off }

func (c *cursor) u8() (byte, bool) {
	if c.remaining() < 1 {
		return 0, false
	}
	v := c.p[c.off]
	c.off++
	return v, true
}

func (c *cursor) u16() (uint16, bool) {
	if c.remaining() < 2 {
		return 0, false
	}
	v := binary.LittleEndian.Uint16(c.p[c.off:])
	c.off += 2
	return v, true
}

func (c *cursor) u32() (uint32, bool) {
	if c.remaining() < 4 {
		return 0, false
	}
	v := binary.LittleEndian.Uint32(c.p[c.off:])
	c.off += 4
	return v, true
}

func (c *cursor) u64() (uint64, bool) {
	if c.remaining() < 8 {
		return 0, false
	}
	v := binary.LittleEndian.Uint64(c.p[c.off:])
	c.off += 8
	return v, true
}

// uvarint reads an unsigned varint written in its fewest bytes: a
// longer spelling of the same value, whose last byte is 0, is refused.
func (c *cursor) uvarint() (uint64, bool) {
	v, n := binary.Uvarint(c.p[c.off:])
	if n <= 0 || (n > 1 && c.p[c.off+n-1] == 0) {
		return 0, false
	}
	c.off += n
	return v, true
}

// varint reads a zigzag signed varint in its fewest bytes.
func (c *cursor) varint() (int64, bool) {
	u, ok := c.uvarint()
	return int64(u>>1) ^ -int64(u&1), ok
}

// str reads a uvarint length and that many bytes as a string.
func (c *cursor) str() (string, bool) {
	n, ok := c.uvarint()
	if !ok || n > uint64(c.remaining()) {
		return "", false
	}
	b, _ := c.bytes(int(n))
	return string(b), true
}

func (c *cursor) bytes(n int) ([]byte, bool) {
	if n < 0 || c.remaining() < n {
		return nil, false
	}
	b := c.p[c.off : c.off+n]
	c.off += n
	return b, true
}

// frameHeader is the decoded header frame. Columns is reused across
// streams by the owning fetchStream.
type frameHeader struct {
	execMs    float64
	columns   []string
	batchRows int
	totalRows uint64
	seq       uint64 // the outcome's number in the node's dedup window
}

// decodeFetchHeader parses a header-frame payload into h, reusing its
// column slice.
func decodeFetchHeader(p []byte, h *frameHeader) error {
	c := cursor{p: p}
	acc, ok1 := c.u8()
	bits, ok2 := c.u64()
	ncols, ok3 := c.u32()
	// The accepted flag is always 1: a refusal never reaches the frame lane.
	if !ok1 || !ok2 || !ok3 || acc != 1 || int(ncols) > c.remaining() {
		return fmt.Errorf("%w: header prefix", errFrameDecode)
	}
	h.execMs = math.Float64frombits(bits)
	h.columns = h.columns[:0]
	for i := 0; i < int(ncols); i++ {
		nlen, ok := c.u16()
		if !ok {
			return fmt.Errorf("%w: column name length", errFrameDecode)
		}
		name, ok := c.bytes(int(nlen))
		if !ok {
			return fmt.Errorf("%w: column name", errFrameDecode)
		}
		h.columns = append(h.columns, string(name))
	}
	batch, ok1 := c.u32()
	total, ok2 := c.u64()
	seq, ok3 := c.u64()
	if !ok1 || !ok2 || !ok3 || c.remaining() != 0 {
		return fmt.Errorf("%w: header trailer", errFrameDecode)
	}
	h.batchRows = int(batch)
	h.totalRows = total
	h.seq = seq
	return nil
}

// frameEnd is the decoded terminal frame.
type frameEnd struct {
	rows    uint64
	batches int
	errMsg  string
}

// decodeFetchEnd parses an end-frame payload.
func decodeFetchEnd(p []byte) (frameEnd, error) {
	c := cursor{p: p}
	rows, ok1 := c.u64()
	batches, ok2 := c.u32()
	elen, ok3 := c.u16()
	if !ok1 || !ok2 || !ok3 {
		return frameEnd{}, fmt.Errorf("%w: end prefix", errFrameDecode)
	}
	msg, ok := c.bytes(int(elen))
	if !ok || c.remaining() != 0 {
		return frameEnd{}, fmt.Errorf("%w: end message", errFrameDecode)
	}
	return frameEnd{rows: rows, batches: int(batches), errMsg: string(msg)}, nil
}

// Col and ColBlock are the cluster-side names for the driver package's
// columnar batch types: the same struct flows from a storage driver's
// Execute, through the frame encoder, across the wire, and out of the
// client-side decoder without transposition.
type (
	Col      = driver.Col
	ColBlock = driver.Block
)

// decodeFetchBatch parses a batch-frame payload into blk, reusing its
// buffers, and validates every count against the column's kinds so a
// malformed frame is an error, never a panic. It moves arrays, not
// values: a column of one value kind has its count from the mode byte,
// any other CountKinds once, and each typed array is sized once and
// filled by index. A column of one value kind fills Col.Kinds with it,
// so what comes out is the same block whatever the wire spent on it. It
// accepts only the encoder's own bytes — per-row kinds only for a column
// that mixes kinds or holds NULLs, ints based at their minimum, floats
// scaled whenever they scale, by the least power of two and from their
// minimum, int, float and text-length widths no wider than they need,
// and zero bool padding bits — so a payload that decodes re-encodes to
// itself
// (FuzzFrameDecode holds that).
func decodeFetchBatch(p []byte, blk *ColBlock) error {
	c := cursor{p: p}
	nrows, ok1 := c.u32()
	ncols, ok2 := c.u32()
	if !ok1 || !ok2 {
		return fmt.Errorf("%w: batch prefix", errFrameDecode)
	}
	// A column costs at least its mode byte and 20 bytes of counts (ints,
	// floats, texts+blob, bools), and at least a bit a row: a kind byte
	// (mode 0), an int delta, scaled float delta or text length of a byte
	// or more, a raw float's 8 bytes, a bool's bit. So the payload bounds
	// the cells, to 8 a byte, before anything is sized from what the
	// counts claim.
	if uint64(ncols)*(21+(uint64(nrows)+7)/8) > uint64(c.remaining()) {
		return fmt.Errorf("%w: batch claims %d×%d cells in %d bytes", errFrameDecode, nrows, ncols, c.remaining())
	}
	if cap(blk.Cols) < int(ncols) {
		blk.Cols = make([]Col, ncols)
	}
	blk.Cols = blk.Cols[:ncols]
	blk.Rows = int(nrows)
	n := int(nrows)
	for j := range blk.Cols {
		col := &blk.Cols[j]
		mode, ok := c.u8()
		if !ok {
			return fmt.Errorf("%w: column %d mode", errFrameDecode, j)
		}
		var ni, nf, ns, nb int
		switch mode {
		case 0:
			kinds, ok := c.bytes(n)
			if !ok {
				return fmt.Errorf("%w: column %d kinds", errFrameDecode, j)
			}
			var known bool
			if ni, nf, ns, nb, known = driver.CountKinds(kinds); !known {
				return fmt.Errorf("%w: column %d has a byte that is no kind", errFrameDecode, j)
			}
			col.Kinds = append(col.Kinds[:0], kinds...)
		case driver.KindByteInt:
			ni = n
		case driver.KindByteFloat:
			nf = n
		case driver.KindByteText:
			ns = n
		case driver.KindByteBool:
			nb = n
		}
		// Mode 0 must mix kinds or hold NULLs, and any other mode must be
		// the value kind of every row, of which there must be some.
		if driver.SingleKind(n, ni, nf, ns, nb) != mode {
			return fmt.Errorf("%w: column %d's mode %#x is not its one kind", errFrameDecode, j, mode)
		}
		if mode != 0 {
			col.Kinds = driver.FillKinds(col.Kinds, mode, n)
		}

		cnt, ok := c.u32()
		if !ok || int(cnt) != ni {
			return fmt.Errorf("%w: column %d ints", errFrameDecode, j)
		}
		col.Ints = col.Ints[:0]
		if ni > 0 {
			base, ok1 := c.u64()
			w, ok2 := c.u8()
			if !ok1 || !ok2 || (w != 1 && w != 2 && w != 4 && w != 8) || c.remaining() < ni*int(w) {
				return fmt.Errorf("%w: column %d ints", errFrameDecode, j)
			}
			deltas, _ := c.bytes(ni * int(w))
			col.Ints = resize(col.Ints, ni)
			lo, hi := getDeltas(col.Ints, deltas, base, int(w))
			// The base is the minimum, so some delta is 0 and none carries
			// a value past MaxInt64; the width is the least the largest needs.
			if lo != 0 || hi > math.MaxInt64-base || uintWidth(hi) != int(w) {
				return fmt.Errorf("%w: column %d ints are not based at their minimum in the fewest bytes", errFrameDecode, j)
			}
		}

		cnt, ok = c.u32()
		if !ok || int(cnt) != nf {
			return fmt.Errorf("%w: column %d floats", errFrameDecode, j)
		}
		col.Floats = resize(col.Floats, nf)
		if nf > 0 {
			if why := getFloats(&c, col.Floats); why != "" {
				return fmt.Errorf("%w: column %d floats %s", errFrameDecode, j, why)
			}
		}

		cnt, ok = c.u32()
		blobLen, ok2 := c.u32()
		if !ok || !ok2 || int(cnt) != ns {
			return fmt.Errorf("%w: column %d text table", errFrameDecode, j)
		}
		var lens []byte
		lenW := 0
		if ns > 0 {
			w, ok := c.u8()
			lenW = int(w)
			if !ok || (w != 1 && w != 2 && w != 4) || c.remaining() < ns*lenW {
				return fmt.Errorf("%w: column %d text table", errFrameDecode, j)
			}
			lens, _ = c.bytes(ns * lenW)
		}
		blobBytes, ok := c.bytes(int(blobLen))
		if !ok {
			return fmt.Errorf("%w: column %d text blob", errFrameDecode, j)
		}
		// One string conversion covers the whole column's texts; the
		// individual values are substrings of it. This is the decode
		// path's only steady-state allocation.
		blob := string(blobBytes)
		col.Texts = resize(col.Texts, ns)
		longest, ok := cutTexts(col.Texts, blob, lens, lenW)
		if !ok {
			return fmt.Errorf("%w: column %d text lengths do not add up to its blob", errFrameDecode, j)
		}
		if ns > 0 && uintWidth(uint64(longest)) != lenW {
			return fmt.Errorf("%w: column %d text lengths are not in the fewest bytes", errFrameDecode, j)
		}

		cnt, ok = c.u32()
		if !ok || int(cnt) != nb {
			return fmt.Errorf("%w: column %d bools", errFrameDecode, j)
		}
		packed, ok := c.bytes((nb + 7) / 8)
		if !ok {
			return fmt.Errorf("%w: column %d bool bits", errFrameDecode, j)
		}
		if nb%8 != 0 && packed[len(packed)-1]>>(nb%8) != 0 {
			return fmt.Errorf("%w: column %d sets bool padding bits", errFrameDecode, j)
		}
		col.Bools = resize(col.Bools, nb)
		for i := 0; i+8 <= nb; i += 8 {
			b, d := packed[i/8], col.Bools[i:i+8:i+8]
			d[0], d[1], d[2], d[3] = b&1 != 0, b&2 != 0, b&4 != 0, b&8 != 0
			d[4], d[5], d[6], d[7] = b&16 != 0, b&32 != 0, b&64 != 0, b&128 != 0
		}
		for i := nb &^ 7; i < nb; i++ {
			col.Bools[i] = packed[i/8]>>(i%8)&1 != 0
		}
	}
	if c.remaining() != 0 {
		return fmt.Errorf("%w: %d trailing batch bytes", errFrameDecode, c.remaining())
	}
	return nil
}

// getFloats reads a column's float section, after its count, into dst:
// a width byte, then either raw 8-byte words (width 0) or k, the base
// and one delta per float in that width, which decodes as
// (base + delta)·2^-k.
// It returns "" for a section the encoder writes, else why not: a
// section cut short or in no layout, or one the encoder writes
// otherwise — scaled by more than the least power of two, based below
// the minimum or in a wider width than the largest delta needs, or raw
// where the floats scale.
func getFloats(c *cursor, dst []float64) (why string) {
	const (
		cut          = "are cut short or in no layout"
		noncanonical = "are not scaled by the least power of two from their minimum in the fewest bytes"
	)
	w, ok := c.u8()
	if !ok {
		return cut
	}
	if w == 0 {
		words, ok := c.bytes(8 * len(dst))
		if !ok {
			return cut
		}
		for i := range dst {
			dst[i] = math.Float64frombits(binary.LittleEndian.Uint64(words[8*i:]))
		}
		if scaleFloats(dst).w != 0 {
			return noncanonical
		}
		return ""
	}
	k, ok1 := c.u16()
	base, ok2 := c.u64()
	if !ok1 || !ok2 || (w != 1 && w != 2 && w != 4) || k > maxFloatScale || c.remaining() < len(dst)*int(w) {
		return cut
	}
	deltas, _ := c.bytes(len(dst) * int(w))
	lo, hi, or := getScaled(dst, deltas, base, int(k), int(w))
	// The base is the least scaled value and none passes 2^53 in
	// magnitude; the width is the least the largest delta needs; and
	// unless k is 0, some scaled value is odd, or a smaller k would do:
	// the base itself, which a zero delta carries, or base + an odd
	// delta.
	if b := int64(base); lo != 0 || b < -1<<53 || b > 1<<53 || hi > uint64(1<<53-b) ||
		uintWidth(hi) != int(w) || (k > 0 && (base|or)&1 == 0) {
		return noncanonical
	}
	return ""
}

// getScaled sets dst to base plus each w-byte delta of src, times 2^-k,
// and returns the smallest and largest delta and the OR of them all.
func getScaled(dst []float64, src []byte, base uint64, k, w int) (lo, hi, or uint64) {
	le := binary.LittleEndian
	down := math.Ldexp(1, -k)
	lo = math.MaxUint64
	switch w {
	case 1:
		src = src[:len(dst)]
		for i, b := range src {
			d := uint64(b)
			lo, hi, or = min(lo, d), max(hi, d), or|d
			dst[i] = float64(int64(base+d)) * down
		}
	case 2:
		src = src[:2*len(dst)]
		for i := range dst {
			d := uint64(le.Uint16(src[:2:2]))
			src = src[2:]
			lo, hi, or = min(lo, d), max(hi, d), or|d
			dst[i] = float64(int64(base+d)) * down
		}
	default:
		src = src[:4*len(dst)]
		for i := range dst {
			d := uint64(le.Uint32(src[:4:4]))
			src = src[4:]
			lo, hi, or = min(lo, d), max(hi, d), or|d
			dst[i] = float64(int64(base+d)) * down
		}
	}
	return lo, hi, or
}

// getDeltas sets dst to base plus each w-byte delta of src and returns
// the smallest and largest delta.
func getDeltas(dst []int64, src []byte, base uint64, w int) (lo, hi uint64) {
	le := binary.LittleEndian
	lo = math.MaxUint64
	switch w {
	case 1:
		src = src[:len(dst)]
		for i, b := range src {
			d := uint64(b)
			lo, hi = min(lo, d), max(hi, d)
			dst[i] = int64(base + d)
		}
	case 2:
		for i := range dst {
			d := uint64(le.Uint16(src[2*i:]))
			lo, hi = min(lo, d), max(hi, d)
			dst[i] = int64(base + d)
		}
	case 4:
		for i := range dst {
			d := uint64(le.Uint32(src[4*i:]))
			lo, hi = min(lo, d), max(hi, d)
			dst[i] = int64(base + d)
		}
	default:
		for i := range dst {
			d := le.Uint64(src[8*i:])
			lo, hi = min(lo, d), max(hi, d)
			dst[i] = int64(base + d)
		}
	}
	return lo, hi
}

// cutTexts sets dst to consecutive substrings of blob whose lengths are
// lens' w-byte entries, and returns the longest; ok is false unless they
// take exactly the whole blob.
func cutTexts(dst []string, blob string, lens []byte, w int) (longest int, ok bool) {
	le := binary.LittleEndian
	off := 0
	cut := func(i, l int) bool {
		if l > len(blob)-off {
			return false
		}
		dst[i] = blob[off : off+l]
		off += l
		longest = max(longest, l)
		return true
	}
	switch w {
	case 1:
		for i, l := range lens[:len(dst)] {
			if !cut(i, int(l)) {
				return 0, false
			}
		}
	case 2:
		for i := range dst {
			if !cut(i, int(le.Uint16(lens[2*i:]))) {
				return 0, false
			}
		}
	case 4:
		for i := range dst {
			if !cut(i, int(le.Uint32(lens[4*i:]))) {
				return 0, false
			}
		}
	}
	return longest, off == len(blob)
}

// resize returns s with length n, reusing its array when it is big
// enough; the contents are left for the caller to overwrite.
func resize[T any](s []T, n int) []T {
	return slices.Grow(s[:0], n)[:n]
}
