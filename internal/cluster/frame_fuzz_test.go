package cluster

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"encoding/json"
	"math"
	"strings"
	"testing"

	"github.com/qamarket/qamarket/internal/driver"
	"github.com/qamarket/qamarket/internal/sqldb"
)

// FuzzFrameDecode throws arbitrary bytes at both frame read paths. The
// node's: readFrame at the request bound, then each request frame or
// message frame decoded as a request. The client's: readFrame at the
// frame bound, then whichever payload decoder the type byte selects (a
// message is a reply, read as a hello's answer when it carries one),
// then row materialization. The invariant is "error, never panic, never an
// allocation beyond the reader's bound" — a payload's bytes, and a
// batch's cells, at most eight to each byte the batch spends (a bool
// column of one kind costs a bit a row) — plus canonical frames: every
// request, header, batch or end payload that decodes re-encodes to
// exactly the same bytes, which is what shows the encoders and decoders
// are inverses. Seeded with the golden frames of a mixed-kind result, a
// result whose every column but its NULLs has one value kind and a
// result whose floats travel scaled, a batch in each column mode
// at each int and text-length width,
// headers carrying small and huge sequence numbers, a hello message and
// request frames of each work op — a batched, traced CFP carrying
// releases among them — a hello's answer naming the node's boot, and a
// header announcing more than the request bound, so mutations start
// from valid streams.
func FuzzFrameDecode(f *testing.F) {
	res := frameTestResult(9)
	f.Add(appendFetchHeader(nil, 1, res.Columns, 2.5, 4, 9, 0))
	// The header's last field is the outcome's dedup sequence number,
	// which a window starting at 0 keeps small and a long-lived node
	// does not.
	f.Add(appendFetchHeader(nil, 1, res.Columns, 2.5, 4, 9, 41))
	f.Add(appendFetchHeader(nil, 3, nil, 0, 4096, 0, 1<<63+5))
	f.Add(appendFetchBatch(nil, 1, res, 0, 9))
	f.Add(appendFetchBatch(nil, 1, res, 3, 5))
	f.Add(appendFetchEnd(nil, 1, 9, 3, ""))
	f.Add(appendFetchEnd(nil, 1, 4, 1, msgNodeStopping))
	// A whole stream concatenated, and some degenerate inputs.
	stream := appendFetchHeader(nil, 7, res.Columns, 1, 2, 9, 17)
	for lo := 0; lo < 9; lo += 2 {
		hi := lo + 2
		if hi > 9 {
			hi = 9
		}
		stream = appendFetchBatch(stream, 7, res, lo, hi)
	}
	f.Add(appendFetchEnd(stream, 7, 9, 5, ""))
	f.Add(appendFetchBatchCols(nil, 7, goldenBatchBlock()))
	f.Add(appendFetchBatchCols(nil, 7, goldenUniformBlock()))
	f.Add(appendFetchBatchCols(nil, 7, goldenScaledBlock()))
	for _, seed := range layoutSeeds() {
		f.Add(appendFetchBatchCols(nil, 7, seed))
	}
	f.Add([]byte{frameMagic})
	f.Add([]byte{})
	// A connection's opening, a hello and a batched, traced CFP carrying
	// releases; each work op alone; and a request header over the bound
	// with some payload.
	var msgs bytes.Buffer
	if err := writeMsg(bufio.NewWriter(&msgs), 1, maxRequestBytes, &request{Op: "hello", Hello: &hello{RunID: "fuzz", Mechanism: MechQANT}}); err != nil {
		f.Fatal(err)
	}
	f.Add(appendRequest(msgs.Bytes(), 2, &request{Op: "negotiate", SQL: "SELECT a FROM t", QueryID: -3, DeadlineMs: 50,
		Batch:   []batchQuery{{QueryID: 2, SQL: "SELECT b FROM t"}, {QueryID: 1 << 40, DeadlineMs: -1}},
		Release: []uint64{3, 1 << 40}, Trace: &traceCtx{ID: 9, Span: "s1"}}))
	f.Add(appendRequest(nil, 3, &request{Op: "execute", SQL: "SELECT a FROM t", QueryID: 1}))
	f.Add(appendRequest(nil, 4, smallFetchRequest()))
	var answer bytes.Buffer
	if err := writeMsg(bufio.NewWriter(&answer), 1, maxFramePayload, &reply{Hello: &helloReply{NodeID: "n1", Boot: 1<<63 + 5}}); err != nil {
		f.Fatal(err)
	}
	f.Add(answer.Bytes())
	over, hdr := beginFrame(nil, frameTypeMsg, 1)
	over = append(over, `{"op":"stats"}`...)
	binary.LittleEndian.PutUint32(over[hdr+12:], maxRequestBytes+1)
	f.Add(over)

	f.Fuzz(func(t *testing.T, data []byte) {
		r := bufio.NewReader(bytes.NewReader(data))
		for {
			fm, err := readFrame(r, maxRequestBytes)
			if err != nil {
				break
			}
			if len(fm.payload) > maxRequestBytes {
				t.Fatalf("node read a %d-byte payload, over the %d-byte request bound", len(fm.payload), maxRequestBytes)
			}
			var req request
			if fm.typ != frameTypeReq {
				decodeMsg(fm, &req)
				continue
			}
			if decodeRequest(fm.payload, &req) == nil {
				if re := appendRequest(nil, fm.id, &req); !bytes.Equal(re[frameHdrLen:], fm.payload) {
					t.Fatalf("request payload decodes, but re-encodes differently:\n got %x\nwant %x", re[frameHdrLen:], fm.payload)
				}
			}
			fm.release()
		}

		r = bufio.NewReader(bytes.NewReader(data))
		var (
			h   frameHeader
			blk ColBlock
		)
		for {
			fm, err := readFrame(r, maxFramePayload)
			if err != nil {
				return
			}
			if len(fm.payload) > maxFramePayload {
				t.Fatalf("client read a %d-byte payload, over the %d-byte frame bound", len(fm.payload), maxFramePayload)
			}
			var re []byte
			switch fm.typ {
			case frameTypeMsg:
				var rep reply
				if json.Unmarshal(fm.payload, &rep) == nil && rep.Hello != nil {
					helloOf(&rep)
				}
			case frameTypeHeader:
				if decodeFetchHeader(fm.payload, &h) == nil {
					if len(h.columns) > 1<<20 {
						t.Fatalf("header decoded %d columns from %d bytes", len(h.columns), len(fm.payload))
					}
					re = appendFetchHeader(nil, fm.id, h.columns, h.execMs, h.batchRows, int(h.totalRows), h.seq)
				}
			case frameTypeBatch:
				if decodeFetchBatch(fm.payload, &blk) == nil {
					if blk.Rows*len(blk.Cols) > 8*len(fm.payload) {
						t.Fatalf("batch decoded %d cells from %d bytes", blk.Rows*len(blk.Cols), len(fm.payload))
					}
					if _, err := blk.AppendRows(nil); err != nil {
						t.Fatalf("decoded batch failed to materialize: %v", err)
					}
					re = appendFetchBatchCols(nil, fm.id, &blk)
				}
			case frameTypeEnd:
				if end, err := decodeFetchEnd(fm.payload); err == nil {
					re = appendFetchEnd(nil, fm.id, end.rows, end.batches, end.errMsg)
				}
			}
			if re != nil && !bytes.Equal(re[frameHdrLen:], fm.payload) {
				t.Fatalf("type %d payload decodes, but re-encodes differently:\n got %x\nwant %x", fm.typ, re[frameHdrLen:], fm.payload)
			}
			fm.release()
		}
	})
}

// layoutSeeds are one-column blocks, one per choice the batch layout
// makes: each column mode (a single value kind, and per-row kinds for
// NULLs throughout and for mixed kinds), each int delta width from a
// negative base, each text-length width, and the float columns of
// floatColumns, scaled and raw.
func layoutSeeds() []*ColBlock {
	in, fl, tx, bo, nul := sqldb.NewInt, sqldb.NewFloat, sqldb.NewText, sqldb.NewBool, sqldb.Null
	col := func(vals ...sqldb.Value) *ColBlock {
		rows := make([]sqldb.Row, len(vals))
		for i, v := range vals {
			rows[i] = sqldb.Row{v}
		}
		var blk ColBlock
		blk.FillFromRows([]string{"c"}, rows)
		return &blk
	}
	seeds := []*ColBlock{
		col(fl(0.5), fl(-1)),
		col(tx("ab"), tx("")),
		col(bo(true), bo(false), bo(true)),
		col(nul, nul, nul),
		col(in(1), nul, fl(2), tx("x"), bo(true)),
	}
	for _, span := range []int64{0, math.MaxUint8 + 1, math.MaxUint16 + 1, math.MaxUint32 + 1} {
		seeds = append(seeds, col(in(-7), in(-7+span), in(-6)))
	}
	for _, n := range []int{3, math.MaxUint8 + 1, math.MaxUint16 + 1} {
		seeds = append(seeds, col(tx(strings.Repeat("x", n)), tx("")))
	}
	for _, fc := range floatColumns() {
		var blk ColBlock
		blk.Rows = len(fc.vals)
		blk.Cols = []Col{{Floats: fc.vals}}
		blk.Cols[0].Kinds = bytes.Repeat([]byte{driver.KindByteFloat}, len(fc.vals))
		seeds = append(seeds, &blk)
	}
	return seeds
}

// floatColumns are float columns, one per case the float section tells
// apart, each with the width it travels in: 0 for raw words, else the
// bytes a scaled delta takes.
func floatColumns() []struct {
	name string
	vals []float64
	w    int
} {
	const two53 = 1 << 53
	least := math.SmallestNonzeroFloat64
	return []struct {
		name string
		vals []float64
		w    int
	}{
		{"halves", []float64{0.5, 1, 1.5}, 1},
		{"dyadic", []float64{-1.25, 0.75, 3.5, 100.125}, 2},
		{"integral", []float64{0, 7, -3, 1e6}, 4},
		{"negative", []float64{-8, -0.5, -1000.25}, 2},
		{"one tenth alone", []float64{0.1}, 1},
		{"tenths", []float64{0.1, 0.2, 0.3}, 0},
		{"negative zero", []float64{0.5, math.Copysign(0, -1)}, 0},
		{"NaN and infinities", []float64{1, math.NaN(), math.Float64frombits(0x7ff8000000000abc), math.Inf(1), math.Inf(-1)}, 0},
		{"subnormal", []float64{math.Ldexp(1, -1023), math.Ldexp(3, -1023), 0}, 1},
		{"subnormal finer than 2^-1023", []float64{least, 3 * least}, 0},
		{"range past 4 bytes", []float64{0, 1 << 32}, 0},
		{"at +2^53", []float64{two53, two53 - 1, two53 - 2}, 1},
		{"at -2^53", []float64{-two53, -two53 + 1}, 1},
		{"past 2^53", []float64{two53 + 2, two53}, 0},
		{"past 2^53 once scaled", []float64{1<<52 + 1, 0.5}, 0},
		{"across ±2^53", []float64{-two53, two53}, 0},
	}
}
