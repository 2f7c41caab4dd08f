package cluster

import (
	"encoding/binary"
	"hash/maphash"
	"math"
	"math/bits"
	"sync"
	"time"
)

// dedupKey names one execute or fetch of one client run. QueryID alone
// is not unique — the distributed subquery layer reuses one query id
// across its fetch subqueries — so the run id, the op and the SQL are
// hashed into sum with the window's random seed. Two live outcomes
// share a key only if their query ids match and a 64-bit hash collides:
// a window of a million outcomes that all shared one query id would
// meet that less than once in 10^7 fills.
type dedupKey struct {
	queryID int64
	sum     uint64
}

// dedupRecord is one settled outcome as the window keeps it. packed is
// a single exact-size allocation:
//
//	flags     1 byte   bit 0: accepted
//	rows      uvarint  executeReply.Rows
//	exec ms   8 bytes  float64 bits, little-endian
//	wait ms   8 bytes  float64 bits, little-endian
//	error     uvarint length, then the bytes
//	header    uvarint length (0: no packed result), then a header frame's payload
//	batch     the rest: one batch frame's payload
//
// A fetch result of at most packRowsMax rows is packed as the payloads
// of the header and batch frames that would stream it, without their
// 16-byte frame headers; a larger one is kept as produced in big. That
// is not free: its columns may alias storage, but a filtered result's
// selection vector is 4 bytes a row that only the record holds. A
// retransmit is re-streamed cut to its *own* request's batch size — a
// replay of identical rows, letting a client resume a partial stream by
// skipping the rows it already delivered.
//
// Once the client reports that it holds the whole stream, release drops
// both and keeps only the key: a released record has packed == nil.
type dedupRecord struct {
	packed []byte
	big    *ColBlock
}

// released reports a record whose result its client already holds.
func (r dedupRecord) released() bool { return r.packed == nil }

// retained is what the record holds that nothing else does: the packed
// bytes, and a large result's selection vector. A large result's
// columns alias storage or an operator's output and are not counted.
func (r dedupRecord) retained() int64 {
	n := int64(cap(r.packed))
	if r.big != nil {
		n += 4 * int64(cap(r.big.Sel))
	}
	return n
}

// packRowsMax bounds the results the window keeps packed. A columnar
// block spends 120 bytes of slice headers per column and an allocation
// per typed array and column name; below a few dozen rows that is most
// of it, and the window may hold a result until its TTL when the
// client's release never comes.
const packRowsMax = 64

// stoppedRecord is what a duplicate waiting on an owner reads when the
// node stops first.
var stoppedRecord = packRecord(executeReply{Err: msgNodeStopping}, nil)

// packRecord builds the record of one outcome; res is a fetch's result
// (nil for an execute, or a fetch that produced none).
func packRecord(rep executeReply, res *ColBlock) dedupRecord {
	var rec dedupRecord
	var hdr, batch []byte
	if res != nil && res.Rows > packRowsMax {
		rec.big = res
	} else if res != nil {
		fb := getFrameBuf()
		defer putFrameBuf(fb)
		f := appendFetchHeader(fb.b[:0], 0, res.Columns, 0, 0, res.Rows, 0)
		m := len(f)
		f = appendFetchBatchCols(f, 0, res.Dense())
		fb.b = f
		hdr, batch = f[frameHdrLen:m], f[m+frameHdrLen:]
	}
	size := 1 + uvarintLen(rep.Rows) + 16 + uvarintLen(len(rep.Err)) + len(rep.Err) +
		uvarintLen(len(hdr)) + len(hdr) + len(batch)
	p := make([]byte, 0, size)
	var flags byte
	if rep.Accepted {
		flags = 1
	}
	p = append(p, flags)
	p = binary.AppendUvarint(p, uint64(rep.Rows))
	p = binary.LittleEndian.AppendUint64(p, math.Float64bits(rep.ExecMs))
	p = binary.LittleEndian.AppendUint64(p, math.Float64bits(rep.WaitMs))
	p = binary.AppendUvarint(p, uint64(len(rep.Err)))
	p = append(p, rep.Err...)
	p = binary.AppendUvarint(p, uint64(len(hdr)))
	p = append(p, hdr...)
	rec.packed = append(p, batch...)
	return rec
}

func uvarintLen(n int) int { return (bits.Len64(uint64(n)|1) + 6) / 7 }

// outcome unpacks the record: the verdict, and the fetch result it
// carries (nil if none).
func (r dedupRecord) outcome() (executeReply, *ColBlock) {
	c := cursor{p: r.packed}
	flags, ok1 := c.u8()
	rows, ok2 := c.uvarint()
	exec, ok3 := c.u64()
	wait, ok4 := c.u64()
	elen, ok5 := c.uvarint()
	msg, ok6 := c.bytes(int(elen))
	hlen, ok7 := c.uvarint()
	hdr, ok8 := c.bytes(int(hlen))
	if !(ok1 && ok2 && ok3 && ok4 && ok5 && ok6 && ok7 && ok8) {
		panic("cluster: dedup window cannot read its own record")
	}
	rep := executeReply{
		Accepted: flags&1 != 0,
		Rows:     int(rows),
		ExecMs:   math.Float64frombits(exec),
		WaitMs:   math.Float64frombits(wait),
		Err:      string(msg),
	}
	if r.big != nil || len(hdr) == 0 {
		return rep, r.big
	}
	var h frameHeader
	blk := &ColBlock{}
	err := decodeFetchHeader(hdr, &h)
	if err == nil {
		blk.Columns = h.columns
		err = decodeFetchBatch(r.packed[c.off:], blk)
	}
	if err != nil {
		panic("cluster: dedup window cannot read its own encoding: " + err.Error())
	}
	return rep, blk
}

// dedupWindow gives execute/fetch at-most-once semantics: the first
// request for a key becomes the owner and runs the query; concurrent or
// later duplicates (a client retransmitting after a lost reply) wait
// for — or read — the owner's outcome instead of re-running it.
//
// Only outcomes that represent completed work (the query ran, or the
// engine rejected its SQL deterministically) are cacheable. Refusals —
// overload, expired, supply race, node stopping — settle uncacheable:
// nothing is kept once waiters are released, so a later retry with
// fresh budget is re-admitted instead of being served a stale refusal.
// A cached outcome therefore never carries an envelope code.
//
// A settled outcome's sequence number is its ring position. A fetch's
// header frame carries it, and the client names it in a later request's
// release list once it holds the whole stream; release then drops the
// result and keeps the key for the rest of its TTL, so a duplicate is
// still caught. It is refused (claim's rec.released()), never re-run.
type dedupWindow struct {
	mu   sync.Mutex
	seed maphash.Seed
	ttl  time.Duration
	clk  clock // the node's
	// base is the origin of settle times: durations since it keep the
	// monotonic clock at a third of a time.Time's size.
	base time.Time
	// flights holds the claimed, unsettled keys; the channel is made by
	// the first duplicate that has to wait and closed by settle.
	flights map[dedupKey]chan struct{}
	// settled indexes the cached outcomes: each key's value is its
	// outcome's sequence number, ring[seq-head]. A busy node keeps one
	// outcome per query for the whole TTL and deletes as fast as it
	// inserts, which leaves a Go map at about twice the slots it holds,
	// so the map carries 24-byte slots and the records live in the ring.
	settled map[dedupKey]uint64
	// ring holds the cached outcomes oldest first, so eviction happens
	// the moment an entry's TTL is up — on the next settle — rather than
	// at the next sweep: the window's footprint is rate × TTL, not rate ×
	// (TTL + sweep interval).
	ring []settledOutcome
	head uint64 // sequence number of ring[0]
	// bytes is the sum of retained() over the ring (the
	// dedup_retained_bytes gauge).
	bytes int64
}

type settledOutcome struct {
	key dedupKey
	run uint64        // the run's hash: a release must come from it
	at  time.Duration // since the window's base
	rec dedupRecord
}

func newDedupWindow(ttl time.Duration, clk clock) *dedupWindow {
	return &dedupWindow{
		seed:    maphash.MakeSeed(),
		ttl:     ttl,
		clk:     clk,
		base:    clk.now(),
		flights: make(map[dedupKey]chan struct{}),
		settled: make(map[dedupKey]uint64),
	}
}

// key builds the window key of one execute (fetch=false) or fetch.
func (d *dedupWindow) key(runID string, fetch bool, queryID int64, sql string) dedupKey {
	var h maphash.Hash
	h.SetSeed(d.seed)
	// The run id's length keeps (run, SQL) pairs from sharing a byte string.
	var pre [9]byte
	binary.LittleEndian.PutUint64(pre[:8], uint64(len(runID)))
	if fetch {
		pre[8] = 1
	}
	h.Write(pre[:])
	h.WriteString(runID)
	h.WriteString(sql)
	return dedupKey{queryID: queryID, sum: h.Sum64()}
}

// run hashes a run id for settle and release.
func (d *dedupWindow) run(runID string) uint64 { return maphash.String(d.seed, runID) }

// claim resolves a key: the first caller becomes the owner (claim
// returns owner=true) and must call settle exactly once; duplicates
// block until the owner settles (or stop closes) and get the cached
// outcome and its sequence number with hit=true — a released record
// among them. A duplicate of an uncacheable outcome gets hit=false once
// the owner settles and becomes the new owner.
func (d *dedupWindow) claim(key dedupKey, stop <-chan struct{}) (rec dedupRecord, seq uint64, hit, owner bool) {
	for {
		d.mu.Lock()
		if seq, ok := d.settled[key]; ok {
			rec := d.ring[seq-d.head].rec
			d.mu.Unlock()
			return rec, seq, true, false
		}
		done, inFlight := d.flights[key]
		if !inFlight {
			d.flights[key] = nil
			d.mu.Unlock()
			return dedupRecord{}, 0, false, true
		}
		if done == nil {
			done = make(chan struct{})
			d.flights[key] = done
		}
		d.mu.Unlock()
		select {
		case <-done:
			// Loop: read the settled outcome, or re-own if it was an
			// uncacheable refusal and nothing was kept.
		case <-stop:
			return stoppedRecord, 0, true, false
		}
	}
}

// settle publishes the owner's outcome, made under run (a run()
// hash), and wakes waiters. A cacheable outcome is packed and stays in
// the window for the TTL; its sequence number comes back for the fetch
// header. An uncacheable one (a refusal) is dropped, so woken waiters
// loop back, find nothing, and re-own — retrying a refusal re-admits
// the query rather than replaying the stale refusal.
func (d *dedupWindow) settle(key dedupKey, run uint64, rep executeReply, res *ColBlock, cacheable bool) (seq uint64) {
	var rec dedupRecord
	if cacheable {
		rec = packRecord(rep, res)
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	seq = d.head + uint64(len(d.ring))
	done, ok := d.flights[key]
	if !ok {
		return d.head - 1 // below the ring: a number that names nothing
	}
	delete(d.flights, key)
	if done != nil {
		close(done)
	}
	now := d.clk.since(d.base)
	if cacheable {
		d.settled[key] = seq
		d.ring = append(d.ring, settledOutcome{key, run, now, rec})
		d.bytes += rec.retained()
	}
	d.evictLocked(now)
	return seq
}

// release drops the results of the run's settled outcomes named by
// seqs and keeps their keys, timestamps and ring places. A number that
// names no settled outcome, another run's or an already released one is
// ignored.
func (d *dedupWindow) release(run uint64, seqs []uint64) {
	d.mu.Lock()
	defer d.mu.Unlock()
	for _, seq := range seqs {
		// Unsigned: a number below head wraps past the ring's length.
		if i := seq - d.head; i < uint64(len(d.ring)) && d.ring[i].run == run {
			d.bytes -= d.ring[i].rec.retained()
			d.ring[i].rec = dedupRecord{}
		}
	}
}

// sweep evicts settled entries older than the TTL. settle does the same
// on a busy node; the node's period loop calls this so an idle one lets
// go too. Unsettled (in-flight) entries are never evicted.
func (d *dedupWindow) sweep() {
	d.mu.Lock()
	d.evictLocked(d.clk.since(d.base))
	d.mu.Unlock()
}

// evictLocked drops every cached entry whose TTL has passed. ring is
// in settle order, so they are all at its head; a key is indexed exactly
// while its outcome is on the ring (nothing else deletes either).
func (d *dedupWindow) evictLocked(now time.Duration) {
	for len(d.ring) > 0 && now-d.ring[0].at > d.ttl {
		delete(d.settled, d.ring[0].key)
		d.bytes -= d.ring[0].rec.retained()
		d.ring[0] = settledOutcome{} // the backing array outlives the pop
		d.ring = d.ring[1:]
		d.head++
	}
}

// size reports the current entry count, in flight or settled, and the
// bytes the settled outcomes retain (tests and gauges).
func (d *dedupWindow) size() (entries int, retained int64) {
	d.mu.Lock()
	defer d.mu.Unlock()
	return len(d.flights) + len(d.settled), d.bytes
}
