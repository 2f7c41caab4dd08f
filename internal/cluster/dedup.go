package cluster

import (
	"fmt"
	"hash/fnv"
	"sync"
	"time"
)

// dedupOutcome is one cached execute/fetch result: the reply's verdict
// (a fetch's Accepted/ExecMs/Err ride in exec too — the two replies
// share them) and the envelope code the original reply carried. For
// fetches the raw result is cached as well, so a retransmit is
// re-encoded under its *own* request's negotiation (JSON vs frames,
// batch size) — which also makes the frame stream a replay of identical
// rows, letting a client resume a partial stream by skipping the rows it
// already delivered.
type dedupOutcome struct {
	exec   executeReply
	result *ColBlock
	code   string
	// packed holds a small result in place of result, as the header and
	// batch frames that would stream it; batchAt is where the second
	// starts (see packResult).
	packed  []byte
	batchAt int
}

// packRowsMax bounds the results the window keeps packed. A columnar
// block spends 120 bytes of slice headers per column and an allocation
// per typed array and column name; below a few dozen rows that is most
// of it, and the window holds one result per fetch for its whole TTL.
// Large results stay as produced: they may alias storage, which costs
// nothing to keep.
const packRowsMax = 64

// packResult stores a fetch result in the outcome, a small one as a
// single allocation in the frame encoding.
func (o *dedupOutcome) packResult(res *ColBlock) {
	if res == nil || res.Rows > packRowsMax {
		o.result = res
		return
	}
	o.packed = appendFetchHeader(nil, 0, res.Columns, 0, 0, res.Rows)
	o.batchAt = len(o.packed)
	o.packed = appendFetchBatchCols(o.packed, 0, res.Dense())
}

// block returns the cached result, unpacking it if need be.
func (o *dedupOutcome) block() *ColBlock {
	if o.packed == nil {
		return o.result
	}
	var h frameHeader
	blk := &ColBlock{}
	err := decodeFetchHeader(o.packed[frameHdrLen:o.batchAt], &h)
	if err == nil {
		blk.Columns = h.columns
		err = decodeFetchBatch(o.packed[o.batchAt+frameHdrLen:], blk)
	}
	if err != nil {
		panic("cluster: dedup window cannot read its own encoding: " + err.Error())
	}
	return blk
}

// dedupEntry is one in-flight or settled outcome. done is made by the
// first duplicate that has to wait and closed when the owner settles;
// waiters then read out/cacheable under the window lock. Entries are
// kept lean: a busy node holds one per query for the whole TTL.
type dedupEntry struct {
	done      chan struct{}
	out       dedupOutcome
	cacheable bool
	settled   bool
	at        time.Time // settle time, for TTL eviction
}

// dedupWindow gives execute/fetch at-most-once semantics: the first
// request for a key becomes the owner and runs the query; concurrent or
// later duplicates (a client retransmitting after a lost reply) wait
// for — or read — the owner's outcome instead of re-running it.
//
// Only outcomes that represent completed work (the query ran, or the
// engine rejected its SQL deterministically) are cacheable. Refusals —
// overload, expired, supply race, node stopping — settle uncacheable:
// the entry is deleted once waiters are released, so a later retry with
// fresh budget is re-admitted instead of being served a stale refusal.
type dedupWindow struct {
	mu      sync.Mutex
	entries map[string]*dedupEntry
	ttl     time.Duration
	// order lists cached keys oldest first, so eviction happens the
	// moment an entry's TTL is up — on the next settle — rather than at
	// the next sweep: the window's footprint is rate × TTL, not rate ×
	// (TTL + sweep interval).
	order []string
}

func newDedupWindow(ttl time.Duration) *dedupWindow {
	return &dedupWindow{entries: make(map[string]*dedupEntry), ttl: ttl}
}

// dedupKey builds the window key. QueryID alone is not unique — the
// distributed subquery layer reuses one query id across its fetch
// subqueries — so the SQL hash disambiguates within a query.
func dedupKey(runID, op string, queryID int64, sql string) string {
	h := fnv.New64a()
	h.Write([]byte(sql))
	return fmt.Sprintf("%s|%s|%d|%x", runID, op, queryID, h.Sum64())
}

// claim resolves a key: the first caller becomes the owner (claim
// returns owner=true) and must call settle exactly once; duplicates
// block until the owner settles (or stop closes) and get the cached
// outcome with hit=true. A duplicate of an uncacheable outcome gets
// hit=false after the entry is cleared and becomes the new owner.
func (d *dedupWindow) claim(key string, stop <-chan struct{}) (out dedupOutcome, hit, owner bool) {
	for {
		d.mu.Lock()
		e, ok := d.entries[key]
		if !ok {
			d.entries[key] = &dedupEntry{}
			d.mu.Unlock()
			return dedupOutcome{}, false, true
		}
		if e.settled {
			out, cacheable := e.out, e.cacheable
			if !cacheable {
				// Refusal entries are transient; clear and re-own.
				delete(d.entries, key)
				d.mu.Unlock()
				return dedupOutcome{}, false, true
			}
			d.mu.Unlock()
			return out, true, false
		}
		if e.done == nil {
			e.done = make(chan struct{})
		}
		done := e.done
		d.mu.Unlock()
		select {
		case <-done:
			// Loop: re-read the settled entry (or re-own if it was an
			// uncacheable refusal and got cleared).
		case <-stop:
			return dedupOutcome{exec: executeReply{Err: msgNodeStopping}}, true, false
		}
	}
}

// settle publishes the owner's outcome and releases waiters. A
// cacheable outcome stays in the window until the TTL sweep; an
// uncacheable one (a refusal) is deleted immediately, so released
// waiters loop back, find no entry, and re-own — retrying a refusal
// re-admits the query rather than replaying the stale refusal.
func (d *dedupWindow) settle(key string, out dedupOutcome, cacheable bool) {
	d.mu.Lock()
	e, ok := d.entries[key]
	if !ok || e.settled {
		d.mu.Unlock()
		return
	}
	e.out = out
	e.cacheable = cacheable
	e.settled = true
	e.at = time.Now()
	if e.done != nil {
		close(e.done)
	}
	if cacheable {
		d.order = append(d.order, key)
	} else {
		// Keep the settled entry visible only through the waiters'
		// claim loop: delete now; a waiter looping back finds no entry
		// and re-owns, which is exactly the retry-a-refusal semantics
		// we want.
		delete(d.entries, key)
	}
	d.evictLocked(e.at)
	d.mu.Unlock()
}

// sweep evicts settled entries older than the TTL. settle does the same
// on a busy node; the node's period loop calls this so an idle one lets
// go too. Unsettled (in-flight) entries are never evicted.
func (d *dedupWindow) sweep(now time.Time) {
	d.mu.Lock()
	d.evictLocked(now)
	d.mu.Unlock()
}

// evictLocked drops every cached entry whose TTL has passed. order is
// in settle order, so they are all at its head; a key is on it exactly
// while its cacheable entry is in the map (nothing else deletes those).
func (d *dedupWindow) evictLocked(now time.Time) {
	for len(d.order) > 0 && now.Sub(d.entries[d.order[0]].at) > d.ttl {
		delete(d.entries, d.order[0])
		d.order[0] = "" // the backing array outlives the pop
		d.order = d.order[1:]
	}
}

// size reports the current entry count (tests and gauges).
func (d *dedupWindow) size() int {
	d.mu.Lock()
	defer d.mu.Unlock()
	return len(d.entries)
}
