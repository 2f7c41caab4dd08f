package cluster

import (
	"sync"
	"time"

	"github.com/qamarket/qamarket/internal/metrics"
)

// bidCache is the client's winning-bid cache: one negotiation round's
// ranked proposal ladder, kept per query class and reused to admit
// follow-up queries of the class straight to execute or fetch — the
// amortization that turns O(view) negotiate RPCs per query into O(1).
//
// Coherence rule: a cached bid is exactly as durable as the market
// state it priced. Each candidate is stamped with the bidder's gossiped
// market epoch at fill time; a lookup revalidates every stamp against
// the live view and the whole entry dies on the first mismatch — epoch
// bump (the bidder started a new pricing period), membership change
// (the bidder left the view), or the TTL (which covers static views
// that never learn epochs; set it to the market period). Execution-time
// staleness signals — a typed refusal, a lost supply race, a fatal
// error from a cached candidate — invalidate explicitly via the client.
type bidCache struct {
	ttl     time.Duration
	mu      sync.Mutex
	entries map[string]*bidEntry
}

// cachedBid is one rung of a cached ladder: the candidate and the
// market epoch it had gossiped when the proposal round ranked it.
type cachedBid struct {
	ns    *nodeState
	epoch uint64
}

type bidEntry struct {
	bids    []cachedBid
	expires time.Time
}

// newBidCache builds the cache. It keeps no clock: put and get take the
// client's now.
func newBidCache(ttl time.Duration) *bidCache {
	return &bidCache{ttl: ttl, entries: make(map[string]*bidEntry)}
}

// put caches a fresh proposal round's ladder for the class at now,
// stamping each candidate's current epoch.
func (b *bidCache) put(class string, ranked []*nodeState, now time.Time) {
	bids := make([]cachedBid, len(ranked))
	for i, ns := range ranked {
		ns.mu.Lock()
		bids[i] = cachedBid{ns: ns, epoch: ns.epoch}
		ns.mu.Unlock()
	}
	b.mu.Lock()
	b.entries[class] = &bidEntry{bids: bids, expires: now.Add(b.ttl)}
	b.mu.Unlock()
}

// get returns the class's cached ladder when, at now, every stamp still
// holds under valid, nil otherwise. Any stale rung — or an expired TTL —
// invalidates the whole entry (reported via dropped): a partially stale
// ladder was ranked against prices that no longer exist.
func (b *bidCache) get(class string, now time.Time, valid func(ns *nodeState, epoch uint64) bool) (ranked []*nodeState, dropped bool) {
	b.mu.Lock()
	e := b.entries[class]
	b.mu.Unlock()
	if e == nil {
		return nil, false
	}
	if now.After(e.expires) {
		return nil, b.invalidate(class)
	}
	ranked = make([]*nodeState, len(e.bids))
	for i, cb := range e.bids {
		if !valid(cb.ns, cb.epoch) {
			return nil, b.invalidate(class)
		}
		ranked[i] = cb.ns
	}
	return ranked, false
}

// invalidate drops the class's entry, reporting whether one existed.
func (b *bidCache) invalidate(class string) bool {
	b.mu.Lock()
	defer b.mu.Unlock()
	if _, ok := b.entries[class]; !ok {
		return false
	}
	delete(b.entries, class)
	return true
}

// bidStillValid is the client's stamp check: the candidate must still
// be in the view under its stable ID (the same state, not a namesake
// rejoiner) with its gossiped market epoch unchanged since the stamp.
func (c *Client) bidStillValid(ns *nodeState, epoch uint64) bool {
	ns.mu.Lock()
	id, cur := ns.id, ns.epoch
	ns.mu.Unlock()
	if cur != epoch {
		return false
	}
	c.viewMu.RLock()
	live, ok := c.view[id]
	c.viewMu.RUnlock()
	return ok && live == ns
}

// cachedLadder looks the class up in the bid cache (nil with the cache
// off or on a miss), counting hits and misses.
func (c *Client) cachedLadder(class string) []*nodeState {
	if c.bids == nil {
		return nil
	}
	ranked, dropped := c.bids.get(class, c.cfg.clock.now(), c.bidStillValid)
	if dropped {
		c.health.Inc(metrics.BidCacheInvalidationsTotal)
	}
	if ranked == nil {
		c.health.Inc(metrics.BidCacheMissesTotal)
		return nil
	}
	c.health.Inc(metrics.BidCacheHitsTotal)
	return ranked
}

// dropBids invalidates the class's cached ladder (no-op with the cache
// off). Typed refusals, lost supply races, and fatal errors from cached
// candidates all land here: each says the market moved under the cache.
func (c *Client) dropBids(class string) {
	if c.bids == nil {
		return
	}
	if c.bids.invalidate(class) {
		c.health.Inc(metrics.BidCacheInvalidationsTotal)
	}
}
