package cluster

import (
	"testing"
	"time"
)

// TestBidCacheDeterministicExpiry drives TTL expiry on the fake clock:
// before the deadline the ladder is served, one tick past it the entry
// dies (and reports the drop so the invalidation counter can fire). The
// wall clock is never consulted.
func TestBidCacheDeterministicExpiry(t *testing.T) {
	clk := newFakeClock()
	cache := newBidCache(50 * time.Millisecond)
	ns := &nodeState{id: "n1", epoch: 3}
	always := func(*nodeState, uint64) bool { return true }

	cache.put("classA", []*nodeState{ns}, clk.now())
	if ranked, dropped := cache.get("classA", clk.now(), always); len(ranked) != 1 || dropped {
		t.Fatalf("fresh entry: got %d rungs, dropped=%v; want 1, false", len(ranked), dropped)
	}

	clk.advance(50 * time.Millisecond) // exactly at the deadline: still valid
	if ranked, _ := cache.get("classA", clk.now(), always); len(ranked) != 1 {
		t.Fatalf("entry died at its deadline instead of after it")
	}

	clk.advance(time.Nanosecond) // one tick past: expired
	if ranked, dropped := cache.get("classA", clk.now(), always); ranked != nil || !dropped {
		t.Fatalf("expired entry: got %v, dropped=%v; want nil, true", ranked, dropped)
	}
	if ranked, dropped := cache.get("classA", clk.now(), always); ranked != nil || dropped {
		t.Fatalf("second lookup after expiry: got %v, dropped=%v; want nil, false (already gone)", ranked, dropped)
	}
}

// TestBidCacheEpochStampInvalidation pins the stamp-revalidation rule
// on the fake clock: a single stale rung kills the whole ladder even
// well inside the TTL.
func TestBidCacheEpochStampInvalidation(t *testing.T) {
	clk := newFakeClock()
	cache := newBidCache(time.Hour)
	a := &nodeState{id: "a", epoch: 1}
	b := &nodeState{id: "b", epoch: 7}
	cache.put("classA", []*nodeState{a, b}, clk.now())

	b.mu.Lock()
	b.epoch = 8 // b started a new pricing period since the stamp
	b.mu.Unlock()
	valid := func(ns *nodeState, epoch uint64) bool {
		ns.mu.Lock()
		defer ns.mu.Unlock()
		return ns.epoch == epoch
	}
	if ranked, dropped := cache.get("classA", clk.now(), valid); ranked != nil || !dropped {
		t.Fatalf("stale-stamped ladder survived: got %v, dropped=%v", ranked, dropped)
	}
}
