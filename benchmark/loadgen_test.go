package main

import (
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// stubLoop drives op with trivial queries; the generators never look
// inside them.
func stubLoop(op opFunc) loop {
	inst := &instance{at: func(*queryRand, int64) query { return query{SQL: "q"} }}
	return loop{inst: inst, seed: 1, cursor: new(atomic.Int64), ids: new(idSeq), op: op}
}

// An open loop must charge a stall to the queries scheduled behind it.
// The op models a one-at-a-time server; query 2 stalls it for 200 ms.
// Queries 3.. were due 10 ms apart during the stall: dispatched on
// schedule, they wait for the server, and their latency from the due
// time shows it. A generator that sent the next query only after the
// previous one returned would have recorded their 1 ms service time.
func TestOpenLoopChargesStallToLaterQueries(t *testing.T) {
	const stall = 200 * time.Millisecond
	var server sync.Mutex
	var calls atomic.Int64
	op := func(id int64, _ query, _ bool) opResult {
		n := calls.Add(1)
		server.Lock()
		defer server.Unlock()
		if n == 3 {
			time.Sleep(stall)
		} else {
			time.Sleep(time.Millisecond)
		}
		return opResult{}
	}
	due := make([]time.Duration, 12)
	for k := range due {
		due[k] = time.Duration(k) * 10 * time.Millisecond
	}
	start := time.Now()
	samples := stubLoop(op).runOpen(due, -1, nil)
	if len(samples) != len(due) {
		t.Fatalf("%d samples for %d arrivals", len(samples), len(due))
	}
	// Dispatch kept to the schedule: the last query was due at 110 ms and
	// the whole run is the stall plus little more, not 12 service times
	// queued behind a blocked generator.
	if wall := time.Since(start); wall > stall+200*time.Millisecond {
		t.Fatalf("run took %v", wall)
	}
	for k, sm := range samples {
		if sm.err != nil {
			t.Fatalf("sample %d: %v", k, sm.err)
		}
		if sm.lateMs > 20 {
			t.Errorf("query %d dispatched %.1f ms late: the generator waited for a completion", k, sm.lateMs)
		}
	}
	if samples[0].latMs > 50 || samples[1].latMs > 50 {
		t.Errorf("queries before the stall took %.1f and %.1f ms", samples[0].latMs, samples[1].latMs)
	}
	// Query 3 was due at 30 ms, 10 ms into a 200 ms stall: it cannot have
	// finished sooner than 150 ms after its due time. Later ones waited
	// less, each by its 10 ms later due time.
	for k := 3; k <= 6; k++ {
		floor := float64(stall/time.Millisecond) - float64(10*(k-2)) - 30
		if samples[k].latMs < floor {
			t.Errorf("query %d recorded %.1f ms, want at least %.0f: the stall was not charged to it", k, samples[k].latMs, floor)
		}
	}
}

// Latency runs from the due time, not the dispatch time: when the
// generator itself is late, the lateness is part of what is recorded.
func TestOpenLoopTimesFromDueTime(t *testing.T) {
	op := func(int64, query, bool) opResult { return opResult{} }
	// onMark blocks the dispatcher for 50 ms before query 1 goes out.
	samples := stubLoop(op).runOpen([]time.Duration{0, time.Millisecond, 2 * time.Millisecond},
		1, func() { time.Sleep(50 * time.Millisecond) })
	if samples[1].lateMs < 40 || samples[1].latMs < 40 {
		t.Fatalf("query 1 late %.1f ms, latency %.1f ms: a 50 ms generator stall went unrecorded", samples[1].lateMs, samples[1].latMs)
	}
	if samples[2].latMs < 40 {
		t.Fatalf("query 2 latency %.1f ms: it was due during the stall", samples[2].latMs)
	}
}

func TestClosedLoopRunsWorkersUntilDeadline(t *testing.T) {
	var inflight, peak atomic.Int64
	op := func(int64, query, bool) opResult {
		n := inflight.Add(1)
		for {
			p := peak.Load()
			if n <= p || peak.CompareAndSwap(p, n) {
				break
			}
		}
		time.Sleep(2 * time.Millisecond)
		inflight.Add(-1)
		return opResult{rows: 1}
	}
	l := stubLoop(op)
	samples, elapsed := l.runClosed(3, 60*time.Millisecond)
	if peak.Load() != 3 {
		t.Fatalf("peak concurrency %d, want the 3 workers", peak.Load())
	}
	if elapsed < 60*time.Millisecond {
		t.Fatalf("stopped after %v", elapsed)
	}
	seen := make(map[int64]bool)
	for _, sm := range samples {
		if seen[sm.idx] {
			t.Fatalf("list position %d drawn twice", sm.idx)
		}
		seen[sm.idx] = true
	}
	if int64(len(samples)) != l.cursor.Load() {
		t.Fatalf("%d samples, cursor at %d", len(samples), l.cursor.Load())
	}
}
