// Package desim is a minimal discrete-event simulation engine: a virtual
// millisecond clock and a time-ordered event heap. It is the substrate
// on which internal/sim rebuilds the paper's C++ federation simulator.
//
// Events scheduled for the same instant fire in scheduling order (FIFO),
// which keeps simulations deterministic regardless of map iteration or
// goroutine scheduling — there are no goroutines here at all.
//
// The engine is built for the hot path of paper-scale runs (millions of
// events per experiment): the heap is hand-rolled over a []*item slice
// rather than container/heap (no interface dispatch per sift level), and
// fired or cancelled items are recycled through a free list, so a
// steady-state simulation — e.g. a rolling period tick that re-arms
// itself from its own callback — schedules events without allocating.
// A generation counter on each item keeps stale Handles from cancelling
// a recycled slot.
package desim

import "fmt"

// Time is virtual simulation time in milliseconds.
type Time int64

// Event is a callback scheduled to fire at a virtual instant.
type Event func(now Time)

type item struct {
	at   Time
	seq  uint64
	run  Event
	gen  uint32
	dead bool
}

// Handle identifies a scheduled event so it can be cancelled. Handles
// returned by Every track the loop's most recent tick.
type Handle struct {
	it   *item
	gen  uint32
	roll *rollingHandle
}

// Cancel prevents the event from firing. Cancelling an already-fired or
// already-cancelled event is a no-op. For Every loops it stops the next
// pending tick, ending the loop.
func (h Handle) Cancel() {
	if h.it != nil && h.it.gen == h.gen {
		h.it.dead = true
	}
	if h.roll != nil {
		h.roll.cur.Cancel()
	}
}

// Engine owns the clock and the pending-event queue. The zero value is
// ready to use.
type Engine struct {
	now    Time
	seq    uint64
	events []*item // min-heap ordered by (at, seq)
	free   []*item // recycled items awaiting reuse
}

// Now returns the current virtual time.
func (e *Engine) Now() Time { return e.now }

// At schedules run to fire at absolute time at. Scheduling in the past
// panics: it is always a logic error in a discrete-event model.
func (e *Engine) At(at Time, run Event) Handle {
	if at < e.now {
		panic(fmt.Sprintf("desim: scheduling at %d before now %d", at, e.now))
	}
	if run == nil {
		panic("desim: nil event")
	}
	var it *item
	if n := len(e.free); n > 0 {
		it = e.free[n-1]
		e.free[n-1] = nil
		e.free = e.free[:n-1]
		it.at = at
		it.run = run
		it.dead = false
	} else {
		it = &item{at: at, run: run}
	}
	it.seq = e.seq
	e.seq++
	e.push(it)
	return Handle{it: it, gen: it.gen}
}

// After schedules run to fire delay milliseconds from now.
func (e *Engine) After(delay Time, run Event) Handle {
	if delay < 0 {
		panic(fmt.Sprintf("desim: negative delay %d", delay))
	}
	return e.At(e.now+delay, run)
}

// recycle returns a popped item to the free list. The generation bump
// invalidates every Handle still pointing at it.
func (e *Engine) recycle(it *item) {
	it.run = nil
	it.gen++
	e.free = append(e.free, it)
}

// Step fires the earliest pending event and advances the clock to its
// timestamp. It returns false when the queue is empty.
func (e *Engine) Step() bool {
	for len(e.events) > 0 {
		it := e.pop()
		if it.dead {
			e.recycle(it)
			continue
		}
		e.now = it.at
		run := it.run
		// Recycle before running: the common rolling-tick pattern (an
		// event re-arming itself from its own callback) reuses this very
		// item, so steady-state ticking allocates nothing.
		e.recycle(it)
		run(e.now)
		return true
	}
	return false
}

// Run drains the event queue completely and returns the final time.
func (e *Engine) Run() Time {
	for e.Step() {
	}
	return e.now
}

// Every schedules run to fire at now+interval and then every interval
// milliseconds, for as long as run returns true. Returning false stops
// the ticker; Cancel on the returned handle stops the *next* pending
// fire (the common way to tear a ticker down from outside).
func (e *Engine) Every(interval Time, run func(now Time) bool) Handle {
	if interval <= 0 {
		panic(fmt.Sprintf("desim: non-positive interval %d", interval))
	}
	h := &rollingHandle{}
	var tick Event
	tick = func(now Time) {
		if !run(now) {
			return
		}
		h.set(e.After(interval, tick))
	}
	h.set(e.After(interval, tick))
	return Handle{roll: h}
}

// rollingHandle tracks the most recently scheduled tick of an Every
// loop so one Cancel stops the chain.
type rollingHandle struct {
	cur Handle
}

func (r *rollingHandle) set(h Handle) { r.cur = h }

// RunUntil fires events until the clock would pass the deadline; events
// scheduled exactly at the deadline still fire. Remaining events stay
// queued and the clock is left at min(deadline, last fired event).
func (e *Engine) RunUntil(deadline Time) {
	for len(e.events) > 0 {
		root := e.events[0]
		if root.dead {
			e.recycle(e.pop())
			continue
		}
		if root.at > deadline {
			return
		}
		e.Step()
	}
}

// less orders items by (at, seq): time first, FIFO within an instant.
func less(a, b *item) bool {
	if a.at != b.at {
		return a.at < b.at
	}
	return a.seq < b.seq
}

// push appends the item and sifts it up. For an item later than
// everything pending — the rolling-tick case — the first parent
// comparison fails and the push is O(1).
func (e *Engine) push(it *item) {
	e.events = append(e.events, it)
	i := len(e.events) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if !less(it, e.events[parent]) {
			break
		}
		e.events[i] = e.events[parent]
		i = parent
	}
	e.events[i] = it
}

// pop removes and returns the heap root.
func (e *Engine) pop() *item {
	h := e.events
	root := h[0]
	n := len(h) - 1
	last := h[n]
	h[n] = nil
	e.events = h[:n]
	if n > 0 {
		e.siftDown(last)
	}
	return root
}

// siftDown places it, starting from the root, into heap position.
func (e *Engine) siftDown(it *item) {
	h := e.events
	n := len(h)
	i := 0
	for {
		kid := 2*i + 1
		if kid >= n {
			break
		}
		if right := kid + 1; right < n && less(h[right], h[kid]) {
			kid = right
		}
		if !less(h[kid], it) {
			break
		}
		h[i] = h[kid]
		i = kid
	}
	h[i] = it
}
