package cluster

import (
	"sync"
	"time"
)

// breakerState is the circuit breaker's position.
type breakerState int

// Breaker states: closed (traffic flows), open (all calls
// short-circuit), half-open (exactly one probe in flight).
const (
	breakerClosed breakerState = iota
	breakerOpen
	breakerHalfOpen
)

func (s breakerState) String() string {
	switch s {
	case breakerClosed:
		return "closed"
	case breakerOpen:
		return "open"
	default:
		return "half-open"
	}
}

// breaker is a per-node circuit breaker. A dead node must cost the
// client one timeout per breaker window, not one per query: after
// threshold consecutive failures the breaker opens and every call
// short-circuits without touching the network. Once cooldown elapses
// the breaker goes half-open and admits a single probe; a probe
// success closes the circuit, a probe failure reopens it for another
// cooldown.
type breaker struct {
	threshold int
	cooldown  time.Duration
	clk       clock                       // the client's: cooldowns run on it
	onChange  func(from, to breakerState) // optional transition hook

	mu       sync.Mutex
	state    breakerState
	failures int       // consecutive failures while closed
	openedAt time.Time // when the breaker last opened
	probing  bool      // a half-open probe is in flight
}

func newBreaker(threshold int, cooldown time.Duration, clk clock, onChange func(from, to breakerState)) *breaker {
	return &breaker{
		threshold: threshold,
		cooldown:  cooldown,
		clk:       clk,
		onChange:  onChange,
	}
}

// allow reports whether a call may go to the node right now. In
// half-open it admits exactly one probe; callers must follow up with
// success or failure.
func (b *breaker) allow() bool {
	b.mu.Lock()
	defer b.mu.Unlock()
	switch b.state {
	case breakerClosed:
		return true
	case breakerOpen:
		if b.clk.since(b.openedAt) < b.cooldown {
			return false
		}
		b.transitionLocked(breakerHalfOpen)
		b.probing = true
		return true
	default: // half-open
		if b.probing {
			return false
		}
		b.probing = true
		return true
	}
}

// success records a successful call: the node is healthy, close the
// circuit.
func (b *breaker) success() {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.failures = 0
	b.probing = false
	if b.state != breakerClosed {
		b.transitionLocked(breakerClosed)
	}
}

// failure records a failed call: count toward the threshold while
// closed, reopen from half-open.
func (b *breaker) failure() {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.probing = false
	switch b.state {
	case breakerClosed:
		b.failures++
		if b.failures >= b.threshold {
			b.openLocked()
		}
	case breakerHalfOpen:
		b.openLocked()
	case breakerOpen:
		// A straggling concurrent failure; the window is already open.
	}
}

// trip opens the circuit immediately, bypassing the failure count. The
// client uses it when a node *says* it is going away (a typed draining
// reply): no point burning threshold timeouts on an announced death.
func (b *breaker) trip() {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.probing = false
	if b.state != breakerOpen {
		b.openLocked()
	}
}

// snapshot returns the current state for observability.
func (b *breaker) snapshot() breakerState {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.state
}

func (b *breaker) openLocked() {
	b.openedAt = b.clk.now()
	b.failures = 0
	b.transitionLocked(breakerOpen)
}

func (b *breaker) transitionLocked(to breakerState) {
	from := b.state
	b.state = to
	if b.onChange != nil && from != to {
		b.onChange(from, to)
	}
}
