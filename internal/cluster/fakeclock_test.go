package cluster

import (
	"bytes"
	"runtime"
	"sort"
	"sync"
	"testing"
	"time"
)

// fakeClock is a clock that moves only when a test calls advance. A test
// hands it to a node (NodeConfig.clock) or a client (ClientConfig.clock)
// and then drives market periods, execution stretches, drains, batch
// windows, bid-cache TTLs and breaker cooldowns by hand instead of
// sleeping through them.
//
// advance fires every timer, ticker and sleep that falls due, in
// deadline order, each at its own deadline. blockUntil(n) waits until n
// waiters are armed on the clock — timers and tickers not yet stopped or
// fired, and goroutines inside sleep — which is how a test knows the
// goroutine under test has parked on the clock (the clockwork idiom).
// A waiter armed while advance runs is armed at the advance's end.
type fakeClock struct {
	mu      sync.Mutex
	t       time.Time
	waiters []*fakeWaiter // armed, in arming order
	blocked []fakeBlock   // blockUntil calls still waiting
	moved   chan struct{} // closed and renewed by every advance
}

// fakeWaiter is one armed timer, ticker or sleep.
type fakeWaiter struct {
	clk    *fakeClock
	at     time.Time
	period time.Duration // tickers only
	ch     chan time.Time
}

type fakeBlock struct {
	n  int
	ch chan struct{}
}

func newFakeClock() *fakeClock {
	return &fakeClock{t: time.Unix(1_000_000, 0), moved: make(chan struct{})}
}

func (f *fakeClock) now() time.Time {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.t
}

func (f *fakeClock) since(t time.Time) time.Duration { return f.now().Sub(t) }
func (f *fakeClock) until(t time.Time) time.Duration { return t.Sub(f.now()) }

func (f *fakeClock) sleep(d time.Duration) {
	if d > 0 {
		<-f.arm(d, 0).ch
	}
}

func (f *fakeClock) newTimer(d time.Duration) timer { return fakeTimer{f.arm(d, 0)} }

func (f *fakeClock) newTicker(d time.Duration) ticker {
	if d <= 0 {
		panic("fakeClock: non-positive ticker period")
	}
	return fakeTicker{f.arm(d, d)}
}

func (f *fakeClock) arm(d, period time.Duration) *fakeWaiter {
	w := &fakeWaiter{clk: f, period: period, ch: make(chan time.Time, 1)}
	f.mu.Lock()
	defer f.mu.Unlock()
	f.scheduleLocked(w, d)
	return w
}

// scheduleLocked arms w d from now; a due one fires at once, as a
// runtime timer of zero duration does.
func (f *fakeClock) scheduleLocked(w *fakeWaiter, d time.Duration) {
	w.at = f.t.Add(d)
	if d <= 0 {
		w.ch <- f.t
		return
	}
	f.waiters = append(f.waiters, w)
	kept := f.blocked[:0]
	for _, b := range f.blocked {
		if len(f.waiters) >= b.n {
			close(b.ch)
		} else {
			kept = append(kept, b)
		}
	}
	f.blocked = kept
}

// disarmLocked takes w off the clock and drains a firing nobody read,
// reporting whether it was armed.
func (f *fakeClock) disarmLocked(w *fakeWaiter) bool {
	select {
	case <-w.ch:
	default:
	}
	for i, x := range f.waiters {
		if x == w {
			f.waiters = append(f.waiters[:i], f.waiters[i+1:]...)
			return true
		}
	}
	return false
}

// advance moves the clock d forward, firing what falls due on the way.
func (f *fakeClock) advance(d time.Duration) {
	f.mu.Lock()
	defer f.mu.Unlock()
	end := f.t.Add(d)
	for {
		// Stable: waiters due at one instant fire in arming order.
		sort.SliceStable(f.waiters, func(i, j int) bool { return f.waiters[i].at.Before(f.waiters[j].at) })
		if len(f.waiters) == 0 || f.waiters[0].at.After(end) {
			break
		}
		w := f.waiters[0]
		f.t = w.at
		if w.period > 0 {
			w.at = w.at.Add(w.period)
		} else {
			f.waiters = f.waiters[1:]
		}
		select {
		case w.ch <- f.t:
		default: // a ticker nobody read drops the tick, as the runtime's does
		}
	}
	f.t = end
	close(f.moved)
	f.moved = make(chan struct{})
}

// nextMove returns a channel closed by the next advance.
func (f *fakeClock) nextMove() <-chan struct{} {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.moved
}

// autoAdvance moves the clock to its next deadline whenever every other
// goroutine of the test binary is blocked, until the test ends: time
// passes only when the program under test can do nothing more before a
// timer fires, so a timeout fires exactly when nothing could have beaten
// it, without its wait. It polls for that idleness — a goroutine dump
// once the in-memory network has been quiet for a pause, the pause
// growing while a dump finds work under way — so a program that waits
// on the wall, in a real sleep or on a real socket, has no place on a
// clock that advances itself.
func (f *fakeClock) autoAdvance(t testing.TB) {
	stop, done := make(chan struct{}), make(chan struct{})
	t.Cleanup(func() {
		close(stop)
		<-done
	})
	go func() {
		defer close(done)
		buf := make([]byte, 64<<10)
		const minPause, maxPause = 20 * time.Microsecond, time.Millisecond
		pause := minPause
		for {
			select {
			case <-stop:
				return
			default:
			}
			// The dump stops the world: take it only once a pause has
			// passed with no byte moving on the in-memory network.
			seen := memActivity.Load()
			time.Sleep(pause)
			if _, armed := f.untilNext(); !armed || memActivity.Load() != seen {
				continue
			}
			var idle bool
			if idle, buf = othersBlocked(buf); !idle {
				pause = min(2*pause, maxPause)
				continue
			}
			if d, ok := f.untilNext(); ok {
				f.advance(d)
			}
			pause = minPause
		}
	}()
}

// untilNext is how far the earliest armed waiter lies ahead, if any is.
func (f *fakeClock) untilNext() (time.Duration, bool) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if len(f.waiters) == 0 {
		return 0, false
	}
	next := f.waiters[0].at
	for _, w := range f.waiters[1:] {
		if w.at.Before(next) {
			next = w.at
		}
	}
	return next.Sub(f.t), true
}

// othersBlocked reports whether every goroutine but the advancers
// (this one and any parallel test's) is parked on something only another
// goroutine or the clock can release: a channel, a select, a lock or a
// socket. Any other state — running, runnable, a system call, a wall
// sleep, a GC assist — is work under way. buf is the dump's scratch,
// returned grown when the dump outgrew it.
func othersBlocked(buf []byte) (bool, []byte) {
	dumpMu.Lock()
	defer dumpMu.Unlock()
	n := runtime.Stack(buf, true)
	for n == len(buf) {
		buf = make([]byte, 2*len(buf))
		n = runtime.Stack(buf, true)
	}
next:
	for _, g := range bytes.Split(buf[:n], []byte("\n\n")) {
		if bytes.Contains(g, []byte(").autoAdvance.")) {
			continue
		}
		state := g[bytes.IndexByte(g, '[')+1:]
		for _, parked := range parkedStates {
			if bytes.HasPrefix(state, []byte(parked)) {
				continue next
			}
		}
		return false, buf
	}
	return true, buf
}

// parkedStates are the goroutine states (as runtime.Stack names them)
// that wait on another goroutine, the clock or a socket. A bare
// "semacquire" is not one: the runtime parks an allocating goroutine on
// a semaphore while the collector runs, and it wakes with no one's help.
var parkedStates = []string{
	"chan receive", "chan send", "select", "sync.Mutex.Lock",
	"sync.RWMutex.Lock", "sync.RWMutex.RLock", "sync.Cond.Wait", "sync.WaitGroup.Wait",
	"IO wait", "finalizer wait",
}

// dumpMu keeps parallel tests' advancers from dumping at once.
var dumpMu sync.Mutex

// waitFor waits until cond holds, re-checking it after each advance of
// clk, and fails once d has passed on clk. The clock must be moving: by
// autoAdvance, or by the test.
func waitFor(t testing.TB, clk *fakeClock, d time.Duration, cond func() bool, msg string) {
	t.Helper()
	end := clk.now().Add(d)
	for {
		moved := clk.nextMove()
		if cond() {
			return
		}
		if !clk.now().Before(end) {
			t.Fatal(msg)
		}
		<-moved
	}
}

// blockUntil waits until at least n waiters are armed on the clock.
func (f *fakeClock) blockUntil(n int) { <-f.armed(n) }

// armed returns a channel closed once at least n waiters are armed.
func (f *fakeClock) armed(n int) <-chan struct{} {
	ch := make(chan struct{})
	f.mu.Lock()
	defer f.mu.Unlock()
	if len(f.waiters) >= n {
		close(ch)
	} else {
		f.blocked = append(f.blocked, fakeBlock{n, ch})
	}
	return ch
}

type fakeTimer struct{ w *fakeWaiter }

func (t fakeTimer) C() <-chan time.Time { return t.w.ch }

func (t fakeTimer) Stop() bool {
	f := t.w.clk
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.disarmLocked(t.w)
}

func (t fakeTimer) Reset(d time.Duration) bool {
	f := t.w.clk
	f.mu.Lock()
	defer f.mu.Unlock()
	armed := f.disarmLocked(t.w)
	f.scheduleLocked(t.w, d)
	return armed
}

type fakeTicker struct{ w *fakeWaiter }

func (t fakeTicker) C() <-chan time.Time { return t.w.ch }

func (t fakeTicker) Stop() {
	f := t.w.clk
	f.mu.Lock()
	defer f.mu.Unlock()
	f.disarmLocked(t.w)
}

// TestFakeClockFiresInDeadlineOrder pins the fake's contract: nothing
// moves until advance; advance fires what falls due, in deadline order,
// each at its own deadline; a ticker re-arms; a stopped timer never
// fires; blockUntil returns once a sleeper has parked.
func TestFakeClockFiresInDeadlineOrder(t *testing.T) {
	f := newFakeClock()
	start := f.now()
	late, early := f.newTimer(30*time.Millisecond), f.newTimer(10*time.Millisecond)
	stopped := f.newTimer(5 * time.Millisecond)
	tick := f.newTicker(20 * time.Millisecond)
	if !stopped.Stop() || stopped.Stop() {
		t.Fatal("Stop does not report the first disarm only")
	}
	woke := make(chan time.Time)
	go func() { f.sleep(25 * time.Millisecond); woke <- f.now() }()
	f.blockUntil(4) // two timers, the ticker and the sleeper
	f.advance(50 * time.Millisecond)
	for _, c := range []struct {
		name string
		ch   <-chan time.Time
		at   time.Duration
	}{{"early", early.C(), 10 * time.Millisecond}, {"ticker", tick.C(), 20 * time.Millisecond}, {"late", late.C(), 30 * time.Millisecond}} {
		if got := (<-c.ch).Sub(start); got != c.at {
			t.Errorf("%s fired at %v, want %v", c.name, got, c.at)
		}
	}
	if got := (<-woke).Sub(start); got != 50*time.Millisecond {
		t.Errorf("the sleeper read %v after waking, want the advance's end, 50ms", got)
	}
	select {
	case <-stopped.C():
		t.Error("a stopped timer fired")
	default:
	}
	f.advance(10 * time.Millisecond)
	if got := (<-tick.C()).Sub(start); got != 60*time.Millisecond {
		t.Errorf("the ticker's next tick fired at %v, want 60ms (the 40ms one was dropped unread)", got)
	}
}

// autoClock is a fake clock that advances itself for the rest of t.
func autoClock(t testing.TB) *fakeClock {
	clk := newFakeClock()
	clk.autoAdvance(t)
	return clk
}

// onClock is a startTestFederation mutate that puts every node on clk.
func onClock(clk *fakeClock) func(int, *NodeConfig) {
	return func(_ int, cfg *NodeConfig) { cfg.clock = clk }
}
