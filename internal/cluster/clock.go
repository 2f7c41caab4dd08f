package cluster

import "time"

// clock is where the node and the client read time. Every now, sleep,
// timer and ticker in the package goes through one (make oneclock keeps
// it so): the market period, gossip rounds, the execution stretch, the
// drain budget, batch windows, bid-cache TTLs, breaker cooldowns, retry
// backoff, RPC timeouts, connection deadlines and every span and latency
// stamp. NodeConfig.clock and ClientConfig.clock carry it and validate
// fills in wallClock, so only the package's tests ever run on another:
// fakeClock, which moves only when a test advances it.
//
// A connection deadline is a time on this clock, enforced by the
// network the node or client runs on (network.go): TCP enforces it on
// the wall, which is why TCP pairs only with wallClock, and the tests'
// in-memory network arms it as a timer on the test's clock.
type clock interface {
	now() time.Time
	since(t time.Time) time.Duration
	until(t time.Time) time.Duration
	sleep(d time.Duration)
	newTimer(d time.Duration) timer
	newTicker(d time.Duration) ticker
}

// timer is a one-shot timer on a clock: C delivers the time it fired.
type timer interface {
	C() <-chan time.Time
	Stop() bool
	Reset(d time.Duration) bool
}

// ticker fires on a clock every period until stopped.
type ticker interface {
	C() <-chan time.Time
	Stop()
}

// wallClock is the real clock. Its timer and ticker wrap the runtime's
// in one-pointer structs, which an interface holds without allocating.
type wallClock struct{}

func (wallClock) now() time.Time                   { return time.Now() }
func (wallClock) since(t time.Time) time.Duration  { return time.Since(t) }
func (wallClock) until(t time.Time) time.Duration  { return time.Until(t) }
func (wallClock) sleep(d time.Duration)            { time.Sleep(d) }
func (wallClock) newTimer(d time.Duration) timer   { return wallTimer{time.NewTimer(d)} }
func (wallClock) newTicker(d time.Duration) ticker { return wallTicker{time.NewTicker(d)} }

type wallTimer struct{ *time.Timer }

func (t wallTimer) C() <-chan time.Time { return t.Timer.C }

type wallTicker struct{ *time.Ticker }

func (t wallTicker) C() <-chan time.Time { return t.Ticker.C }

// millis converts a duration to fractional milliseconds, the unit of
// every latency the package reports.
func millis(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
