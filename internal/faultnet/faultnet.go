// Package faultnet injects deterministic faults into the connections a
// test dials, for testing the federation's failure domains without
// sleeps or real crashes. A Link wraps the dials to one target address
// on any network (TCP, or a test's in-memory one) and injects faults at
// two levels:
//
//   - A per-dial Plan, chosen by a Schedule from the dial's index to the
//     target (and nothing else), so a seeded test replays the exact same
//     fault sequence every run: refuse the connection, black-hole it, or
//     truncate the reply after N bytes.
//   - Dynamic link-wide switches flipped mid-test: one-way partitions
//     (drop every byte traveling one direction while the connection
//     stays open, like an asymmetric link failure), black-holing and
//     refusing of new connections, and severing every open one.
//
// Faults fail where a TCP peer's would: a refused or black-holed dial
// still succeeds, and the failure shows on the first exchange (the
// hello), as a reset or as a reply that never comes. A target that
// restarts binds its address again, and the link reaches it there.
package faultnet

import (
	"errors"
	"net"
	"sync"
	"sync/atomic"
	"time"
)

// Direction names a traffic direction through a link.
type Direction int

// Traffic directions for partitions.
const (
	// ClientToServer is traffic from the dialer toward the target.
	ClientToServer Direction = iota
	// ServerToClient is reply traffic from the target to the dialer.
	ServerToClient
)

func (d Direction) String() string {
	if d == ClientToServer {
		return "client->server"
	}
	return "server->client"
}

// Plan is the fault schedule for one dialed connection.
type Plan struct {
	// Refuse never reaches the target: the connection is reset on its
	// first read or write.
	Refuse bool
	// Blackhole never reaches the target: writes are swallowed and
	// reads wait until the dialer closes the connection, like a crashed
	// host that still routes.
	Blackhole bool
	// TruncateReplyAfter, when positive, delivers only that many
	// server->client bytes and then closes the connection, modeling a
	// mid-reply connection loss.
	TruncateReplyAfter int
}

// Schedule picks the Plan for the i-th dial to the target (0-based). It
// must be a pure function of the index so runs are reproducible; any
// seeding is baked into the closure by the caller.
type Schedule func(dial int) Plan

// PassThrough is the no-fault schedule.
func PassThrough(int) Plan { return Plan{} }

// RefuseFirst refuses the first n dials and passes the rest.
func RefuseFirst(n int) Schedule {
	return func(dial int) Plan { return Plan{Refuse: dial < n} }
}

// Dialer is the network a Link wraps: it dials an address.
type Dialer func(addr string, timeout time.Duration) (net.Conn, error)

// Link is the fault-injecting way to one target.
type Link struct {
	dial   Dialer
	target string

	mu       sync.Mutex
	schedule Schedule
	conns    map[net.Conn]struct{} // open connections, for Sever
	dials    int

	dropC2S   atomic.Bool // one-way partition: drop client->server bytes
	dropS2C   atomic.Bool // one-way partition: drop server->client bytes
	blackhole atomic.Bool // black-hole every new connection
	refuse    atomic.Bool // refuse every new connection
}

// New returns a link to target over dial, under the given schedule
// (nil = PassThrough).
func New(dial Dialer, target string, schedule Schedule) (*Link, error) {
	if target == "" {
		return nil, errors.New("faultnet: empty target address")
	}
	if schedule == nil {
		schedule = PassThrough
	}
	return &Link{dial: dial, target: target, schedule: schedule, conns: make(map[net.Conn]struct{})}, nil
}

// Dials returns how many connections have been dialed through the link.
func (l *Link) Dials() int {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.dials
}

// Dial connects to the target through the link's faults. Only a
// passing dial reaches the target; when the target itself cannot be
// reached, the connection is refused as a planned refusal is.
func (l *Link) Dial(timeout time.Duration) (net.Conn, error) {
	l.mu.Lock()
	plan := l.schedule(l.dials)
	l.dials++
	l.mu.Unlock()
	if plan.Refuse || l.refuse.Load() {
		return newStub(l, true), nil
	}
	if plan.Blackhole || l.blackhole.Load() {
		return l.track(newStub(l, false)), nil
	}
	c, err := l.dial(l.target, timeout)
	if err != nil {
		return newStub(l, true), nil
	}
	return l.track(&conn{Conn: c, l: l, budget: plan.TruncateReplyAfter}), nil
}

// Partition starts dropping all bytes traveling in the given direction
// while connections stay open — an asymmetric link failure.
func (l *Link) Partition(d Direction) {
	if d == ClientToServer {
		l.dropC2S.Store(true)
	} else {
		l.dropS2C.Store(true)
	}
}

// Heal removes all partitions.
func (l *Link) Heal() {
	l.dropC2S.Store(false)
	l.dropS2C.Store(false)
}

// SetBlackhole toggles black-holing of new connections: dialed but
// never reaching the target nor answered, like a crashed host that
// still routes.
func (l *Link) SetBlackhole(on bool) { l.blackhole.Store(on) }

// SetRefuse toggles refusing new connections: reset at once, so the
// dialer fails fast — a crashed process whose host is still up, the
// cheap-failure counterpart to the full-timeout blackhole.
func (l *Link) SetRefuse(on bool) { l.refuse.Store(on) }

// Sever closes every open connection through the link: an instantaneous
// crash of all established streams. Combine with SetRefuse to keep the
// "process" down, or leave new dials passing to model a blip that
// killed in-flight replies only.
func (l *Link) Sever() {
	l.mu.Lock()
	open := make([]net.Conn, 0, len(l.conns))
	for c := range l.conns {
		open = append(open, c)
	}
	l.mu.Unlock()
	for _, c := range open {
		c.Close()
	}
}

func (l *Link) track(c net.Conn) net.Conn {
	l.mu.Lock()
	l.conns[c] = struct{}{}
	l.mu.Unlock()
	return c
}

func (l *Link) untrack(c net.Conn) {
	l.mu.Lock()
	delete(l.conns, c)
	l.mu.Unlock()
}

// conn is a connection that reached the target, under the link's
// partitions and its plan's truncation. Its deadlines are the wrapped
// connection's.
type conn struct {
	net.Conn
	l      *Link
	budget int // server->client bytes left to deliver before the cut; 0 = no cut
	cut    bool
}

func (c *conn) Write(p []byte) (int, error) {
	if c.l.dropC2S.Load() {
		return len(p), nil // lost on the link; the connection stays up
	}
	return c.Conn.Write(p)
}

func (c *conn) Read(p []byte) (int, error) {
	if c.cut {
		return 0, errReset
	}
	for {
		n, err := c.Conn.Read(p)
		if n > 0 && c.l.dropS2C.Load() {
			if err != nil {
				return 0, err
			}
			continue // lost on the link
		}
		if c.budget > 0 && n >= c.budget {
			n, c.cut = c.budget, true
			c.Conn.Close()
			return n, nil
		}
		if c.budget > 0 {
			c.budget -= n
		}
		return n, err
	}
}

func (c *conn) Close() error {
	c.l.untrack(c)
	return c.Conn.Close()
}

// errReset is what a refused or truncated connection reads and writes.
var errReset = errors.New("faultnet: connection reset")

// stub is a connection that never reaches the target: refused (reset
// at once) or black-holed (writes swallowed, reads wait for Close).
type stub struct {
	l     *Link
	reset bool
	done  chan struct{}
	once  sync.Once
}

func newStub(l *Link, reset bool) *stub { return &stub{l: l, reset: reset, done: make(chan struct{})} }

func (s *stub) Read([]byte) (int, error) {
	if s.reset {
		return 0, errReset
	}
	<-s.done
	return 0, net.ErrClosed
}

func (s *stub) Write(p []byte) (int, error) {
	if s.reset {
		return 0, errReset
	}
	select {
	case <-s.done:
		return 0, net.ErrClosed
	default:
		return len(p), nil
	}
}

func (s *stub) Close() error {
	s.once.Do(func() {
		close(s.done)
		s.l.untrack(s)
	})
	return nil
}

func (s *stub) LocalAddr() net.Addr  { return addr(s.l.target) }
func (s *stub) RemoteAddr() net.Addr { return addr(s.l.target) }

// A black hole's writes never block, so a write deadline holds; a read
// deadline would need a clock the link does not have, so a read waits
// for the dialer to give up and Close, as a pooled client's RPC timer
// does.
func (s *stub) SetDeadline(t time.Time) error    { return s.SetReadDeadline(t) }
func (s *stub) SetWriteDeadline(time.Time) error { return nil }

func (s *stub) SetReadDeadline(t time.Time) error {
	if t.IsZero() || s.reset {
		return nil
	}
	return errNoReadDeadline
}

var errNoReadDeadline = errors.New("faultnet: a black-holed connection has no read deadline; close it to give up")

// addr names a stub's ends by the link's target.
type addr string

func (a addr) Network() string { return "faultnet" }
func (a addr) String() string  { return string(a) }
