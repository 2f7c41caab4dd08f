package cluster

import (
	"errors"
	"fmt"
	"io"
	"net"
	"os"
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"github.com/qamarket/qamarket/internal/engine"
	"github.com/qamarket/qamarket/internal/faultnet"
)

// memNet is the package tests' in-memory network: a node listens on it
// (NodeConfig.network) and the node and clients dial through it
// (ClientConfig.network) without a socket. All of a test binary's
// memNets share one switchboard of listeners, found by address: "host:0"
// binds the next free "mem:port", and an address is free again once its
// listener closes, so a restarted node keeps its address. A memNet is
// that switchboard seen through one clock, the clock of the node or
// client using it: a connection's read and write deadlines are times on
// its end's clock, armed as timers on that clock only while an operation
// waits, so a fake-clock run never waits on the wall. A connection is two
// bounded byte pipes, so a reader that stops reading holds its writer up
// as TCP's window would; Close unblocks both ends.
type memNet struct{ clk clock }

func newMemNet(clk clock) *memNet { return &memNet{clk: clk} }

// memWall is the in-memory network over the wall clock.
var memWall = newMemNet(wallClock{})

// memSwitch is the listener table every memNet shares.
var memSwitch = struct {
	mu   sync.Mutex
	ls   map[string]*memListener
	port int // the last port a ":0" listen took
}{ls: make(map[string]*memListener)}

// memActivity counts the in-memory network's dials, reads, writes and
// closes, for fakeClock.autoAdvance's cheap look at whether anything
// moves.
var memActivity atomic.Int64

// memPipeCap bounds the bytes in flight one way on a connection.
const memPipeCap = 256 << 10

var errRefused = errors.New("connection refused")

func (m *memNet) listen(addr string) (net.Listener, error) {
	_, port, err := net.SplitHostPort(addr)
	if err != nil {
		return nil, err
	}
	sw := &memSwitch
	sw.mu.Lock()
	defer sw.mu.Unlock()
	if port == "0" {
		// Host "mem": no address a test writes by hand (127.0.0.1:9)
		// names a bound listener.
		sw.port++
		addr = "mem:" + strconv.Itoa(sw.port)
	}
	if sw.ls[addr] != nil {
		return nil, fmt.Errorf("listen %s: address already in use", addr)
	}
	l := &memListener{clk: m.clk, addr: addr, backlog: make(chan net.Conn, 1024), done: make(chan struct{})}
	sw.ls[addr] = l
	return l, nil
}

func (m *memNet) dial(addr string, _ time.Duration) (net.Conn, error) {
	memActivity.Add(1)
	memSwitch.mu.Lock()
	l := memSwitch.ls[addr]
	memSwitch.mu.Unlock()
	if l == nil {
		return nil, &net.OpError{Op: "dial", Net: "mem", Addr: memAddr(addr), Err: errRefused}
	}
	ab, ba := newMemPipe(), newMemPipe()
	peer := memAddr(addr + "-peer")
	client := &memConn{in: ba, out: ab, clk: m.clk, local: peer, remote: memAddr(addr), closed: make(chan struct{}), kick: make(chan struct{})}
	server := &memConn{in: ab, out: ba, clk: l.clk, local: memAddr(addr), remote: peer, closed: make(chan struct{}), kick: make(chan struct{})}
	select {
	case <-l.done:
	case l.backlog <- server:
		return client, nil
	default: // backlog full
	}
	return nil, &net.OpError{Op: "dial", Net: "mem", Addr: memAddr(addr), Err: errRefused}
}

type memAddr string

func (a memAddr) Network() string { return "mem" }
func (a memAddr) String() string  { return string(a) }

type memListener struct {
	clk  clock // the listening node's: its connections' deadlines
	addr string
	// backlog holds dialed connections not yet accepted, so a dial never
	// waits on Accept; a dial that finds it full is refused, as one that
	// finds a full TCP listen queue is. 1024 outlasts any test's burst of
	// dials (a 100-node fleet joining one seed).
	backlog chan net.Conn
	done    chan struct{}
	once    sync.Once
}

func (l *memListener) Accept() (net.Conn, error) {
	select {
	case <-l.done:
		return nil, net.ErrClosed
	default:
	}
	select {
	case c := <-l.backlog:
		return c, nil
	case <-l.done:
		return nil, net.ErrClosed
	}
}

// Close frees the address and resets the connections nobody accepted.
func (l *memListener) Close() error {
	l.once.Do(func() {
		memSwitch.mu.Lock()
		if memSwitch.ls[l.addr] == l {
			delete(memSwitch.ls, l.addr)
		}
		close(l.done)
		memSwitch.mu.Unlock()
		for {
			select {
			case c := <-l.backlog:
				c.Close()
			default:
				return
			}
		}
	})
	return nil
}

func (l *memListener) Addr() net.Addr { return memAddr(l.addr) }

// memPipe is one direction of a connection.
type memPipe struct {
	mu   sync.Mutex
	buf  []byte
	shut bool          // the writer closed: reads drain buf, then EOF
	gone bool          // the reader closed: writes fail
	wake chan struct{} // closed and renewed on every change
}

func newMemPipe() *memPipe { return &memPipe{wake: make(chan struct{})} }

// changedLocked wakes every operation waiting on the pipe.
func (p *memPipe) changedLocked() {
	close(p.wake)
	p.wake = make(chan struct{})
}

type memConn struct {
	in, out       *memPipe
	clk           clock
	local, remote memAddr
	closed        chan struct{}
	once          sync.Once

	mu       sync.Mutex
	rdl, wdl time.Time     // zero = none
	kick     chan struct{} // closed and renewed when a deadline moves
}

func (c *memConn) Read(b []byte) (int, error) {
	memActivity.Add(1)
	p := c.in
	for {
		p.mu.Lock()
		switch {
		case c.isClosed():
			p.mu.Unlock()
			return 0, net.ErrClosed
		case c.expired(&c.rdl):
			p.mu.Unlock()
			return 0, os.ErrDeadlineExceeded
		case len(p.buf) > 0:
			n := copy(b, p.buf)
			if p.buf = p.buf[n:]; len(p.buf) == 0 {
				p.buf = nil
			}
			p.changedLocked()
			p.mu.Unlock()
			return n, nil
		case p.shut:
			p.mu.Unlock()
			return 0, io.EOF
		}
		wake := p.wake
		p.mu.Unlock()
		c.wait(wake, &c.rdl)
	}
}

func (c *memConn) Write(b []byte) (int, error) {
	memActivity.Add(1)
	p := c.out
	written := 0
	for written < len(b) {
		p.mu.Lock()
		switch {
		case c.isClosed():
			p.mu.Unlock()
			return written, net.ErrClosed
		case p.gone:
			p.mu.Unlock()
			return written, errors.New("write: broken pipe")
		case c.expired(&c.wdl):
			p.mu.Unlock()
			return written, os.ErrDeadlineExceeded
		case len(p.buf) < memPipeCap:
			k := min(memPipeCap-len(p.buf), len(b)-written)
			p.buf = append(p.buf, b[written:written+k]...)
			written += k
			p.changedLocked()
			p.mu.Unlock()
			continue
		}
		wake := p.wake
		p.mu.Unlock()
		c.wait(wake, &c.wdl)
	}
	return written, nil
}

func (c *memConn) isClosed() bool {
	select {
	case <-c.closed:
		return true
	default:
		return false
	}
}

// expired reports whether the deadline at dl has passed on the clock.
func (c *memConn) expired(dl *time.Time) bool {
	c.mu.Lock()
	d := *dl
	c.mu.Unlock()
	return !d.IsZero() && !c.clk.now().Before(d)
}

// wait blocks until the pipe changes, a deadline moves, the connection
// closes or the deadline at dl passes, and the caller's loop then reads
// the state that woke it. The deadline's timer is armed on the clock
// only for the wait.
func (c *memConn) wait(wake <-chan struct{}, dl *time.Time) {
	c.mu.Lock()
	d, kick := *dl, c.kick
	c.mu.Unlock()
	var fire <-chan time.Time
	if !d.IsZero() {
		t := c.clk.newTimer(c.clk.until(d))
		defer t.Stop()
		fire = t.C()
	}
	select {
	case <-wake:
	case <-kick:
	case <-c.closed:
	case <-fire:
	}
}

func (c *memConn) Close() error {
	memActivity.Add(1)
	c.once.Do(func() {
		close(c.closed)
		for _, p := range []*memPipe{c.in, c.out} {
			p.mu.Lock()
			if p == c.in {
				p.gone = true
			} else {
				p.shut = true
			}
			p.changedLocked()
			p.mu.Unlock()
		}
	})
	return nil
}

func (c *memConn) LocalAddr() net.Addr  { return c.local }
func (c *memConn) RemoteAddr() net.Addr { return c.remote }

func (c *memConn) SetDeadline(t time.Time) error {
	c.setDeadline(&c.rdl, t)
	c.setDeadline(&c.wdl, t)
	return nil
}

func (c *memConn) SetReadDeadline(t time.Time) error  { c.setDeadline(&c.rdl, t); return nil }
func (c *memConn) SetWriteDeadline(t time.Time) error { c.setDeadline(&c.wdl, t); return nil }

func (c *memConn) setDeadline(dl *time.Time, t time.Time) {
	c.mu.Lock()
	*dl = t
	close(c.kick)
	c.kick = make(chan struct{})
	c.mu.Unlock()
}

// linkNet is a network some of whose addresses are fault links: a dial
// to one goes through its faultnet.Link to the link's target on the
// network underneath, every other dial goes straight there. A client
// given a link's front address reaches its node only through the link.
type linkNet struct {
	network

	mu    sync.Mutex
	links map[string]*faultnet.Link
}

func newLinkNet(base network) *linkNet {
	return &linkNet{network: base, links: make(map[string]*faultnet.Link)}
}

// link starts a fault link to target and returns it with the address
// that dials through it.
func (n *linkNet) link(t testing.TB, target string, s faultnet.Schedule) (*faultnet.Link, string) {
	t.Helper()
	n.mu.Lock()
	front := fmt.Sprintf("link-%d:%s", len(n.links), target)
	n.links[front] = nil // taken
	n.mu.Unlock()
	return n.relink(t, front, target, s), front
}

// relink points front at a new link to target for the dials from now
// on; the connections already dialed keep theirs.
func (n *linkNet) relink(t testing.TB, front, target string, s faultnet.Schedule) *faultnet.Link {
	t.Helper()
	l, err := faultnet.New(n.network.dial, target, s)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(l.Sever)
	n.mu.Lock()
	n.links[front] = l
	n.mu.Unlock()
	return l
}

func (n *linkNet) dial(addr string, timeout time.Duration) (net.Conn, error) {
	n.mu.Lock()
	l := n.links[addr]
	n.mu.Unlock()
	if l != nil {
		return l.Dial(timeout)
	}
	return n.network.dial(addr, timeout)
}

// TestMemNetConnections pins the in-memory network's contract: a
// deadline is a timer on the network's clock, armed only while a read
// waits, that fires on advance and not before; Close unblocks the
// other end's reader with EOF; a closed listener frees its address for
// a rebind; and a dial to no listener is refused.
func TestMemNetConnections(t *testing.T) {
	clk := newFakeClock()
	nw := newMemNet(clk)
	ln, err := nw.listen("mem:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String()
	client, err := nw.dial(addr, time.Second)
	if err != nil {
		t.Fatal(err)
	}
	server, err := ln.Accept()
	if err != nil {
		t.Fatal(err)
	}
	client.SetReadDeadline(clk.now().Add(50 * time.Millisecond))
	read := make(chan error, 1)
	go func() {
		_, err := client.Read(make([]byte, 1))
		read <- err
	}()
	clk.blockUntil(1) // the reader's deadline timer
	clk.advance(49 * time.Millisecond)
	select {
	case err := <-read:
		t.Fatalf("read returned %v before its deadline", err)
	default:
	}
	clk.advance(time.Millisecond)
	if err := <-read; !errors.Is(err, os.ErrDeadlineExceeded) {
		t.Fatalf("read past its deadline: %v, want a deadline error", err)
	}
	client.SetReadDeadline(time.Time{})
	if _, err := server.Write([]byte("hi")); err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 2)
	if n, err := io.ReadFull(client, buf); n != 2 || err != nil || string(buf) != "hi" {
		t.Fatalf("read %q, %v", buf[:n], err)
	}
	go func() { _, err := server.Read(make([]byte, 1)); read <- err }()
	client.Close()
	if err := <-read; err != io.EOF {
		t.Fatalf("the far end read %v after Close, want EOF", err)
	}
	server.Close()

	ln.Close()
	if _, err := nw.dial(addr, time.Second); err == nil {
		t.Fatal("a dial to a closed listener connected")
	}
	again, err := nw.listen(addr)
	if err != nil {
		t.Fatalf("rebinding a freed address: %v", err)
	}
	again.Close()
}

// onMem puts a node on the in-memory network, seen through its clock
// (the wall clock when it names none), unless it names a network.
func onMem(cfg *NodeConfig) {
	if cfg.clock == nil {
		cfg.clock = wallClock{}
	}
	if cfg.network == nil {
		cfg.network = newMemNet(cfg.clock)
	}
}

// settle yields the processor until cond holds. On the in-memory
// network what a test's last step set off runs on goroutines that are
// already runnable, so this waits on the scheduler, not on the wall; the
// wall bound only fails a cond that never comes.
func settle(t testing.TB, cond func() bool, msg string) {
	t.Helper()
	for deadline := time.Now().Add(10 * time.Second); !cond(); runtime.Gosched() {
		if time.Now().After(deadline) {
			t.Fatal(msg)
		}
	}
}

// TestTCPNeedsTheWallClock: TCP enforces a connection deadline on the
// wall, so a node or client that pairs it with another clock — the fake
// one, whose epoch is 1970 — fails at start rather than at its first
// deadline, while the in-memory network takes any clock.
func TestTCPNeedsTheWallClock(t *testing.T) {
	clk := newFakeClock()
	if _, err := StartNode("127.0.0.1:0", NodeConfig{Driver: engine.Open(), clock: clk}); err == nil {
		t.Error("a node paired TCP with a fake clock")
	}
	if _, err := NewClient(ClientConfig{Addrs: []string{"127.0.0.1:9"}, clock: clk, network: tcpNetwork{}}); err == nil {
		t.Error("a client paired TCP with a fake clock")
	}
	c, err := NewClient(ClientConfig{Addrs: []string{"127.0.0.1:9"}, clock: clk, network: newMemNet(clk)})
	if err != nil {
		t.Fatalf("a client on the in-memory network and a fake clock: %v", err)
	}
	c.Close()
	c, err = NewClient(ClientConfig{Addrs: []string{"127.0.0.1:9"}})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if _, tcp := c.cfg.network.(tcpNetwork); !tcp {
		t.Errorf("a client's default network is %T, want TCP", c.cfg.network)
	}
	if _, wall := c.cfg.clock.(wallClock); !wall {
		t.Errorf("a client's default clock is %T, want the wall clock", c.cfg.clock)
	}
}
