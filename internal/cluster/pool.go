package cluster

import (
	"bufio"
	"errors"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"time"
)

// A Client carries its RPCs over a small pool of persistent multiplexed
// connections per node: request frames carry client-assigned ids, many
// RPCs ride one connection concurrently, and a reader goroutine demuxes
// replies to the waiting callers. Connections dial lazily and are
// evicted on any protocol error or RPC timeout — a stream that lost a
// reply is suspect, and re-dialing keeps the breaker's accounting at
// one dial per timed-out probe.

// Transport-layer errors. All of them count as node failures for the
// circuit breaker, exactly like a dial error.
var (
	// errRPCTimeout reports no reply within the caller's budget. The
	// connection is evicted: its stream may still deliver the reply
	// arbitrarily late, and a hung TCP stream (blackhole, partition)
	// must cost one dial per probe, not zero.
	errRPCTimeout = errors.New("cluster: rpc timeout awaiting reply")
	// errPoolClosed reports an RPC attempted after Client.Close.
	errPoolClosed = errors.New("cluster: client transport closed")
)

// wireCounter tallies bytes crossing a set of connections, for the
// bytes_per_query accounting in qaload reports.
type wireCounter struct {
	in  atomic.Int64
	out atomic.Int64
}

// countedConn wraps a net.Conn to tally its traffic on a wireCounter.
type countedConn struct {
	net.Conn
	wc *wireCounter
}

func (c *countedConn) Read(p []byte) (int, error) {
	n, err := c.Conn.Read(p)
	c.wc.in.Add(int64(n))
	return n, err
}

func (c *countedConn) Write(p []byte) (int, error) {
	n, err := c.Conn.Write(p)
	c.wc.out.Add(int64(n))
	return n, err
}

// rpcResult is one demuxed message: a decoded reply, a result frame, or
// the connection's terminal error.
type rpcResult struct {
	rep   *reply
	frame frameMsg
	err   error
}

// streamChanDepth buffers a few frames per streamed call so the
// readLoop rarely blocks on a healthy consumer. When the consumer falls
// behind, the readLoop's blocking send stops socket reads and TCP
// backpressure reaches the server — that stall is the mechanism that
// bounds both sides' memory to O(batch) on a huge result.
const streamChanDepth = 8

// mconn is one multiplexed connection: writes are serialized under wmu,
// replies are read by a single readLoop goroutine and routed to waiting
// callers through the pending map: one result channel per in-flight
// call, fed one reply or a fetch's result frames. A connection dies on
// its first protocol error or timeout; every in-flight caller then
// receives the terminal error, and the pool dials a replacement on next
// use.
type mconn struct {
	conn net.Conn
	peer helloReply // the node's answer to the connection's hello: who answered it
	clk  clock      // the client's: RPC timeouts run on it

	wmu sync.Mutex // serializes request writes
	w   *bufio.Writer

	// deadCh closes when the connection dies, releasing stream
	// consumers that would otherwise wait on a channel the readLoop will
	// never feed again.
	deadCh chan struct{}

	mu      sync.Mutex
	nextID  uint64
	pending map[uint64]chan rpcResult
	dead    bool
	deadErr error
}

func newMconn(conn net.Conn, clk clock) *mconn {
	mc := &mconn{
		conn:    conn,
		clk:     clk,
		w:       bufio.NewWriter(conn),
		deadCh:  make(chan struct{}),
		pending: make(map[uint64]chan rpcResult),
	}
	go mc.readLoop()
	return mc
}

// call performs one RPC: register a pending id, write the request under
// it, then read the demuxed answer. A reply lands in rep. A fetch passes
// onFrame, and its frames are delivered to it in arrival order until it
// returns done=true on the terminal frame; the timeout is then a
// per-frame progress bound, not a whole-stream bound. A frame for a call
// without onFrame is a protocol violation that kills the connection.
//
// A non-nil onFrame error aborts consumption without poisoning the
// connection: the demux keeps draining (and dropping) the remaining
// frames for this id, so other RPCs multiplexed on the connection are
// unaffected.
func (mc *mconn) call(req *request, rep *reply, timeout time.Duration, onFrame frameFunc) error {
	// Only a stream watches deadCh: its channel can be full when the
	// connection dies, so fail's error may not fit. A plain call's one
	// slot always has room for it, and leaving the shared channel out of
	// its select keeps concurrent callers off one channel lock.
	depth := 1
	var dead <-chan struct{}
	if onFrame != nil {
		depth, dead = streamChanDepth, mc.deadCh
	}
	ch := make(chan rpcResult, depth)
	mc.mu.Lock()
	if mc.dead {
		// The connection died after the pool handed it out, before a
		// byte of this request was written: the node never saw it.
		err := mc.deadErr
		mc.mu.Unlock()
		return fmt.Errorf("%w: %w", errNotSent, err)
	}
	mc.nextID++
	id := mc.nextID
	mc.pending[id] = ch
	mc.mu.Unlock()

	mc.wmu.Lock()
	mc.conn.SetWriteDeadline(mc.clk.now().Add(timeout))
	err := writeRequest(mc.w, id, req)
	mc.wmu.Unlock()
	if err != nil {
		mc.unregister(id)
		// A pre-write size refusal leaves the stream clean; only a real
		// write error poisons the connection.
		if !errors.Is(err, ErrTooLarge) {
			mc.fail(err)
		}
		return err
	}

	timer := mc.clk.newTimer(timeout)
	defer timer.Stop()
	for {
		var res rpcResult
		select {
		case res = <-ch:
		default:
			// Nothing buffered: wait, but notice connection death — the
			// buffered-first read above guarantees results that raced in
			// before the failure (possibly including the terminal frame)
			// are processed before the death is reported.
			select {
			case res = <-ch:
			case <-dead:
				return mc.terminalErr()
			case <-timer.C():
				mc.unregister(id)
				mc.fail(errRPCTimeout)
				return fmt.Errorf("%w after %v", errRPCTimeout, timeout)
			}
		}
		switch {
		case res.err != nil:
			return res.err
		case res.rep != nil:
			*rep = *res.rep
			return nil
		case onFrame == nil:
			// The connection is no longer trustworthy.
			res.frame.release()
			mc.fail(errUnexpectedFrame)
			return errUnexpectedFrame
		}
		done, ferr := onFrame(res.frame.typ, res.frame.payload)
		res.frame.release()
		if ferr != nil {
			// Keep draining the stream's remaining frames in the
			// background: the demux may already be blocked sending to this
			// channel, and only the terminal message (or the connection
			// dying) ends the server's stream. The connection stays usable
			// for other RPCs throughout.
			go mc.drainStream(ch)
			return ferr
		}
		if done {
			// The demux already unregistered the id on the terminal frame.
			return nil
		}
		timer.Reset(timeout)
	}
}

// drainStream consumes and discards an aborted stream's remaining
// messages until its terminal message or connection death, keeping the
// shared readLoop from blocking on the abandoned channel.
func (mc *mconn) drainStream(ch chan rpcResult) {
	for {
		select {
		case res := <-ch:
			final := res.err != nil || res.rep != nil || res.frame.typ == frameTypeEnd
			res.frame.release()
			if final {
				return
			}
		case <-mc.deadCh:
			return
		}
	}
}

// terminalErr reports the connection's death error.
func (mc *mconn) terminalErr() error {
	mc.mu.Lock()
	defer mc.mu.Unlock()
	if mc.deadErr != nil {
		return mc.deadErr
	}
	return errors.New("cluster: connection closed")
}

func (mc *mconn) unregister(id uint64) {
	mc.mu.Lock()
	delete(mc.pending, id)
	mc.mu.Unlock()
}

// readLoop demuxes frames by their header's id until the connection
// dies: a message frame is decoded into a reply, a result frame is
// passed on as it is. Frames for ids no longer pending (a caller timed
// out or aborted meanwhile) are dropped.
func (mc *mconn) readLoop() {
	r := bufio.NewReader(mc.conn)
	for {
		fm, err := readReply(r)
		if err != nil {
			mc.fail(err)
			return
		}
		if fm.typ != frameTypeMsg {
			mc.route(fm.id, rpcResult{frame: fm}, fm.typ == frameTypeEnd)
			continue
		}
		rep := new(reply)
		if err := decodeMsg(fm, rep); err != nil {
			mc.fail(err)
			return
		}
		mc.route(fm.id, rpcResult{rep: rep}, true)
	}
}

// route delivers one demuxed result to its pending call, unregistering
// the id when the result is final (a reply or a terminal frame).
// Unclaimed results are dropped. The send blocks when a streamed call's
// buffer is full — deliberately: a stalled consumer must stall socket
// reads so TCP backpressure reaches the server and neither side buffers
// an unbounded result. Connection death unblocks the send.
func (mc *mconn) route(id uint64, res rpcResult, final bool) {
	mc.mu.Lock()
	ch, ok := mc.pending[id]
	if ok && final {
		delete(mc.pending, id)
	}
	mc.mu.Unlock()
	if !ok {
		res.frame.release()
		return
	}
	select {
	case ch <- res:
	case <-mc.deadCh:
		res.frame.release()
	}
}

// fail marks the connection dead, closes it (unblocking the readLoop),
// and delivers the terminal error to every in-flight caller.
// Idempotent; the first error wins. deadCh closes before the error
// sends so a streamed consumer blocked elsewhere is released even
// though its channel may be full; the sends are non-blocking for the
// same reason (a full channel's consumer will see deadCh instead).
func (mc *mconn) fail(err error) {
	mc.mu.Lock()
	if mc.dead {
		mc.mu.Unlock()
		return
	}
	mc.dead = true
	mc.deadErr = err
	waiters := mc.pending
	mc.pending = nil
	mc.mu.Unlock()
	close(mc.deadCh)
	mc.conn.Close()
	for _, ch := range waiters {
		select {
		case ch <- rpcResult{err: err}:
		default:
		}
	}
}

func (mc *mconn) isDead() bool {
	mc.mu.Lock()
	defer mc.mu.Unlock()
	return mc.dead
}

// pool is a fixed-size set of multiplexed connections to one node, used
// round-robin. Slots dial lazily; dead slots re-dial on next use, and
// every dial opens with the client's hello.
type pool struct {
	addr  string
	hello *hello
	wc    *wireCounter // the client's byte tally
	clk   clock        // the client's
	nw    network      // the client's

	mu     sync.Mutex
	slots  []*mconn
	next   int
	closed bool
}

func newPool(addr string, h *hello, size int, wc *wireCounter, clk clock, nw network) *pool {
	return &pool{addr: addr, hello: h, wc: wc, clk: clk, nw: nw, slots: make([]*mconn, size)}
}

// get returns a live connection from the next slot, dialing (and saying
// hello) if the slot is empty or its connection has died. The dial
// happens outside the pool lock so a slow node never serializes the
// other slots; if a concurrent caller repopulated the slot first, the
// loser's dial is discarded.
func (p *pool) get(timeout time.Duration) (*mconn, error) {
	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		return nil, errPoolClosed
	}
	i := p.next % len(p.slots)
	p.next++
	if mc := p.slots[i]; mc != nil && !mc.isDead() {
		p.mu.Unlock()
		return mc, nil
	}
	p.mu.Unlock()

	conn, err := p.nw.dial(p.addr, timeout)
	if err != nil {
		return nil, err
	}
	nc := newMconn(&countedConn{Conn: conn, wc: p.wc}, p.clk)
	var rep reply
	if err = nc.call(&request{Op: "hello", Hello: p.hello}, &rep, timeout, nil); err == nil {
		nc.peer, err = helloOf(&rep)
	}
	if err != nil {
		nc.fail(err)
		return nil, err
	}
	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		nc.fail(errPoolClosed)
		return nil, errPoolClosed
	}
	if cur := p.slots[i]; cur != nil && !cur.isDead() {
		p.mu.Unlock()
		nc.fail(errPoolClosed) // lost the dial race; use the winner
		return cur, nil
	}
	p.slots[i] = nc
	p.mu.Unlock()
	return nc, nil
}

// closeAll shuts every connection and refuses further use.
func (p *pool) closeAll() {
	p.mu.Lock()
	p.closed = true
	slots := p.slots
	p.slots = make([]*mconn, len(slots))
	p.mu.Unlock()
	for _, mc := range slots {
		if mc != nil {
			mc.fail(errPoolClosed)
		}
	}
}

// nodeTransport is one node's pooled transport, split into two lanes:
// "control" carries negotiate/stats (short, Timeout-bounded RPCs) and
// "data" carries execute/fetch (long, execTimeout-bounded RPCs). The
// split keeps a short RPC's timeout from evicting a connection with a
// long execution in flight, and keeps the per-op connection accounting
// that the resilience tests pin (one control dial + one data dial per
// healthy negotiate→execute exchange).
//
// rel is shared by both lanes: the node's session is the run, not the
// connection, so a release rides the next negotiate, execute or fetch
// to the node's incarnation on whichever connection it takes.
//
// holds counts the queries that sent on the transport and have not
// ended, under the client's viewMu: a retired transport closes when the
// last of them ends (Client.dropTransport).
type nodeTransport struct {
	control *pool
	data    *pool
	rel     *releases
	holds   int
}

func newNodeTransport(addr string, h *hello, size int, wc *wireCounter, clk clock, nw network) *nodeTransport {
	return &nodeTransport{control: newPool(addr, h, size, wc, clk, nw), data: newPool(addr, h, size, wc, clk, nw), rel: &releases{}}
}

// releases queues the sequence numbers of one node's fetch outcomes
// that the client holds whole, until a request to the node carries
// them. A restarted node numbers its outcomes afresh, so the queue holds
// the numbers of one incarnation, named by its boot, and another boot
// drops them. A release that is lost — its request failed, or the node
// restarted — costs nothing but memory: the node keeps the result until
// its TTL, as if no release existed.
type releases struct {
	mu   sync.Mutex
	boot uint64
	seqs []uint64
}

// add queues numbers that incarnation boot issued.
func (r *releases) add(boot uint64, seqs ...uint64) {
	r.mu.Lock()
	if boot != r.boot {
		r.boot, r.seqs = boot, nil
	}
	r.seqs = append(r.seqs, seqs...)
	r.mu.Unlock()
}

// take empties the queue and returns what it held for a request to
// incarnation boot (nil when empty, or held for another).
func (r *releases) take(boot uint64) []uint64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	seqs := r.seqs
	r.seqs = nil
	if boot != r.boot {
		return nil
	}
	return seqs
}

// lane picks the pool for an op.
func (nt *nodeTransport) lane(op string) *pool {
	if op == "execute" || op == "fetch" {
		return nt.data
	}
	return nt.control
}

func (nt *nodeTransport) close() {
	nt.control.closeAll()
	nt.data.closeAll()
}
