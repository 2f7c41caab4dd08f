package cluster

import (
	"bufio"
	"encoding/json"
	"errors"
	"fmt"
	"hash/fnv"
	"math/rand"
	"net"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"github.com/qamarket/qamarket/internal/catalog"
	"github.com/qamarket/qamarket/internal/driver"
	"github.com/qamarket/qamarket/internal/market"
	"github.com/qamarket/qamarket/internal/membership"
	"github.com/qamarket/qamarket/internal/metrics"
	"github.com/qamarket/qamarket/internal/trace"
)

// NodeConfig parameterizes one federation server.
type NodeConfig struct {
	// Driver is the node's data and its executor. Every query the node
	// plans or runs goes through it: Prepare supplies the cost hints
	// the QA-NT estimator prices, Execute produces the columnar block
	// the frame lane ships. A node over a sqldb database takes
	// engine.FromDB(db), the vectorized engine holding a copy of it.
	Driver driver.Driver
	// Slowdown models node heterogeneity: the node's execution time is
	// Slowdown times the baseline (the paper's slowest PC was ~14x the
	// fastest on the same star queries). Must be >= 1.
	Slowdown float64
	// IOSlowdown and CPUSlowdown, when positive, replace Slowdown with
	// independent factors for the plan's scan (I/O) and non-scan (CPU)
	// cost components. Machines rarely scale uniformly — a node may have
	// fast disks but a slow processor — and this is what gives query
	// classes different *relative* costs across nodes, the comparative
	// advantage the query market exploits.
	IOSlowdown, CPUSlowdown float64
	// MsPerCostUnit converts planner cost units into baseline execution
	// milliseconds. It scales the whole experiment's time axis; tests
	// use small values so runs take seconds, not minutes. Zero or less
	// means 1, not "no stretch": the same factor turns a plan's cost into
	// the estimate the seller prices, and the seller cannot evaluate a
	// class that costs nothing, so at 0 a QA-NT node would refuse every
	// query and, never executing one, never learn a history to price by.
	MsPerCostUnit float64
	// PeriodMs is the market period T for the node's QA-NT agent.
	PeriodMs int64
	// LinkLatency is added to every reply, modeling the paper's one
	// wireless node. Zero for wired nodes.
	LinkLatency time.Duration
	// ExecNoise makes execution times vary by ±ExecNoise (fraction)
	// around the plan-derived target, modeling the buffer-cache effects
	// that made the paper's EXPLAIN estimates "usually incorrect"
	// (Section 5.2). Zero disables it.
	ExecNoise float64
	// shareQueueState makes negotiate replies include the node's
	// current backlog. A real autonomous DBMS does not expose its queue
	// to clients — the paper's implementation estimated execution time
	// only (EXPLAIN + history) — so only the information-structure
	// ablation (BenchmarkAblationInformation) and in-package tests set it.
	shareQueueState bool
	// ExplainFraction delays every negotiate reply by this fraction of
	// the query's estimated execution time on this node, reproducing
	// the paper's observation that "the slowest of the PCs took up to 3
	// seconds to evaluate an EXPLAIN PLAN statement". Zero disables it.
	ExplainFraction float64
	// NoiseSeed seeds the node's private noise stream.
	NoiseSeed int64
	// DrainTimeout bounds the graceful drain on Close: the node keeps
	// answering connections but refuses new work with a typed
	// "draining" reply, and gives in-flight queries this long to finish
	// before hard-stopping. Default 5s.
	DrainTimeout time.Duration
	// MaxInflight bounds how many work requests (negotiate/execute/
	// fetch) the node handles concurrently across all connections;
	// excess requests are refused with a typed "overload" reply instead
	// of blocking. Replaces the old hardcoded per-connection semaphore.
	// Default 256.
	MaxInflight int
	// MaxQueue bounds the executor's FIFO backlog (jobs accepted but
	// not yet running); an execute/fetch that finds the queue full is
	// refused with a typed "overload" reply. Default 256.
	MaxQueue int
	// DedupWindow is how long the node remembers execute/fetch outcomes
	// for at-most-once retransmits (keyed by the client's run id).
	// Default 60s.
	DedupWindow time.Duration
	// fetchBatchRows bounds one binary fetch-stream batch: a fetch result
	// is shipped in frames of at most this many rows, so neither side
	// ever buffers more than one batch of a huge result. Default 4096;
	// only tests lower it.
	fetchBatchRows int
	// NodeID is the node's stable identity in the membership registry,
	// constant across address changes. Empty generates a random one.
	NodeID string
	// Seeds lists addresses of existing federation members to announce
	// this node to on startup (qanode -join). Empty starts a new
	// federation of one.
	Seeds []string
	// GossipPeriodMs is the anti-entropy gossip round length (default
	// 250ms). Each round the node ticks its failure detector and
	// push-pulls its member table with a few random live peers, chosen
	// by an RNG seeded from NodeID, so a fixed topology gossips
	// deterministically (internal/membership holds the round counts).
	GossipPeriodMs int64
	// Market configures the QA-NT agent (Classes is managed dynamically
	// and may be left zero).
	Market market.Config
	// Logf, when set, receives diagnostic messages.
	Logf func(format string, args ...any)

	// clock and network (test hooks) are where the node reads time and
	// where it listens and dials; validate fills in the wall clock and
	// TCP.
	clock   clock
	network network
}

func (c *NodeConfig) validate() error {
	if c.Driver == nil {
		return errors.New("cluster: NodeConfig.Driver is nil")
	}
	if c.Slowdown < 1 {
		c.Slowdown = 1
	}
	if c.IOSlowdown <= 0 {
		c.IOSlowdown = c.Slowdown
	}
	if c.CPUSlowdown <= 0 {
		c.CPUSlowdown = c.Slowdown
	}
	if c.MsPerCostUnit <= 0 {
		c.MsPerCostUnit = 1
	}
	if c.PeriodMs <= 0 {
		c.PeriodMs = 500
	}
	if c.Market.Lambda == 0 {
		c.Market = market.DefaultConfig(1)
	}
	if c.DrainTimeout <= 0 {
		c.DrainTimeout = 5 * time.Second
	}
	if c.MaxInflight <= 0 {
		c.MaxInflight = 256
	}
	if c.MaxQueue <= 0 {
		c.MaxQueue = 256
	}
	if c.DedupWindow <= 0 {
		c.DedupWindow = 60 * time.Second
	}
	if c.fetchBatchRows <= 0 {
		c.fetchBatchRows = 4096
	}
	if c.GossipPeriodMs <= 0 {
		c.GossipPeriodMs = 250
	}
	if c.Logf == nil {
		c.Logf = func(string, ...any) {}
	}
	return pairNetwork(&c.network, &c.clock)
}

// Node is one running federation server.
type Node struct {
	cfg    NodeConfig
	ln     net.Listener
	pricer *pricer
	health *metrics.Health
	reg    *membership.Registry
	epoch  atomic.Uint64 // pricer periods elapsed (the market's age)
	boot   uint64        // this incarnation's nonce, named in every hello answer

	// tracer retains recent query-lifecycle spans in a ring buffer;
	// qactl -trace collects them via the "spans" op. Spans record only
	// for requests carrying a trace context, so untraced traffic pays
	// nothing beyond a nil check.
	tracer *trace.Recorder
	// opHist tracks server-side handling latency per op for the
	// /metrics exposition endpoint.
	histMu sync.Mutex
	opHist map[string]*metrics.Histogram

	mu        sync.Mutex
	backlogMs float64
	executed  int
	history   map[string]float64 // plan signature -> EMA of observed ms
	noise     *rand.Rand         // guarded by mu; nil when ExecNoise is 0

	connMu sync.Mutex
	conns  map[net.Conn]struct{} // live client connections, severed on hard stop
	// severed is set by closeConns: a connection accepted just before the
	// stop and tracked after it would otherwise never be closed, and its
	// serveConn would hold shutdown's wg.Wait until the client hung up.
	severed bool

	draining       atomic.Bool   // drain started: refuse new work, finish in-flight
	inflight       atomic.Int64  // requests being handled (drain waits on this)
	idle           chan struct{} // during a drain, signalled when inflight reaches 0
	working        atomic.Int64  // work ops admitted (bounded by MaxInflight)
	lastCheckpoint atomic.Int64  // unix ms of the last market-state checkpoint; 0 = never

	// dedup is the at-most-once window for execute/fetch retransmits.
	dedup *dedupWindow

	// frameSever (test hook) severs the stream's connection after that
	// many batch frames, for partial-stream resume tests. Zero in
	// production.
	frameSever atomic.Int32

	execCh   chan *execJob
	stopCh   chan struct{}
	stopOnce sync.Once
	wg       sync.WaitGroup
}

type execJob struct {
	stmt     driver.Statement // prepared at admission, priced by its hints
	reply    chan executeReply
	estMs    float64
	withRows bool      // fetch: ship result rows back
	result   *ColBlock // filled when withRows and no error
	trace    *traceCtx // non-nil when the query is being traced
	queued   time.Time // when the job entered the executor queue
	deadline time.Time // zero = no deadline; expired jobs are dropped at dequeue
}

// historyAlpha is the EMA weight of the newest observation in the
// past-execution estimator.
const historyAlpha = 0.4

// StartNode listens on addr (use "127.0.0.1:0" for an ephemeral port)
// and serves until Close.
func StartNode(addr string, cfg NodeConfig) (*Node, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	pricer, err := newPricer(cfg.Market, float64(cfg.PeriodMs))
	if err != nil {
		return nil, fmt.Errorf("cluster: %w", err)
	}
	ln, err := cfg.network.listen(addr)
	if err != nil {
		return nil, fmt.Errorf("cluster: listen %s: %w", addr, err)
	}
	if cfg.NodeID == "" {
		cfg.NodeID = fallbackNodeID(ln.Addr().String())
	}
	n := &Node{
		cfg:     cfg,
		ln:      ln,
		pricer:  pricer,
		boot:    rand.Uint64() | 1, // odd: 0 names no incarnation
		health:  metrics.NewHealth(),
		tracer:  trace.NewRecorder(cfg.NodeID, trace.DefaultCapacity, cfg.clock.now),
		opHist:  make(map[string]*metrics.Histogram),
		history: make(map[string]float64),
		conns:   make(map[net.Conn]struct{}),
		dedup:   newDedupWindow(cfg.DedupWindow, cfg.clock),
		idle:    make(chan struct{}, 1),
		execCh:  make(chan *execJob, cfg.MaxQueue),
		stopCh:  make(chan struct{}),
	}
	if cfg.ExecNoise > 0 {
		n.noise = rand.New(rand.NewSource(cfg.NoiseSeed))
	}
	n.reg, err = membership.New(membership.Config{
		Self: membership.Member{
			ID:            cfg.NodeID,
			Addr:          ln.Addr().String(),
			CatalogDigest: catalogDigest(cfg.Driver),
			CatalogFilter: catalogFilter(cfg.Driver),
		},
	})
	if err != nil {
		ln.Close()
		return nil, err
	}
	// The loops' tickers are armed before StartNode returns, so a test
	// clock advanced right after it fires them.
	n.wg.Add(4)
	go n.acceptLoop()
	go n.execLoop()
	go n.periodLoop(cfg.clock.newTicker(time.Duration(cfg.PeriodMs) * time.Millisecond))
	go n.gossipLoop(cfg.clock.newTicker(time.Duration(cfg.GossipPeriodMs) * time.Millisecond))
	return n, nil
}

// nodeIDSeq disambiguates fallback NodeIDs minted in one process (tests
// start many nodes on 127.0.0.1 ephemeral ports).
var nodeIDSeq atomic.Uint64

// fallbackNodeID derives a NodeID for configs that left it empty. It
// used to be rand.Uint32() from the unseeded global source, which made
// node identities — and everything keyed off them, like the per-node
// membership RNG seed — differ run to run. Hashing the listen address
// plus a process-local counter is deterministic for a fixed topology
// and still unique within a process.
func fallbackNodeID(addr string) string {
	h := fnv.New32a()
	h.Write([]byte(addr))
	return fmt.Sprintf("n-%08x-%d", h.Sum32(), nodeIDSeq.Add(1))
}

// catalogDigest hashes the sorted relation names a node hosts into the
// compact placement advertisement gossiped with its member row.
func catalogDigest(d driver.Driver) string {
	var names []string
	names = append(names, d.Tables()...)
	names = append(names, d.Views()...)
	sort.Strings(names)
	h := fnv.New64a()
	for _, name := range names {
		h.Write([]byte(name))
		h.Write([]byte{0})
	}
	return fmt.Sprintf("%d:%08x", len(names), h.Sum64())
}

// catalogFilter builds the relation-name Bloom filter advertised with
// the member row, the per-class feasibility detail behind the digest.
func catalogFilter(d driver.Driver) string {
	names := append(d.Tables(), d.Views()...)
	return catalog.NewRelationFilter(names).Encode()
}

// Addr returns the node's listen address.
func (n *Node) Addr() string { return n.ln.Addr().String() }

// ID returns the node's stable membership identity.
func (n *Node) ID() string { return n.cfg.NodeID }

// Members snapshots the node's membership table (tombstones included).
func (n *Node) Members() []membership.Member { return n.reg.Members() }

// gossipLoop drives the anti-entropy rounds: announce to the join
// seeds, then every tick of t the failure detector and push-pull the
// member table with a few random live peers.
func (n *Node) gossipLoop(t ticker) {
	defer n.wg.Done()
	for _, seed := range n.cfg.Seeds {
		if seed != "" && seed != n.Addr() {
			go n.gossipWith(seed)
		}
	}
	defer t.Stop()
	for {
		select {
		case <-t.C():
			sum := n.reg.Tick()
			n.health.Inc(metrics.GossipRoundsTotal)
			if sum.Evicted > 0 {
				n.health.Add(metrics.MembershipEvictionsTotal, int64(sum.Evicted))
			}
			n.health.SetGauge(metrics.MembersLive, float64(len(n.reg.Live())))
			for _, m := range n.reg.Targets() {
				go n.gossipWith(m.Addr)
			}
		case <-n.stopCh:
			return
		}
	}
}

// gossipWith runs one push-pull exchange: send our table, merge the
// peer's. Exchanges ride fresh connections — gossip is rare and tiny,
// and must not compete with query traffic for pooled lanes.
func (n *Node) gossipWith(addr string) {
	req := &request{Op: "gossip", Gossip: &gossipPayload{Members: toWireMembers(n.reg.Members())}}
	timeout := 2 * time.Duration(n.cfg.GossipPeriodMs) * time.Millisecond
	if timeout < 200*time.Millisecond {
		timeout = 200 * time.Millisecond
	}
	var rep reply
	if err := n.freshRPC(addr, &hello{RunID: n.cfg.NodeID}, req, &rep, timeout); err != nil {
		n.health.Inc(metrics.GossipFailuresTotal)
		return
	}
	if rep.Gossip != nil {
		n.reg.Merge(fromWireMembers(rep.Gossip.Members))
	}
}

// broadcastLeave tombstones the local member and pushes the goodbye to
// every live peer, so departing supply is pruned from the market ahead
// of the failure detector. Best effort with a short timeout: a peer
// that misses it still converges through regular gossip.
func (n *Node) broadcastLeave() {
	n.reg.Leave()
	peers := n.reg.Live()
	h := &hello{RunID: n.cfg.NodeID}
	req := &request{Op: "gossip", Gossip: &gossipPayload{Members: toWireMembers(n.reg.Members())}}
	var wg sync.WaitGroup
	for _, m := range peers {
		if m.ID == n.cfg.NodeID {
			continue
		}
		wg.Add(1)
		go func(addr string) {
			defer wg.Done()
			var rep reply
			_ = n.freshRPC(addr, h, req, &rep, 250*time.Millisecond)
		}(m.Addr)
	}
	wg.Wait()
}

// freshRPC is one gossip exchange: dial, send the node's hello and the
// request in one flush, read both answers, hang up. It costs no round
// trip more than the request alone, and its traffic is no client's wire
// cost. Its deadline is on the node's clock, the one its network pairs
// with.
func (n *Node) freshRPC(addr string, h *hello, req *request, rep *reply, timeout time.Duration) error {
	conn, err := n.cfg.network.dial(addr, timeout)
	if err != nil {
		return err
	}
	defer conn.Close()
	if err := conn.SetDeadline(n.cfg.clock.now().Add(timeout)); err != nil {
		return err
	}
	if err := writeMsg(bufio.NewWriter(conn), 1, maxRequestBytes, &request{Op: "hello", Hello: h}, req); err != nil {
		return err
	}
	r := bufio.NewReader(conn)
	for i, v := range []*reply{{}, rep} {
		fm, err := readReply(r)
		if err == nil {
			err = decodeMsg(fm, v)
		}
		if err == nil && i == 0 {
			_, err = helloOf(v)
		}
		if err != nil {
			return err
		}
	}
	return nil
}

// Close stops the node gracefully: new work is refused with a typed
// draining reply (clients keep connecting, so their breakers learn the
// node is going away instead of guessing from dial failures), in-flight
// queries get up to DrainTimeout to finish, then the node hard-stops.
// It is safe to call more than once.
func (n *Node) Close() error { return n.shutdown(n.cfg.DrainTimeout) }

// CloseNow stops the node without draining: in-flight queries get a
// "node shutting down" reply. Tests use it to simulate a crash.
func (n *Node) CloseNow() error { return n.shutdown(0) }

func (n *Node) shutdown(drainFor time.Duration) error {
	var err error
	n.stopOnce.Do(func() {
		n.draining.Store(true)
		n.health.Inc(metrics.DrainsTotal)
		if drainFor > 0 {
			// Graceful leave: tombstone ourselves and tell the peers,
			// so the membership layer prunes our supply immediately
			// instead of waiting out suspicion. A hard stop (drainFor
			// zero, the crash path) stays silent on purpose.
			n.broadcastLeave()
		}
		// The listener stays open through the drain so clients receive
		// the typed refusal rather than dial errors; only work stops.
		if drainFor > 0 && !n.waitIdle(drainFor) {
			n.health.Inc(metrics.DrainTimeoutsTotal)
			n.cfg.Logf("cluster: drain deadline hit with %d queries in flight", n.inflight.Load())
		}
		err = n.ln.Close()
		close(n.stopCh)
		n.closeConns()
		n.wg.Wait()
	})
	return err
}

// waitIdle waits until no query is in flight or the budget runs out on
// the node's clock. It wakes when the last in-flight request finishes
// (doneInflight), not on a poll.
func (n *Node) waitIdle(budget time.Duration) bool {
	t := n.cfg.clock.newTimer(budget)
	defer t.Stop()
	for n.inflight.Load() != 0 {
		select {
		case <-n.idle:
		case <-t.C():
			return n.inflight.Load() == 0
		}
	}
	return true
}

// doneInflight ends one in-flight request. The last one to end during a
// drain wakes waitIdle; the channel's one slot keeps the signal for a
// drain that has not reached its wait yet.
func (n *Node) doneInflight() {
	if n.inflight.Add(-1) == 0 && n.draining.Load() {
		select {
		case n.idle <- struct{}{}:
		default:
		}
	}
}

// trackConn registers a live connection, or reports false once
// closeConns has run.
func (n *Node) trackConn(c net.Conn) bool {
	n.connMu.Lock()
	defer n.connMu.Unlock()
	if n.severed {
		return false
	}
	n.conns[c] = struct{}{}
	return true
}

func (n *Node) untrackConn(c net.Conn) {
	n.connMu.Lock()
	delete(n.conns, c)
	n.connMu.Unlock()
}

// closeConns severs every live client connection so serveConn readers
// unblock during hard stop even against clients that never hang up.
func (n *Node) closeConns() {
	n.connMu.Lock()
	n.severed = true
	for c := range n.conns {
		c.Close()
	}
	n.connMu.Unlock()
}

// Executed returns how many queries the node has run.
func (n *Node) Executed() int {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.executed
}

// MarketState serializes the node's market position (private classes,
// prices, capacity carry) plus its execution-history estimator, for
// checkpointing across restarts.
func (n *Node) MarketState() ([]byte, error) {
	n.mu.Lock()
	history := make(map[string]float64, len(n.history))
	for k, v := range n.history {
		history[k] = v
	}
	n.mu.Unlock()
	self := n.reg.Self()
	return json.Marshal(struct {
		Pricer     PricerState        `json:"pricer"`
		History    map[string]float64 `json:"history"`
		Membership membershipState    `json:"membership"`
	}{n.pricer.snapshot(), history, membershipState{
		Incarnation: self.Incarnation,
		Epoch:       self.Epoch,
	}})
}

// membershipState is the membership slice of a market-state
// checkpoint: enough for a rejoining node to re-announce itself at its
// persisted incarnation (peers' stale tombstones are then refuted by
// the registry's incarnation bump) and to keep advertising its true
// market age.
type membershipState struct {
	Incarnation uint64 `json:"incarnation"`
	Epoch       uint64 `json:"epoch"`
}

// RestoreMarketState installs a checkpoint produced by MarketState.
func (n *Node) RestoreMarketState(data []byte) error {
	var st struct {
		Pricer     PricerState        `json:"pricer"`
		History    map[string]float64 `json:"history"`
		Membership membershipState    `json:"membership"`
	}
	if err := json.Unmarshal(data, &st); err != nil {
		return fmt.Errorf("cluster: parsing market state: %w", err)
	}
	if err := n.pricer.restore(st.Pricer); err != nil {
		return err
	}
	n.mu.Lock()
	n.history = make(map[string]float64, len(st.History))
	for k, v := range st.History {
		n.history[k] = v
	}
	n.mu.Unlock()
	// Membership is restored exactly as persisted (pre-membership
	// checkpoints carry zeros, which are ignored): the incarnation is
	// NOT bumped here, so a freshly restored node's market state stays
	// byte-identical to its checkpoint. Stale left/dead tombstones at
	// the persisted incarnation are refuted organically by the
	// registry the first time a peer gossips them back.
	n.reg.SetIncarnation(st.Membership.Incarnation)
	if st.Membership.Epoch > 0 {
		n.epoch.Store(st.Membership.Epoch)
		n.reg.SetEpoch(st.Membership.Epoch)
	}
	return nil
}

func (n *Node) acceptLoop() {
	defer n.wg.Done()
	for {
		conn, err := n.ln.Accept()
		if err != nil {
			if n.draining.Load() {
				return // drain closed the listener
			}
			select {
			case <-n.stopCh:
				return
			default:
				n.cfg.Logf("cluster: accept: %v", err)
				return
			}
		}
		n.wg.Add(1)
		go func() {
			defer n.wg.Done()
			n.serveConn(conn)
		}()
	}
}

// serveConn handles one connection, reading requests no larger than
// maxRequestBytes: work ops as request frames, every other op as a
// message frame. The first frame must be a hello: it is answered before
// the next frame is read and becomes the connection's session, and any
// other first frame is refused and the connection closed, as is a work
// op in a message frame. Other requests run on the connection's
// handler goroutines with the session as it stood, so a client can keep
// many RPCs in flight on one connection; replies carry the request's
// frame id, share the connection's writer under a mutex and complete in
// finish order. Work-op concurrency is bounded node-wide by the
// MaxInflight admission gate in handle (excess answered with a typed
// overload refusal), not by per-connection backpressure: a refused
// market participant should learn the node is saturated, not wait blind
// on a stalled TCP window.
//
// Handlers stay warm: one that has answered its request waits for the
// connection's next, and a request that finds none waiting starts
// another. So a connection runs about as many handlers as it ever had
// requests in flight at once, and a sequential client's requests run
// on goroutines whose stacks have already grown to what planning a
// query needs. They all exit when the reader does.
func (n *Node) serveConn(conn net.Conn) {
	if !n.trackConn(conn) {
		conn.Close()
		return
	}
	defer n.untrackConn(conn)
	var handlers sync.WaitGroup
	defer conn.Close()
	defer handlers.Wait() // let in-flight replies hit the wire before Close
	r := bufio.NewReader(conn)
	w := bufio.NewWriter(conn)
	var wmu sync.Mutex // serializes replies across handler goroutines
	send := func(id uint64, rep *reply) error {
		wmu.Lock()
		defer wmu.Unlock()
		return writeMsg(w, id, maxFramePayload, rep)
	}
	serve := func(job connJob) {
		rep := n.handle(&job.req, job.sess)
		if n.cfg.LinkLatency > 0 {
			n.cfg.clock.sleep(n.cfg.LinkLatency)
		}
		var err error
		if rep.stream != nil {
			// Accepted fetch: the result streams as binary frames,
			// taking wmu per frame so other replies interleave.
			err = n.streamFetch(conn, w, &wmu, job.id, rep.stream)
		} else {
			err = send(job.id, rep)
		}
		if len(job.req.Release) > 0 {
			// Off the reply's latency path: the results named here
			// are already whole on the client.
			n.dedup.release(n.dedup.run(job.sess.RunID), job.req.Release)
		}
		n.doneInflight()
		if err != nil {
			// The write path is broken; close the conn so the reader
			// unblocks and the remaining handlers drain.
			conn.Close()
		}
	}
	jobs := make(chan connJob) // unbuffered: a request lands only on a handler free to take it
	defer close(jobs)          // runs first: idle handlers exit, busy ones finish
	var sess *hello            // the connection's hello; nil only before the first frame
	for {
		var req request
		fm, err := readFrame(r, maxRequestBytes)
		if err == nil {
			if fm.typ == frameTypeReq {
				err = decodeRequest(fm.payload, &req)
				fm.release()
			} else {
				// Apart, so that only a JSON request costs the heap copy
				// decoding through an interface takes.
				var msg request
				err = decodeMsg(fm, &msg)
				req = msg
			}
		}
		if err != nil {
			// A request over the bound, or in another protocol version, is
			// answered from its header alone before the connection drops (the
			// stream position is mid-frame): the sender learns its message
			// was refused by a healthy node, which must not read as
			// unreachability.
			switch {
			case errors.Is(err, ErrTooLarge):
				send(fm.id, &reply{Err: err.Error(), Code: CodeTooLarge})
			case errors.Is(err, errFrameVersion):
				send(fm.id, &reply{Err: msgHelloRefused, Code: CodeProtocol})
			}
			return // client closed, refused frame, or protocol error; drop the conn
		}
		if sess == nil || req.Op == "hello" {
			rep := &reply{Hello: &helloReply{NodeID: n.cfg.NodeID, Boot: n.boot}}
			if h := req.Hello; req.Op != "hello" || h == nil || h.RunID == "" {
				rep = &reply{Err: msgHelloRefused, Code: CodeProtocol}
			} else if err := h.Mechanism.check(); h.Mechanism != "" && err != nil { // gossip names none
				rep = &reply{Err: "hello refused: " + err.Error(), Code: CodeProtocol}
			}
			if err := send(fm.id, rep); err != nil || rep.Hello == nil {
				return
			}
			sess = req.Hello
			continue
		}
		if fm.typ == frameTypeMsg && workOp(req.Op) != 0 {
			send(fm.id, &reply{Err: msgWorkInJSON, Code: CodeProtocol})
			return
		}
		// Count the whole request as in flight until its reply is on the
		// wire, so a drain never severs a connection mid-reply.
		n.inflight.Add(1)
		job := connJob{id: fm.id, req: req, sess: sess}
		select {
		case jobs <- job:
		default:
			handlers.Add(1)
			go func(job connJob) {
				defer handlers.Done()
				for ok := true; ok; job, ok = <-jobs {
					serve(job)
				}
			}(job)
		}
	}
}

// connJob is one request a connection's handler runs: its frame id, the
// request and the connection's session as it stood when it arrived.
type connJob struct {
	id   uint64
	req  request
	sess *hello
}

// handle runs one request through the drain gate and its op handler,
// recording server-side handling latency per op. sess is the
// connection's hello.
func (n *Node) handle(req *request, sess *hello) *reply {
	start := n.cfg.clock.now()
	defer func() { n.observeOp(req.Op, millis(n.cfg.clock.since(start))) }()
	var rep reply
	switch {
	case n.draining.Load() && req.Op != "stats" && req.Op != "gossip" && req.Op != "members" && req.Op != "spans":
		// Stats and spans stay readable during drain for observability, and the
		// membership ops keep answering so the leave tombstone (and the
		// final view behind it) can still propagate; every other op
		// gets the typed refusal the client breaker trips on.
		rep.Err = "node draining"
		rep.Code = CodeDraining
		n.health.Inc(metrics.DrainRejectsTotal)
	default:
		switch req.Op {
		case "negotiate", "execute", "fetch":
			n.handleWork(req, sess, &rep)
		case "stats":
			sr := n.nodeStats()
			rep.Stats = &sr
		case "gossip":
			rep.Gossip = n.handleGossip(req)
		case "members":
			rep.Members = n.handleMembers()
		case "spans":
			rep.Spans = n.handleSpans(req)
		default:
			rep.Err = fmt.Sprintf("unknown op %q", req.Op)
		}
	}
	return &rep
}

// handleWork runs one work op (negotiate/execute/fetch) through the
// node-wide admission gate. Past MaxInflight the request is refused
// with a typed overload reply — a market refusal, answered promptly,
// that clients must not confuse with unreachability.
func (n *Node) handleWork(req *request, sess *hello, rep *reply) {
	if n.working.Add(1) > int64(n.cfg.MaxInflight) {
		n.working.Add(-1)
		n.health.Inc(metrics.OverloadTotal)
		rep.Err = msgOverloaded
		rep.Code = CodeOverload
		return
	}
	defer n.working.Add(-1)
	switch req.Op {
	case "negotiate":
		nr, code := n.negotiate(req, sess.Mechanism)
		rep.Code = code
		if code == "" {
			rep.Negotiate = &nr
		} else {
			rep.Err = nr.Err
		}
		// A batched CFP's extra queries are solved in the same admission
		// pass: one working slot, one wire exchange, per-query proposals.
		// The loop runs even when the first query was refused — each
		// query carries its own deadline, so one expired query must not
		// starve its window-mates.
		for _, bq := range req.Batch {
			sub := request{Op: "negotiate", SQL: bq.SQL, QueryID: bq.QueryID, DeadlineMs: bq.DeadlineMs, Trace: req.Trace}
			bnr, bcode := n.negotiate(&sub, sess.Mechanism)
			bp := batchProposal{QueryID: bq.QueryID, Code: bcode}
			if bcode == "" {
				cp := bnr
				bp.Negotiate = &cp
			} else {
				bp.Err = bnr.Err
			}
			rep.Batch = append(rep.Batch, bp)
		}
	default: // execute, fetch
		er, res, seq, code := n.execute(req, sess)
		rep.Code = code
		if req.Op == "fetch" && code == "" && er.Accepted && er.Err == "" {
			// The result leaves as a frame stream, encoded by the writer;
			// refusals and errors answer in the JSON envelope below.
			rep.stream = &frameStream{res: res, execMs: er.ExecMs, batch: n.cfg.fetchBatchRows, seq: seq}
			return
		}
		rep.Execute = &er
	}
}

// handleGossip is the receiving half of a push-pull exchange: merge
// the sender's table, answer with ours.
func (n *Node) handleGossip(req *request) *gossipPayload {
	if req.Gossip != nil {
		n.reg.Merge(fromWireMembers(req.Gossip.Members))
	}
	return &gossipPayload{Members: toWireMembers(n.reg.Members())}
}

// handleMembers serves the node's merged membership view.
func (n *Node) handleMembers() *membersReply {
	return &membersReply{Members: toWireMembers(n.reg.Members())}
}

// handleSpans serves the node's retained spans for one trace (or the
// whole ring when QueryID is zero).
func (n *Node) handleSpans(req *request) *spansReply {
	var spans []trace.Span
	if req.QueryID != 0 {
		spans = n.tracer.Spans(req.QueryID)
	} else {
		spans = n.tracer.All()
	}
	return &spansReply{Origin: n.tracer.Origin(), Spans: spans}
}

// traceStart opens a server-side span under the caller's span for a
// traced request. Untraced requests get a nil *trace.Active, whose
// methods are no-ops, so normal traffic pays only this nil check.
func (n *Node) traceStart(req *request, name string) *trace.Active {
	if req.Trace == nil {
		return nil
	}
	return n.tracer.Start(req.Trace.ID, req.Trace.Span, name)
}

// observeOp records one request's server-side handling latency.
func (n *Node) observeOp(op string, ms float64) {
	n.histMu.Lock()
	h, ok := n.opHist[op]
	if !ok {
		h = metrics.NewHistogram()
		n.opHist[op] = h
	}
	n.histMu.Unlock()
	h.Observe(ms)
}

// opLatencyBuckets snapshots the per-op handling histograms for the
// exposition endpoint.
func (n *Node) opLatencyBuckets() map[string]metrics.BucketSnapshot {
	n.histMu.Lock()
	defer n.histMu.Unlock()
	out := make(map[string]metrics.BucketSnapshot, len(n.opHist))
	for op, h := range n.opHist {
		out[op] = h.Buckets()
	}
	return out
}

// Epoch returns the market's age in pricer periods.
func (n *Node) Epoch() uint64 { return n.epoch.Load() }

// MarketTelemetry snapshots the node's per-period market state —
// per-class prices, the supply picture, and the lifetime trading
// counters — stamped with the current market epoch.
func (n *Node) MarketTelemetry() MarketTelemetry {
	tel := n.pricer.telemetry()
	tel.Epoch = n.epoch.Load()
	return tel
}

// hintsTargetMs is the node's true baseline execution time for a
// prepared statement: the driver's scan-cost hint scaled by the node's
// I/O speed plus the remaining cost scaled by its CPU speed.
func (n *Node) hintsTargetMs(h driver.CostHints) float64 {
	return (h.IOCost*n.cfg.IOSlowdown + h.CPUCost*n.cfg.CPUSlowdown) * n.cfg.MsPerCostUnit
}

// estimate plans the SQL through the storage driver and produces the
// node's execution-time estimate: the paper's EXPLAIN-then-history
// scheme, with the driver's cost hints standing in for EXPLAIN. The
// statement it returns is the one an admitted execute or fetch runs, so
// the query is planned once and executed as it was priced.
func (n *Node) estimate(sql string) (st driver.Statement, estMs float64, fromHistory bool, err error) {
	st, err = n.cfg.Driver.Prepare(sql)
	if err != nil {
		return nil, 0, false, err
	}
	h := st.Hints()
	n.mu.Lock()
	ema, ok := n.history[h.Signature]
	n.mu.Unlock()
	if ok {
		return st, ema, true, nil
	}
	return st, n.hintsTargetMs(h), false, nil
}

func (n *Node) negotiate(req *request, mech Mechanism) (negotiateReply, string) {
	sp := n.traceStart(req, "solve")
	defer sp.Finish()
	st, estMs, fromHistory, err := n.estimate(req.SQL)
	if err != nil {
		// Unknown relations (or malformed SQL) mean "cannot evaluate".
		sp.Annotate("infeasible: %s", err)
		return negotiateReply{Feasible: false, Err: err.Error()}, ""
	}
	sig := st.Hints().Signature
	if code := n.shedExpired(req, estMs); code != "" {
		// The remaining budget cannot cover this node's backlog plus the
		// query itself: refuse before burning market supply on an offer.
		sp.Annotate("expired: backlog cannot meet %dms budget", req.DeadlineMs)
		return negotiateReply{Err: msgExpired}, code
	}
	if n.cfg.ExplainFraction > 0 && !fromHistory {
		// Planning a query shape for the first time takes real time on
		// a slow machine; clients waiting for every node's reply absorb
		// the slowest planner's latency. Repeats hit the plan cache.
		n.cfg.clock.sleep(time.Duration(estMs * n.cfg.ExplainFraction * float64(time.Millisecond)))
	}
	offer := true
	if mech == MechQANT {
		offer = n.pricer.offer(sig, estMs)
	}
	queue := 0.0
	if n.cfg.shareQueueState {
		n.mu.Lock()
		queue = n.backlogMs
		n.mu.Unlock()
	}
	sp.Annotate("sig=%s offer=%v est=%.2fms", sig, offer, estMs)
	return negotiateReply{
		Feasible:   true,
		Offer:      offer,
		EstimateMs: estMs,
		QueueMs:    queue,
		Signature:  sig,
		FromCache:  fromHistory,
	}, ""
}

// shedExpired decides whether a deadline-carrying request must be shed:
// the node's current backlog estimate plus the query's own estimated
// execution time exceeds the remaining budget. Requests without a
// deadline are never shed.
func (n *Node) shedExpired(req *request, estMs float64) string {
	if req.DeadlineMs <= 0 {
		return ""
	}
	n.mu.Lock()
	backlog := n.backlogMs
	n.mu.Unlock()
	if backlog+estMs <= float64(req.DeadlineMs) {
		return ""
	}
	n.health.Inc(metrics.ExpiredTotal)
	return CodeExpired
}

// jobDeadline converts the request's relative budget into the absolute
// instant the executor checks at dequeue.
func (n *Node) jobDeadline(req *request) time.Time {
	if req.DeadlineMs <= 0 {
		return time.Time{}
	}
	return n.cfg.clock.now().Add(time.Duration(req.DeadlineMs) * time.Millisecond)
}

// cacheableOutcome decides whether an execute/fetch outcome may be
// served to retransmits from the dedup window. Completed work — the
// query ran, or the engine rejected its SQL deterministically — is
// cacheable. Refusals (overload, expired, supply race, node stopping)
// are not: a retry with fresh budget must be re-admitted, not fed a
// stale refusal.
func cacheableOutcome(rep executeReply, code string) bool {
	if code != "" || rep.Err == msgNodeStopping {
		return false
	}
	return rep.Accepted || rep.Err != ""
}

// execute runs an execute or a fetch: a fetch is an execute that keeps
// its result, which the caller streams as frames under the outcome's
// sequence number seq. The outcome goes through the dedup window under
// the session's run id, result included, so a retransmit — a
// frame-stream resume among them — replays the identical rows until the
// client releases them; a duplicate after that is refused with
// CodeReleased.
func (n *Node) execute(req *request, sess *hello) (rep executeReply, res *ColBlock, seq uint64, code string) {
	fetch := req.Op == "fetch"
	key := n.dedup.key(sess.RunID, fetch, req.QueryID, req.SQL)
	if rec, seq, hit, _ := n.dedup.claim(key, n.stopCh); hit {
		n.health.Inc(metrics.DedupHitsTotal)
		if rec.released() {
			return executeReply{Err: msgReleased}, nil, 0, CodeReleased
		}
		rep, res = rec.outcome()
		return rep, res, seq, ""
	}
	defer func() {
		seq = n.dedup.settle(key, n.dedup.run(sess.RunID), rep, res, cacheableOutcome(rep, code))
	}()
	st, estMs, _, err := n.estimate(req.SQL)
	if err != nil {
		return executeReply{Err: err.Error()}, nil, 0, ""
	}
	job, rep, code := n.admit(req, sess.Mechanism, st, estMs, fetch)
	if job == nil {
		return rep, nil, 0, code
	}
	select {
	case rep = <-job.reply:
	case <-n.stopCh:
		return executeReply{Err: msgNodeStopping}, nil, 0, ""
	}
	if job.result != nil {
		if err := checkFetchHeader(job.result.Columns); err != nil {
			return executeReply{Err: err.Error()}, nil, 0, ""
		}
	}
	return rep, job.result, 0, expiredCode(rep)
}

// expiredCode maps the executor's queued-too-long drop onto the typed
// expired envelope code.
func expiredCode(rep executeReply) string {
	if rep.Err == msgExpired {
		return CodeExpired
	}
	return ""
}

// admit runs the shared execute/fetch admission path: deadline shed,
// bounded-queue overload check, market accept, enqueue. On refusal the
// returned job is nil and rep/code carry the typed reply. The queue-
// full check runs before pricer.accept so a shed query does not burn
// QA-NT supply; the later non-blocking enqueue can still lose a rare
// race, which costs one accepted unit of supply — bounded, and far
// cheaper than blocking every admitted request behind a full queue.
func (n *Node) admit(req *request, mech Mechanism, st driver.Statement, estMs float64, withRows bool) (*execJob, executeReply, string) {
	if code := n.shedExpired(req, estMs); code != "" {
		return nil, executeReply{Err: msgExpired}, code
	}
	if len(n.execCh) >= cap(n.execCh) {
		n.health.Inc(metrics.OverloadTotal)
		return nil, executeReply{Err: msgOverloaded}, CodeOverload
	}
	if mech == MechQANT && !n.pricer.accept(st.Hints().Signature) {
		// Supply sold out since the offer (another client won the race).
		return nil, executeReply{Accepted: false}, ""
	}
	job := &execJob{stmt: st, reply: make(chan executeReply, 1), estMs: estMs,
		withRows: withRows, trace: req.Trace, queued: n.cfg.clock.now(), deadline: n.jobDeadline(req)}
	n.mu.Lock()
	n.backlogMs += estMs
	n.mu.Unlock()
	select {
	case n.execCh <- job:
		return job, executeReply{}, ""
	case <-n.stopCh:
		n.dropBacklog(estMs)
		return nil, executeReply{Err: msgNodeStopping}, ""
	default:
		// Queue filled between the pre-check and the enqueue.
		n.dropBacklog(estMs)
		n.health.Inc(metrics.OverloadTotal)
		return nil, executeReply{Err: msgOverloaded}, CodeOverload
	}
}

// dropBacklog takes a job's estimate off the backlog once it ran, failed
// or was refused.
func (n *Node) dropBacklog(estMs float64) {
	n.mu.Lock()
	n.backlogMs -= estMs
	if n.backlogMs < 0 {
		n.backlogMs = 0
	}
	n.mu.Unlock()
}

// execLoop is the node's single query executor: one query at a time,
// FIFO, like the sequential RDBMS worker the experiments assume.
func (n *Node) execLoop() {
	defer n.wg.Done()
	for {
		select {
		case job := <-n.execCh:
			n.runJob(job)
		case <-n.stopCh:
			return
		}
	}
}

func (n *Node) runJob(job *execJob) {
	clk := n.cfg.clock
	queued := clk.now()
	if !job.deadline.IsZero() && queued.After(job.deadline) {
		// The deadline passed while the job sat queued: running it now
		// would waste executor time on an answer nobody is waiting for.
		n.health.Inc(metrics.ExpiredTotal)
		n.finishJob(job, executeReply{Err: msgExpired})
		return
	}
	hints := job.stmt.Hints()
	start := clk.now()
	blk, err := job.stmt.Execute()
	if err != nil {
		n.recordJobError(job, queued, err)
		n.finishJob(job, executeReply{Err: err.Error()})
		return
	}
	// The real work of the embedded engine is tiny; stretch it to the
	// node's simulated speed so heterogeneity (Slowdown) is observable,
	// exactly like running the same star query on a slower PC.
	targetMs := n.hintsTargetMs(hints)
	if n.noise != nil {
		n.mu.Lock()
		targetMs *= 1 + n.cfg.ExecNoise*(2*n.noise.Float64()-1)
		n.mu.Unlock()
	}
	target := time.Duration(targetMs * float64(time.Millisecond))
	if elapsed := clk.since(start); elapsed < target {
		clk.sleep(target - elapsed)
	}
	execMs := millis(clk.since(start))
	if job.withRows {
		job.result = blk
	}
	sig := hints.Signature
	n.mu.Lock()
	if ema, ok := n.history[sig]; ok {
		n.history[sig] = (1-historyAlpha)*ema + historyAlpha*execMs
	} else {
		n.history[sig] = execMs
	}
	n.executed++
	n.mu.Unlock()
	n.dropBacklog(job.estMs)
	if job.trace != nil {
		// The queue span covers enqueue -> dequeue (the statement was
		// planned at admission); the exec span is the engine run
		// (including the heterogeneity stretch).
		qstart := job.queued
		if qstart.IsZero() {
			qstart = queued
		}
		n.tracer.Record(job.trace.ID, job.trace.Span, "queue", qstart, millis(start.Sub(qstart)), "")
		n.tracer.Record(job.trace.ID, job.trace.Span, "exec", start, execMs,
			fmt.Sprintf("sig=%s rows=%d", sig, blk.Rows))
	}
	n.finishJob(job, executeReply{
		Accepted: true,
		Rows:     blk.Rows,
		ExecMs:   execMs,
		WaitMs:   millis(start.Sub(queued)),
	})
}

// recordJobError attaches a failed traced job's exec span so the trace
// tree shows where the query died.
func (n *Node) recordJobError(job *execJob, queued time.Time, err error) {
	if job.trace == nil {
		return
	}
	n.tracer.Record(job.trace.ID, job.trace.Span, "exec", queued, millis(n.cfg.clock.since(queued)), "error: "+err.Error())
}

func (n *Node) finishJob(job *execJob, rep executeReply) {
	if rep.Err != "" {
		n.dropBacklog(job.estMs)
	}
	job.reply <- rep
}

// periodLoop drives the QA-NT market period: one pricer tick per tick
// of t.
func (n *Node) periodLoop(t ticker) {
	defer n.wg.Done()
	defer t.Stop()
	for {
		select {
		case <-t.C():
			n.pricer.tick()
			// The market epoch the member row advertises is the count
			// of pricer periods this agent has lived through.
			n.reg.SetEpoch(n.epoch.Add(1))
			n.dedup.sweep()
		case <-n.stopCh:
			return
		}
	}
}

// noteCheckpoint records a successful market-state checkpoint for the
// checkpoint-age gauge. The Checkpointer calls it after each write.
func (n *Node) noteCheckpoint() {
	n.lastCheckpoint.Store(n.cfg.clock.now().UnixMilli())
	n.health.Inc(metrics.CheckpointsTotal)
}

func (n *Node) nodeStats() NodeStats {
	n.mu.Lock()
	executed := n.executed
	n.mu.Unlock()
	health := n.health.Snapshot()
	n.sampleGauges(health)
	return NodeStats{Executed: executed, Health: health, Market: n.MarketTelemetry()}
}

// sampleGauges writes the gauges read at sample time, not at a last
// write, into g: checkpoint age on the node's clock, in-flight work,
// queue depth, and the dedup window's entries and retained bytes. The
// stats op and /metrics both sample through it.
func (n *Node) sampleGauges(g map[string]float64) {
	if ts := n.lastCheckpoint.Load(); ts > 0 {
		g[metrics.CheckpointAgeMs] = float64(n.cfg.clock.now().UnixMilli() - ts)
	}
	g[metrics.InflightWork] = float64(n.working.Load())
	g[metrics.QueueDepth] = float64(len(n.execCh))
	entries, retained := n.dedup.size()
	g[metrics.DedupEntries] = float64(entries)
	g[metrics.DedupRetainedBytes] = float64(retained)
}
