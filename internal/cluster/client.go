package cluster

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"github.com/qamarket/qamarket/internal/catalog"
	"github.com/qamarket/qamarket/internal/market"
	"github.com/qamarket/qamarket/internal/metrics"
	"github.com/qamarket/qamarket/internal/sqldb"
	"github.com/qamarket/qamarket/internal/trace"
)

// ClientConfig parameterizes a federation client.
type ClientConfig struct {
	// Addrs seeds the client's membership view with server addresses.
	// With ViewRefresh enabled the view then tracks the federation's
	// gossip: nodes joining later are discovered and departing nodes
	// are pruned, no client restart needed. Without it the view stays
	// exactly these seeds (the static pre-membership behavior).
	Addrs []string
	// Mechanism selects the allocation protocol (greedy or qa-nt).
	Mechanism Mechanism
	// PeriodMs is the base wait before renegotiating a query every
	// server refused (QA-NT resubmission). Consecutive refusals back
	// off exponentially from this base up to eight periods.
	PeriodMs int64
	// MaxRetries caps resubmissions before the query fails.
	MaxRetries int
	// Timeout bounds each RPC except execution; an execute or fetch RPC,
	// which blocks for the query's whole run time, gets twenty times it.
	Timeout time.Duration
	// ViewRefresh, when positive, makes the client poll a live node's
	// merged membership table (the "members" op) this often and fold
	// it into its view: joiners are added, left/dead members pruned
	// (breakers, pools, and histograms follow the stable node ID). A
	// node answering with a draining reply is pruned immediately. Zero
	// keeps the static seed view.
	ViewRefresh time.Duration
	// Jitter is the RNG behind retry-backoff jitter. Backoff used to
	// draw from the unseeded global rand, which made retry schedules
	// unreproducible and immune to the repo's seeded-determinism
	// policy; now tests inject a seeded source and get identical
	// schedules. Nil defaults to a time-seeded private source. The
	// client serializes access; the source need not be concurrency-safe.
	Jitter *rand.Rand
	// Tracer, when set, records client-side query-lifecycle spans
	// (run/negotiate/execute/fetch) and stamps traced requests with a
	// wire trace context so server spans parent under them. Nil
	// disables tracing at zero cost beyond a nil check.
	Tracer *trace.Recorder
	// QueryTimeout is the end-to-end budget for one Run: negotiation,
	// queueing, execution, and every retry round. The remaining budget
	// rides each RPC as the wire's deadline_ms field, so servers shed
	// queries that cannot finish in time instead of running them for
	// nobody. Zero (the default) disables deadlines.
	QueryTimeout time.Duration
	// RunID names this client run for server-side at-most-once dedup.
	// It rides the hello that opens each connection, and servers cache
	// execute/fetch outcomes under (RunID, query id, SQL) so a retransmit
	// after a lost reply replays the original outcome.
	// A lost reply is only ever retransmitted to the same node, so a
	// query runs at most once (see ErrOutcomeUnknown). Empty derives a
	// process-unique id.
	RunID string
	// RetryBudget is a client-wide token-bucket refill rate (tokens per
	// second) charged for every retry round, failover, and retransmit,
	// so retries cannot amplify an overload. The bucket holds 16 tokens
	// and starts full. Zero (default) disables the budget.
	RetryBudget float64
	// BatchWindow, when positive, coalesces same-class queries that
	// need a call-for-proposals within this window into ONE batched CFP
	// per node (the negotiate request's additive batch field): the
	// first arrival leads the window, later arrivals ride it, and every
	// query still receives its own per-node proposal. A window seals
	// early at 16 queries. Zero (default) negotiates every query
	// individually, the pre-batching behavior.
	BatchWindow time.Duration
	// BidCacheTTL, when positive, enables the winning-bid cache: each
	// negotiation round's ranked proposals are cached per query class,
	// stamped with every bidder's gossiped market epoch, and follow-up
	// queries of the class — executes and fetches alike — are admitted
	// straight to the chosen node while the stamp holds. The entry dies on epoch bump, membership change, a
	// typed refusal (overload/expired/draining), or this TTL — whichever
	// comes first. Set it to the federation's market period: the paper
	// prices per period, so a winning bid is valid for at most one
	// epoch. Zero (default) disables the cache.
	BidCacheTTL time.Duration

	// Test hooks, left zero outside the package's tests: validate fills
	// in the product values given in parentheses.
	//
	// poolSize is how many connections each per-node, per-lane pool
	// holds. The client keeps two lanes per node — control
	// (negotiate/stats) and data (execute/fetch) — so a short RPC timing
	// out never evicts a connection carrying a long execution.
	poolSize          int           // connections per node per lane (2)
	maxBackoffMs      int64         // retry backoff cap (8*PeriodMs)
	execTimeoutFactor int           // Timeout multiple for execute and fetch RPCs (20)
	breakerThreshold  int           // consecutive failures that open a node's breaker (3)
	breakerCooldown   time.Duration // an open breaker's wait before its probe (2s)
	execRetries       int           // same-node retransmits of a lost reply (2)
	retryBurst        float64       // retry bucket capacity (16)
	batchLimit        int           // queries that seal a batch window early (16)
	noShardProbe      bool          // fan every CFP out to the whole view (false)
}

func (c *ClientConfig) validate() error {
	if len(c.Addrs) == 0 {
		return errors.New("cluster: no server addresses")
	}
	if c.Mechanism == "" {
		c.Mechanism = MechGreedy
	} else if err := c.Mechanism.check(); err != nil {
		return err
	}
	if c.PeriodMs <= 0 {
		c.PeriodMs = 500
	}
	if c.maxBackoffMs <= 0 {
		c.maxBackoffMs = 8 * c.PeriodMs
	}
	if c.MaxRetries <= 0 {
		c.MaxRetries = 40
	}
	if c.Timeout <= 0 {
		c.Timeout = 5 * time.Second
	}
	if c.execTimeoutFactor <= 0 {
		c.execTimeoutFactor = 20
	}
	if c.breakerThreshold <= 0 {
		c.breakerThreshold = 3
	}
	if c.breakerCooldown <= 0 {
		c.breakerCooldown = 2 * time.Second
	}
	if c.poolSize <= 0 {
		c.poolSize = 2
	}
	if c.ViewRefresh < 0 {
		return fmt.Errorf("cluster: ViewRefresh %v is negative", c.ViewRefresh)
	}
	if c.Jitter == nil {
		c.Jitter = rand.New(rand.NewSource(time.Now().UnixNano()))
	}
	if c.QueryTimeout < 0 {
		return fmt.Errorf("cluster: QueryTimeout %v is negative", c.QueryTimeout)
	}
	if c.RunID == "" {
		c.RunID = fmt.Sprintf("r-%d-%d", time.Now().UnixNano(), runIDSeq.Add(1))
	}
	if c.execRetries <= 0 {
		c.execRetries = 2
	}
	if c.RetryBudget < 0 {
		return fmt.Errorf("cluster: RetryBudget %g is negative", c.RetryBudget)
	}
	if c.retryBurst <= 0 {
		c.retryBurst = 16
	}
	if c.BatchWindow < 0 {
		return fmt.Errorf("cluster: BatchWindow %v is negative", c.BatchWindow)
	}
	if c.batchLimit <= 0 {
		c.batchLimit = 16
	}
	if c.BidCacheTTL < 0 {
		return fmt.Errorf("cluster: BidCacheTTL %v is negative", c.BidCacheTTL)
	}
	return nil
}

// runIDSeq disambiguates derived run ids minted in one process.
var runIDSeq atomic.Uint64

// execTimeout is the budget for an execution RPC.
func (c *ClientConfig) execTimeout() time.Duration {
	return time.Duration(c.execTimeoutFactor) * c.Timeout
}

// nodeState is everything the client keeps per federation member:
// identity, circuit breaker, pooled transport, latency histograms. The
// state is keyed (and carried) by stable node ID, not slice position,
// so it survives membership churn — a node keeps its breaker history
// and histograms across view refreshes, and error messages stay
// attributable.
type nodeState struct {
	breaker *breaker

	// mu guards the identity fields below. A node enters the view
	// provisionally keyed by its seed address; the node ID its answer
	// to the first hello names resolves the real ID and re-keys the
	// entry, state intact.
	mu          sync.Mutex
	id          string
	addr        string
	resolved    bool
	state       string // last gossiped membership state; "seed" until learned
	incarnation uint64
	epoch       uint64
	catalog     string
	// filter is the member's parsed relation filter (nil until a view
	// refresh carries one; nil means "probe for everything"), and
	// filterEnc the advertised encoding it was parsed from.
	filter    *catalog.RelationFilter
	filterEnc string

	// transport is the two-lane pooled transport. It is set at creation
	// and stays set, pruned member or not, so a query that holds it
	// keeps its connections; only a move to a new address across a
	// restart swaps it, under mu.
	transport *nodeTransport

	// Per-op RPC latency histograms, populated lazily.
	latMu sync.Mutex
	lat   map[string]*metrics.Histogram
}

// nodeID returns the node's current (possibly provisional) ID.
func (ns *nodeState) nodeID() string {
	ns.mu.Lock()
	defer ns.mu.Unlock()
	return ns.id
}

// address returns the node's current dial address.
func (ns *nodeState) address() string {
	ns.mu.Lock()
	defer ns.mu.Unlock()
	return ns.addr
}

// label names the node for error messages: stable ID plus address once
// resolved, bare address before the first exchange.
func (ns *nodeState) label() string {
	ns.mu.Lock()
	defer ns.mu.Unlock()
	if ns.resolved && ns.id != ns.addr {
		return fmt.Sprintf("node %s (%s)", ns.id, ns.addr)
	}
	return fmt.Sprintf("node %s", ns.addr)
}

// observe records one successful RPC's latency.
func (ns *nodeState) observe(op string, ms float64) {
	ns.latMu.Lock()
	h := ns.lat[op]
	if h == nil {
		h = metrics.NewHistogram()
		ns.lat[op] = h
	}
	ns.latMu.Unlock()
	h.Observe(ms)
}

// Client negotiates and dispatches queries against the federation.
type Client struct {
	cfg    ClientConfig
	health *metrics.Health
	// hello opens every connection the client dials.
	hello hello

	// view is the membership view, keyed by stable node ID (seed
	// address until the node's first reply resolves it). removedInc
	// remembers the incarnation at which a member was pruned, so a
	// slower peer's stale table cannot resurrect it. retired holds
	// the transports of members that left the view, and those an
	// address move replaced, while a query still holds them.
	viewMu     sync.RWMutex
	view       map[string]*nodeState
	removedInc map[string]uint64
	retired    map[*nodeTransport]struct{}

	// jitterMu serializes the backoff RNG (rand.Rand is not
	// concurrency-safe and concurrent Runs may back off together).
	jitterMu sync.Mutex

	// retry is the client-wide retry token bucket; nil when RetryBudget
	// is zero (unlimited retries, the pre-protection behavior).
	retry *tokenBucket

	// bids is the winning-bid cache (nil with BidCacheTTL zero) and
	// batches the per-class CFP coalescer (nil with BatchWindow zero).
	bids    *bidCache
	batches *negotiator

	// rpcMu guards rpcCounts, the per-op count of RPC attempts (sent or
	// failed), the numerator of the amortization metric qaload reports.
	rpcMu     sync.Mutex
	rpcCounts map[string]int64

	// wire tallies bytes on every client-owned connection, the
	// denominator-free raw wire cost qaload's bytes_per_query report
	// divides down.
	wire *wireCounter

	stopRefresh chan struct{}
	refreshWG   sync.WaitGroup
	closeOnce   sync.Once
}

// NewClient builds a client. The client owns persistent connections;
// call Close when done with it.
func NewClient(cfg ClientConfig) (*Client, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	c := &Client{
		cfg:         cfg,
		health:      metrics.NewHealth(),
		hello:       hello{RunID: cfg.RunID, Mechanism: cfg.Mechanism},
		view:        make(map[string]*nodeState, len(cfg.Addrs)),
		removedInc:  make(map[string]uint64),
		retired:     make(map[*nodeTransport]struct{}),
		rpcCounts:   make(map[string]int64),
		wire:        &wireCounter{},
		stopRefresh: make(chan struct{}),
	}
	if cfg.RetryBudget > 0 {
		c.retry = newTokenBucket(cfg.RetryBudget, cfg.retryBurst)
	}
	if cfg.BidCacheTTL > 0 {
		c.bids = newBidCache(cfg.BidCacheTTL, nil)
	}
	if cfg.BatchWindow > 0 {
		c.batches = newNegotiator(c)
	}
	for _, addr := range cfg.Addrs {
		if _, dup := c.view[addr]; dup {
			continue
		}
		c.view[addr] = c.newNodeState(addr, addr, false)
	}
	if cfg.ViewRefresh > 0 {
		c.refreshWG.Add(1)
		go c.refreshLoop()
	}
	return c, nil
}

// newNodeState builds the per-member state (breaker, transport,
// histograms) for a node entering the view.
func (c *Client) newNodeState(id, addr string, resolved bool) *nodeState {
	return &nodeState{
		breaker:   newBreaker(c.cfg.breakerThreshold, c.cfg.breakerCooldown, c.noteTransition),
		id:        id,
		addr:      addr,
		resolved:  resolved,
		state:     "seed",
		transport: c.newTransport(addr),
		lat:       make(map[string]*metrics.Histogram),
	}
}

// newTransport builds the pooled transport to one member's address.
func (c *Client) newTransport(addr string) *nodeTransport {
	return newNodeTransport(addr, &c.hello, c.cfg.poolSize, c.wire)
}

// WireBytes reports the total bytes read and written on the client's
// connections since creation.
func (c *Client) WireBytes() (in, out int64) {
	return c.wire.in.Load(), c.wire.out.Load()
}

// Close stops the view refresher and shuts the client's pooled
// connections down. Safe to call more than once.
func (c *Client) Close() {
	c.closeOnce.Do(func() {
		close(c.stopRefresh)
		c.refreshWG.Wait()
		c.viewMu.Lock()
		defer c.viewMu.Unlock()
		for nt := range c.retired {
			nt.close()
		}
		for _, ns := range c.view {
			ns.pools().close()
		}
	})
}

// nodes snapshots the current view, sorted by ID so fan-outs and
// aggregated errors are deterministically ordered.
func (c *Client) nodes() []*nodeState {
	c.viewMu.RLock()
	out := make([]*nodeState, 0, len(c.view))
	for _, ns := range c.view {
		out = append(out, ns)
	}
	c.viewMu.RUnlock()
	sort.Slice(out, func(i, j int) bool { return out[i].nodeID() < out[j].nodeID() })
	return out
}

// lookup finds a view member by node ID or address.
func (c *Client) lookup(key string) *nodeState {
	c.viewMu.RLock()
	defer c.viewMu.RUnlock()
	if ns, ok := c.view[key]; ok {
		return ns
	}
	for _, ns := range c.view {
		ns.mu.Lock()
		hit := ns.addr == key || ns.id == key
		ns.mu.Unlock()
		if hit {
			return ns
		}
	}
	return nil
}

// learnID re-keys a provisionally addressed member under the stable
// node ID its reply carried. The nodeState pointer (breaker, pools,
// histograms) is preserved; only the map key and label change.
func (c *Client) learnID(ns *nodeState, id string) {
	ns.mu.Lock()
	already := ns.resolved && ns.id == id
	ns.mu.Unlock()
	if already || id == "" {
		return
	}
	c.viewMu.Lock()
	defer c.viewMu.Unlock()
	ns.mu.Lock()
	old := ns.id
	ns.id = id
	ns.resolved = true
	ns.mu.Unlock()
	if other, ok := c.view[id]; ok && other != ns {
		// Two seed addresses resolved to the same node: keep the entry
		// that answered, retire the duplicate's transport.
		c.retireLocked(other.pools())
	}
	if c.view[old] == ns {
		delete(c.view, old)
	}
	c.view[id] = ns
}

// noteTransition feeds breaker state changes into the health counters.
func (c *Client) noteTransition(_, to breakerState) {
	switch to {
	case breakerOpen:
		c.health.Inc(metrics.BreakerOpenTotal)
	case breakerHalfOpen:
		c.health.Inc(metrics.BreakerHalfOpenTotal)
	case breakerClosed:
		c.health.Inc(metrics.BreakerCloseTotal)
	}
}

// Health snapshots the client's failure-domain counters: breaker
// transitions, retry rounds, accumulated backoff.
func (c *Client) Health() map[string]float64 { return c.health.Snapshot() }

// Outcome reports one query's journey through the federation.
type Outcome struct {
	QueryID   int64
	Node      string  // stable ID of the executing node ("" when none)
	NodeAddr  string  // its address at execution time
	AssignMs  float64 // negotiation time (the paper's "time to assign")
	TotalMs   float64 // assignment + queueing + execution
	ExecMs    float64 // server-side execution time
	Rows      int     // result cardinality
	Retries   int     // resubmission rounds
	Err       error   // terminal failure, if any
	Submitted time.Time
}

// errBreakerOpen marks a node skipped because its circuit is open: the
// client never touched the network for it this round.
var errBreakerOpen = errors.New("breaker open")

// errDraining marks a node that answered with a typed draining reply.
var errDraining = errors.New("draining")

// Typed terminal errors callers classify with errors.Is: load tools
// separate shed work (refusals, deadlines) from real failures.
var (
	// ErrOverloaded reports a query shed because every offering node
	// answered a typed overload refusal until the retry limit.
	ErrOverloaded = errors.New("overloaded")
	// ErrExpired reports a query whose deadline ran out — client-side,
	// or shed by servers with typed expired refusals.
	ErrExpired = errors.New("deadline exceeded")
	// ErrRetryBudget reports a query abandoned because the client-wide
	// retry token bucket ran dry.
	ErrRetryBudget = errors.New("retry budget exhausted")
	// ErrOutcomeUnknown reports an execute or fetch whose reply was lost
	// and stayed lost through the retransmits to the same node: the
	// query ran there once or not at all, and the client will not run
	// it anywhere else, since that could execute it twice. It is the
	// price of at-most-once execution, the client's only lost-reply
	// policy.
	ErrOutcomeUnknown = errors.New("execute outcome unknown")
)

// errNotSent wraps transport failures that happened before the request
// could reach the node (dial refused, pool closed): the query certainly
// did not run there, so failing over to another node is always safe.
var errNotSent = errors.New("request not sent")

// errRestarted reports a retransmit not sent because it met another
// incarnation of the node, whose dedup window cannot replay the outcome.
var errRestarted = errors.New("cluster: node restarted since the request was sent")

// tokenBucket is the client-wide retry budget: `rate` tokens per second
// refill up to `burst`; every retry round, runner-up failover, and
// retransmit takes one token. Time-based rather than count-based so a
// long run earns back its budget while a retry storm cannot.
type tokenBucket struct {
	mu     sync.Mutex
	rate   float64
	burst  float64
	tokens float64
	last   time.Time
}

func newTokenBucket(rate, burst float64) *tokenBucket {
	return &tokenBucket{rate: rate, burst: burst, tokens: burst, last: time.Now()}
}

// take consumes one token, reporting false when the bucket is dry.
func (tb *tokenBucket) take() bool {
	tb.mu.Lock()
	defer tb.mu.Unlock()
	now := time.Now()
	tb.tokens += now.Sub(tb.last).Seconds() * tb.rate
	if tb.tokens > tb.burst {
		tb.tokens = tb.burst
	}
	tb.last = now
	if tb.tokens < 1 {
		return false
	}
	tb.tokens--
	return true
}

// takeRetryToken charges one retry against the budget (always allowed
// with the budget disabled).
func (c *Client) takeRetryToken() bool {
	if c.retry == nil {
		return true
	}
	if c.retry.take() {
		return true
	}
	c.health.Inc(metrics.RetryBudgetExhaustedTotal)
	return false
}

// startSpan opens a client-side span when tracing is on; nil otherwise
// (a nil *trace.Active no-ops everywhere).
func (c *Client) startSpan(traceID int64, parent, name string) *trace.Active {
	if c.cfg.Tracer == nil {
		return nil
	}
	return c.cfg.Tracer.Start(traceID, parent, name)
}

// childCtx derives the wire trace context requests under sp should
// carry. With tracing off locally (sp == nil) the caller's context is
// forwarded unchanged, so a relay without its own recorder still links
// server spans into the trace.
func childCtx(tc *traceCtx, sp *trace.Active) *traceCtx {
	if tc == nil || sp == nil {
		return tc
	}
	return &traceCtx{ID: tc.ID, Span: sp.ID()}
}

// Run evaluates one query: negotiate with every node in the live view
// (waiting for all replies, as the paper's implementation did), send it
// to the best offer, and return the outcome. Retries, failover, the
// retry budget and the amortization layers are the shared query
// lifecycle's (lifecycle.go).
func (c *Client) Run(queryID int64, sql string) Outcome {
	out, _ := c.begin(query{id: queryID, sql: sql}).run()
	return out
}

// Fetch runs one query through the market like Run, but ships the
// result back to the caller as streamed binary frames and accumulates
// the rows. For results too large to hold in memory, use FetchEach.
func (c *Client) Fetch(queryID int64, sql string) (*sqldb.Result, Outcome) {
	res := &sqldb.Result{}
	out, columns := c.begin(query{id: queryID, sql: sql, sink: accumulateSink(res)}).run()
	if out.Err != nil {
		return nil, out
	}
	res.Columns = columns
	return res, out
}

// FetchEach runs one query through the market and streams its result to
// fn in bounded batches: the whole result is never resident on either
// side — memory stays O(one frame batch, 4096 rows).
// The ColBlock's buffers are reused between calls; fn must copy out
// anything it retains. A non-nil error from fn aborts the fetch and
// surfaces in the outcome.
//
// Delivery is exactly-once per row even across a connection lost mid-
// stream: rows already handed to fn cannot be taken back, so the client
// resumes only by retransmitting to the same node — whose dedup window
// replays the identical result — and skipping the delivered prefix. If
// that node stays unreachable the fetch fails rather than re-deliver.
func (c *Client) FetchEach(queryID int64, sql string, fn func(*ColBlock) error) Outcome {
	out, _ := c.begin(query{id: queryID, sql: sql, sink: &fetchSink{block: fn}}).run()
	return out
}

// sleepBackoff waits the capped exponential backoff for the given retry
// round: PeriodMs doubled per round, capped at eight periods, jittered
// into [1/2, 1] of the target so synchronized clients desynchronize.
// With a deadline set the sleep is clipped to the remaining budget —
// sleeping past the deadline would just discover the expiry later.
func (c *Client) sleepBackoff(round int, deadline time.Time) {
	d := c.backoffDelay(round)
	if !deadline.IsZero() {
		if rem := time.Until(deadline); rem < d {
			d = rem
		}
	}
	if d <= 0 {
		return
	}
	c.health.Add(metrics.BackoffMsTotal, int64(d/time.Millisecond))
	time.Sleep(d)
}

func (c *Client) backoffDelay(round int) time.Duration {
	base := float64(c.cfg.PeriodMs)
	ceil := float64(c.cfg.maxBackoffMs)
	target := base * math.Pow(2, float64(round))
	if target > ceil || math.IsInf(target, 1) {
		target = ceil
	}
	c.jitterMu.Lock()
	jitter := 0.5 + 0.5*c.cfg.Jitter.Float64()
	c.jitterMu.Unlock()
	return time.Duration(target * jitter * float64(time.Millisecond))
}

// proposals is one negotiation round's outcome: the offering nodes
// ranked by earliest estimated completion (winner first, runner-up
// next — the failover ladder), plus counts of the typed refusals seen.
// A typed overload/expired refusal came from a live, answering node, so
// it counts as reachable without producing a candidate.
type proposals struct {
	ranked    []*nodeState
	overloads int
	expireds  int
}

// best returns the winning bidder (nil when nobody offered).
func (p proposals) best() *nodeState {
	if len(p.ranked) == 0 {
		return nil
	}
	return p.ranked[0]
}

// refusalError maps a round's typed refusals onto the client's typed
// terminal errors, nil when the round saw none.
func (p proposals) refusalError() error {
	switch {
	case p.overloads > 0:
		return ErrOverloaded
	case p.expireds > 0:
		return ErrExpired
	}
	return nil
}

// remainingMs converts an absolute deadline into the relative budget a
// request carries on the wire. A set-but-already-passed deadline
// travels as 1ms — still shed server-side — rather than 0, which would
// mean "no deadline".
func remainingMs(deadline time.Time) int64 {
	if deadline.IsZero() {
		return 0
	}
	rem := time.Until(deadline)
	if rem < time.Millisecond {
		return 1
	}
	return int64(rem / time.Millisecond)
}

// negOutcome is one node's answer to a call-for-proposals for one
// query: an offer (rep), a typed refusal, or a failure. The batched
// path produces a grid of these (one per query per node); the unbatched
// path one row.
type negOutcome struct {
	rep     negotiateReply
	hasRep  bool
	refusal string // CodeOverload or CodeExpired
	err     error
}

// classifyNegotiate folds one negotiate answer — a top-level reply or a
// batched sub-proposal, whose (neg, code, errText) triples are shaped
// identically — into a negOutcome, driving the node's breaker exactly
// like the pre-batching path did. Transport failures never reach here;
// the caller records those (with a breaker failure) directly.
func (c *Client) classifyNegotiate(ns *nodeState, neg *negotiateReply, code, errText string) negOutcome {
	switch {
	case code == CodeDraining:
		// The node told us it is going away: open its circuit now
		// instead of discovering the death one timeout at a time,
		// and — under a dynamic view — prune its supply from the
		// market ahead of gossip eviction.
		ns.breaker.trip()
		c.noteDraining(ns)
		return negOutcome{err: errDraining}
	case code == CodeOverload, code == CodeExpired:
		// A market refusal from a live node: no offer this round,
		// but emphatically not a failure — the breaker must stay
		// closed so the node is renegotiated next period.
		ns.breaker.success()
		return negOutcome{refusal: code}
	case errText != "":
		ns.breaker.success()
		return negOutcome{err: errors.New(errText)}
	default:
		ns.breaker.success()
		out := negOutcome{hasRep: neg != nil}
		if neg != nil {
			out.rep = *neg
		}
		return out
	}
}

// rankOffers turns one query's per-node outcomes into the ranked
// proposal ladder (market.Rank: earliest estimated completion first)
// plus refusal counts, reporting whether any node was reachable at
// all — typed refusals count as reachable.
func rankOffers(members []*nodeState, outs []negOutcome) (proposals, bool) {
	var pr proposals
	bids := make([]market.Bid, len(outs))
	reachable := false
	for i, o := range outs {
		switch {
		case o.refusal == CodeOverload:
			reachable = true
			pr.overloads++
			continue
		case o.refusal == CodeExpired:
			reachable = true
			pr.expireds++
			continue
		case o.err != nil:
			continue
		}
		reachable = true
		bids[i] = market.Bid{QueueMs: o.rep.QueueMs, EstimateMs: o.rep.EstimateMs,
			Offer: o.hasRep && o.rep.Feasible && o.rep.Offer}
	}
	for _, i := range market.Rank(bids, nil) {
		pr.ranked = append(pr.ranked, members[i])
	}
	return pr, reachable
}

// negotiateAll broadcasts the call-for-proposals to the current probe
// set (the live view, shard-trimmed by the query's relations) and ranks
// the offering nodes by estimated completion — a CFP window of one,
// fanned out at once. It returns an aggregate error naming every node's
// failure when none is reachable; typed overload/expired refusals count
// as reachable.
func (c *Client) negotiateAll(sql string, tc *traceCtx, deadline time.Time) (proposals, time.Duration, error) {
	var sp *trace.Active
	if tc != nil {
		sp = c.startSpan(tc.ID, tc.Span, "negotiate")
		defer sp.Finish()
		tc = childCtx(tc, sp)
	}
	it := &batchItem{sql: sql, tc: tc, deadline: deadline}
	probed := c.fanout([]*batchItem{it})
	switch best := it.pr.best(); {
	case it.err != nil:
		sp.Annotate("no node reachable")
	case best != nil:
		sp.Annotate("winner=%s of %d nodes (%d offers)", best.nodeID(), probed, len(it.pr.ranked))
	default:
		sp.Annotate("no offer from %d nodes (%d overloaded, %d expired)", probed, it.pr.overloads, it.pr.expireds)
	}
	return it.pr, it.elapsed, it.err
}

// askNegotiate sends one CFP to one node and classifies the answer;
// answered is false when the exchange itself failed. That charges the
// breaker — unless the request was refused for its size before it was
// written, which says nothing about the node.
func (c *Client) askNegotiate(ns *nodeState, req *request, rep *reply) (out negOutcome, answered bool) {
	if err := c.rpcOn(ns, req, rep, c.cfg.Timeout, nil, nil); err != nil {
		if !errors.Is(err, ErrTooLarge) {
			ns.breaker.failure()
		}
		return negOutcome{err: err}, false
	}
	return c.classifyNegotiate(ns, rep.Negotiate, rep.Code, rep.Err), true
}

// noteDraining reacts to a typed draining reply. Under a dynamic view
// the member is pruned immediately — a graceful leave removes supply
// from the market before suspicion could; the membership refresh would
// only rediscover the tombstone later. A static view keeps the entry
// (its breaker is already open) so a node restarting on the same
// address is found again by the breaker's probe.
func (c *Client) noteDraining(ns *nodeState) {
	if c.cfg.ViewRefresh <= 0 {
		return
	}
	ns.mu.Lock()
	id, inc := ns.id, ns.incarnation
	ns.mu.Unlock()
	c.viewMu.Lock()
	defer c.viewMu.Unlock()
	c.pruneLocked(id, inc)
}

// pruneLocked removes a member from the view, remembering the
// incarnation so stale gossip cannot resurrect it. Callers hold viewMu.
func (c *Client) pruneLocked(id string, incarnation uint64) {
	ns, ok := c.view[id]
	if !ok {
		return
	}
	delete(c.view, id)
	if prev, ok := c.removedInc[id]; !ok || incarnation > prev {
		c.removedInc[id] = incarnation
	}
	// The transport stays on the member: a query that sent on it before
	// it left keeps its connections and queued releases for the
	// retransmits it may still owe, until the last such query ends.
	c.retireLocked(ns.pools())
}

// retireLocked takes a transport out of the view: it closes now if no
// query holds it, else when the last holder drops it. Callers hold
// viewMu.
func (c *Client) retireLocked(nt *nodeTransport) {
	if nt.holds == 0 {
		nt.close()
		return
	}
	c.retired[nt] = struct{}{}
}

// holdTransport pins a transport for a query until dropTransport.
func (c *Client) holdTransport(nt *nodeTransport) {
	c.viewMu.Lock()
	nt.holds++
	c.viewMu.Unlock()
}

// dropTransport ends a query's hold, closing a retired transport that
// nothing holds any more.
func (c *Client) dropTransport(nt *nodeTransport) {
	c.viewMu.Lock()
	defer c.viewMu.Unlock()
	if nt.holds--; nt.holds > 0 {
		return
	}
	if _, retired := c.retired[nt]; retired {
		delete(c.retired, nt)
		nt.close()
	}
}

// aggregateNodeErrors folds per-node failures into one error naming
// every node by stable ID and address, so "no node reachable" stays
// diagnosable and correctly attributed across membership changes.
func aggregateNodeErrors(members []*nodeState, outs []negOutcome) error {
	parts := make([]string, 0, len(outs))
	for i, o := range outs {
		if o.err != nil {
			parts = append(parts, fmt.Sprintf("%s: %v", members[i].label(), o.err))
		}
	}
	return fmt.Errorf("no node reachable: %s", strings.Join(parts, "; "))
}

// rpcOn performs one exchange with a view member, recording the
// latency of successful RPCs (failures are already counted by the
// breaker and retry metrics) in the member's per-op histogram. A
// connection's hello names the node, which resolves the member's stable
// ID, and its incarnation. A fetch passes onFrame and ends with its
// frames consumed, or with a JSON envelope in rep (a refusal or an
// error); every other op gets one JSON reply. A non-nil boot pins the
// exchange to one incarnation: 0 learns the one the connection reached,
// and a connection to any other than a nonzero boot sends nothing
// (errRestarted).
func (c *Client) rpcOn(ns *nodeState, req *request, rep *reply, timeout time.Duration, onFrame frameFunc, boot *uint64) error {
	start := time.Now()
	c.countRPC(req.Op)
	nt := ns.pools()
	mc, err := nt.lane(req.Op).get(timeout)
	if err == nil && boot != nil && *boot != 0 && mc.peer.Boot != *boot {
		err = errRestarted
	}
	if err != nil {
		// A get failure, a refused hello included, precedes the request.
		return fmt.Errorf("%w: %w", errNotSent, err)
	}
	if boot != nil {
		*boot = mc.peer.Boot
	}
	if req.Op == "negotiate" || req.Op == "execute" || req.Op == "fetch" {
		req.Release = nt.rel.take(mc.peer.Boot)
	}
	err = mc.call(req, rep, timeout, onFrame)
	if len(req.Release) > 0 && (errors.Is(err, ErrTooLarge) || errors.Is(err, errNotSent)) {
		// Refused before a byte was written: the next request carries them.
		nt.rel.add(mc.peer.Boot, req.Release...)
	}
	c.learnID(ns, mc.peer.NodeID)
	if err == nil {
		ns.observe(req.Op, msSince(start))
	}
	return err
}

// pools returns the member's pooled transport.
func (ns *nodeState) pools() *nodeTransport {
	ns.mu.Lock()
	defer ns.mu.Unlock()
	return ns.transport
}

// countRPC tallies one RPC attempt under its op. Unlike the latency
// histograms (successful exchanges only), the counts include failures:
// they are the true wire cost the amortization work drives down.
func (c *Client) countRPC(op string) {
	c.rpcMu.Lock()
	c.rpcCounts[op]++
	c.rpcMu.Unlock()
}

// RPCCounts snapshots how many RPC attempts the client has made per op
// (negotiate/execute/fetch/members/...), failures included. Load tools
// divide by completed queries to report amortized RPCs per query.
func (c *Client) RPCCounts() map[string]int64 {
	c.rpcMu.Lock()
	defer c.rpcMu.Unlock()
	out := make(map[string]int64, len(c.rpcCounts))
	for op, n := range c.rpcCounts {
		out[op] = n
	}
	return out
}

// Latencies snapshots the client's RPC latency histograms, keyed by op
// then stable node ID.
func (c *Client) Latencies() map[string]map[string]metrics.HistSummary {
	out := make(map[string]map[string]metrics.HistSummary)
	for _, ns := range c.nodes() {
		id := ns.nodeID()
		ns.latMu.Lock()
		for op, h := range ns.lat {
			m := out[op]
			if m == nil {
				m = make(map[string]metrics.HistSummary)
				out[op] = m
			}
			m[id] = h.Summary()
		}
		ns.latMu.Unlock()
	}
	return out
}

// OpLatencies merges each op's per-node histograms into one summary.
func (c *Client) OpLatencies() map[string]metrics.HistSummary {
	merged := make(map[string]*metrics.Histogram)
	for _, ns := range c.nodes() {
		ns.latMu.Lock()
		for op, h := range ns.lat {
			m := merged[op]
			if m == nil {
				m = metrics.NewHistogram()
				merged[op] = m
			}
			m.Merge(h)
		}
		ns.latMu.Unlock()
	}
	out := make(map[string]metrics.HistSummary, len(merged))
	for op, h := range merged {
		out[op] = h.Summary()
	}
	return out
}

// Stats fetches one node's market counters, addressed by stable node
// ID or address. Stats is an out-of-band observability op, so it
// leaves the breaker's failure accounting alone — except for a typed
// draining reply, which trips the breaker exactly like it does on
// negotiate/execute/fetch (the node told us it is going away; there is
// no reason to keep paying timeouts to learn it again).
func (c *Client) Stats(node string) (*NodeStats, error) {
	ns := c.lookup(node)
	if ns == nil {
		return nil, fmt.Errorf("cluster: unknown node %q", node)
	}
	var rep reply
	if err := c.rpcOn(ns, &request{Op: "stats"}, &rep, c.cfg.Timeout, nil, nil); err != nil {
		return nil, err
	}
	if rep.Code == CodeDraining {
		ns.breaker.trip()
		return nil, fmt.Errorf("cluster: %s: %w", ns.label(), errDraining)
	}
	if rep.Err != "" {
		return nil, errors.New(rep.Err)
	}
	if rep.Stats == nil {
		return nil, errors.New("cluster: malformed stats reply")
	}
	return rep.Stats, nil
}

// TraceSpans assembles one trace's spans from across the federation:
// the client's own recorder plus every reachable node's span ring,
// collected via the "spans" op. Unreachable nodes are skipped — a
// lossy collection still renders, with orphaned spans becoming tree
// roots.
func (c *Client) TraceSpans(traceID int64) []trace.Span {
	members := c.nodes()
	collected := make([][]trace.Span, len(members))
	var wg sync.WaitGroup
	for i, ns := range members {
		wg.Add(1)
		go func(i int, ns *nodeState) {
			defer wg.Done()
			var rep reply
			if err := c.rpcOn(ns, &request{Op: "spans", QueryID: traceID}, &rep, c.cfg.Timeout, nil, nil); err != nil {
				return
			}
			if rep.Err == "" && rep.Spans != nil {
				collected[i] = rep.Spans.Spans
			}
		}(i, ns)
	}
	wg.Wait()
	out := c.cfg.Tracer.Spans(traceID)
	for _, spans := range collected {
		out = append(out, spans...)
	}
	return out
}
