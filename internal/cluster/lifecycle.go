package cluster

import (
	"errors"
	"fmt"
	"slices"
	"time"

	"github.com/qamarket/qamarket/internal/metrics"
	"github.com/qamarket/qamarket/internal/trace"
)

// This file is the client's one query lifecycle: the paper's Section 3.3
// client protocol (call for proposals, send to the earliest-finishing
// offer, resubmit next period on refusal) with the failure, protection
// and amortization layers around it. Run, Fetch, FetchEach and every
// lifecycle the Distributor starts go through it; they differ only in
// the terminal op (query.sink). DESIGN.md §17 has the state diagram:
// deadline check → admit → walk the failover ladder → attempt → classify
// → done, next rung, same-node retransmit, renegotiate, or back off.
//
// The lost-reply rule. A request that was sent but whose reply never
// arrived may have run. The only legal continuation is a retransmit to
// the same node, whose dedup window replays the original outcome; when
// the retransmits run out, or the node restarted and its window with
// it, the query fails with ErrOutcomeUnknown rather than run anywhere
// else, which could execute it twice.
//
// The partial-delivery rule. A sink without reset hands rows to the
// caller as they arrive, and they cannot be taken back. Once such a sink
// has received a row, the only legal continuation is a retransmit to the
// same node — whose dedup window replays the identical result — with
// skip set to the rows delivered. Never a runner-up, never a cache
// impeachment, never a renegotiation: each would deliver the prefix
// twice. A sink with reset is the client's own buffer; a failed attempt
// discards it, and the query continues where the attempt's kind allows:
// on the same node after a lost reply, anywhere after a refusal.

// query is one trip through the lifecycle.
type query struct {
	id  int64
	sql string
	// sink is the terminal op: nil executes on the chosen node and ships
	// nothing back, non-nil fetches the result into the sink.
	sink *fetchSink

	// The Distributor runs several lifecycles under one user query: it
	// owns the root span and the deadline and hands both down (sub), and
	// it asks the market about the whole query at most once, decomposing
	// rather than waiting a period for an offer (oneRound).
	sub      bool
	tc       *traceCtx
	deadline time.Time
	oneRound bool
	// afterNegotiate, when set, runs before each attempt with the
	// candidate's node ID: the window between winning a negotiation and
	// using it, where tests kill nodes.
	afterNegotiate func(nodeID, sql string)
}

// errReleased reports a retransmit the node refused with CodeReleased:
// the client had already released that outcome's result. Only a client
// that re-sends a query it holds whole can see it; it is terminal, since
// running the query anywhere else would run it twice.
var errReleased = errors.New("cluster: outcome already released")

// errUnplaced ends a oneRound lifecycle whose single round found no
// taker; any other error from it is terminal for the query.
var errUnplaced = errors.New("not placed this round")

// step is what one round of the lifecycle decided.
type step int

const (
	// stepDone: a node took the query; the outcome is filled in.
	stepDone step = iota
	// stepFail: terminal — retrying cannot help, or is not allowed.
	stepFail
	// stepRenegotiate: the offers went stale under the query (supply
	// race, stale cache); the market was never heard
	// refusing it, so ask again without waiting.
	stepRenegotiate
	// stepNextPeriod: the market answered and nobody took the query;
	// resubmit next period, the paper's cadence, so QA-NT's price
	// dynamics see the same resubmission rhythm with or without the
	// resilience layer.
	stepNextPeriod
	// stepUnreachable: no node answered at all; back off exponentially
	// until the federation responds again.
	stepUnreachable
)

// attemptKind classifies one attempt for the retry and failover logic.
type attemptKind int

const (
	// attemptOK: a well-formed reply arrived (the query ran, or the
	// supply race was lost — see attemptResult.accepted).
	attemptOK attemptKind = iota
	// attemptFatal: a terminal engine/protocol error; retrying cannot
	// help.
	attemptFatal
	// attemptRefused: a typed refusal (overload/expired/draining) or a
	// hard-stop interruption. The query did not run; another candidate
	// may be tried immediately and the breaker saw a live node.
	attemptRefused
	// attemptNotSent: the request never reached the node (dial failed);
	// trying the next candidate is always safe.
	attemptNotSent
	// attemptLost: the request was sent but the reply never arrived —
	// the query may or may not have executed.
	attemptLost
)

// attemptResult is one attempt's classified answer.
type attemptResult struct {
	kind     attemptKind
	err      error
	accepted bool // attemptOK only: false when the supply race was lost
	execMs   float64
	columns  []string
	// rows is the result cardinality the node reported (execute) or the
	// rows handed to the sink by this attempt (fetch) — the latter can be
	// nonzero on a failed attempt, when the stream died mid-result.
	rows int64
}

// lifecycle is one query's state on its way through the market.
type lifecycle struct {
	c        *Client
	q        query
	class    string // market class: bid cache and batch window key
	deadline time.Time
	root     *trace.Active
	tc       *traceCtx
	out      Outcome
	columns  []string
	// shipped counts rows the sink holds (for execute, the cardinality
	// the winner reported). It is the skip offset of a resume.
	shipped int64
	// held are the transports the query has sent on. It holds them until
	// run ends, so a member pruned meanwhile keeps the connections a
	// retransmit or a queued release still needs.
	held []*nodeTransport
	// boot is the incarnation the current candidate's first send
	// reached (0 before it); a retransmit is written only to it.
	boot uint64
}

// begin opens a lifecycle. Unless the query is a Distributor's (sub), it
// owns the deadline and the root span — "run" for execute, "fetch-run"
// for fetches — under which negotiate/execute/fetch spans hang directly.
func (c *Client) begin(q query) *lifecycle {
	l := &lifecycle{c: c, q: q, deadline: q.deadline, tc: q.tc}
	l.out = Outcome{QueryID: q.id, Submitted: c.cfg.clock.now()}
	if !q.sub {
		if c.cfg.QueryTimeout > 0 {
			l.deadline = l.out.Submitted.Add(c.cfg.QueryTimeout)
		}
		name := "run"
		if q.sink != nil {
			name = "fetch-run"
		}
		if l.root = c.startSpan(q.id, "", name); l.root != nil {
			l.tc = childCtx(&traceCtx{ID: q.id}, l.root)
		}
	}
	if c.bids != nil || c.cfg.BatchWindow > 0 {
		l.class = classKey(q.sql)
	}
	return l
}

// run drives the query to its outcome. The second result is the fetched
// result's column names.
func (l *lifecycle) run() (Outcome, []string) {
	l.out.Err = l.loop()
	for _, nt := range l.held {
		l.c.dropTransport(nt)
	}
	l.out.TotalMs = millis(l.c.cfg.clock.since(l.out.Submitted))
	if l.out.Err != nil {
		l.root.Annotate("error: %v", l.out.Err)
	} else {
		l.root.Annotate("node=%s rows=%d retries=%d", l.out.Node, l.out.Rows, l.out.Retries)
	}
	l.root.Finish()
	return l.out, l.columns
}

func (l *lifecycle) loop() error {
	c, id := l.c, l.q.id
	unreachable := 0 // consecutive rounds in which no node answered
	for round := 0; ; round++ {
		if !l.deadline.IsZero() && !c.cfg.clock.now().Before(l.deadline) {
			return fmt.Errorf("cluster: query %d: %w after %d rounds", id, ErrExpired, round)
		}
		next, err := l.round()
		if next == stepRenegotiate {
			// Whatever went stale, the class's cached ladder was ranked from
			// it (or fed by it).
			c.dropBids(l.class)
		}
		switch {
		case next == stepDone, next == stepFail:
			return err
		case l.q.oneRound:
			return fmt.Errorf("cluster: query %d: %w: %v", id, errUnplaced, err)
		case round >= c.cfg.MaxRetries:
			return fmt.Errorf("cluster: query %d after %d rounds: %w", id, round+1, err)
		case !l.noteRetry():
			return l.budgetErr()
		}
		wait := 0
		if next == stepUnreachable {
			wait = unreachable
			unreachable++
		} else {
			unreachable = 0
		}
		if next != stepRenegotiate {
			c.sleepBackoff(wait, l.deadline)
		}
	}
}

// round admits the query and walks the failover ladder once: the winner
// first, then the runner-ups of the same still-fresh proposal round.
func (l *lifecycle) round() (step, error) {
	c := l.c
	pr, fromCache, err := l.admit()
	if err != nil {
		if errors.Is(err, ErrTooLarge) || errors.Is(err, errHelloRefused) {
			// The request itself exceeds the wire limit, or no node speaks
			// this client's protocol; no amount of retrying changes either.
			return stepFail, fmt.Errorf("cluster: query %d: %w", l.q.id, err)
		}
		// Whole federation unreachable this round: transient until proven
		// otherwise (a partition heals, a breaker re-probes).
		return stepUnreachable, err
	}
	if len(pr.ranked) == 0 {
		// Typed refusals flavor the error so shed work is distinguishable
		// from starvation.
		if re := pr.refusalError(); re != nil {
			return stepNextPeriod, fmt.Errorf("refused by all nodes: %w", re)
		}
		return stepNextPeriod, errors.New("refused by all nodes")
	}
	for rung, cand := range pr.ranked {
		if rung > 0 {
			if !c.takeRetryToken() {
				return stepFail, l.budgetErr()
			}
			c.health.Inc(metrics.FailoversTotal)
		}
		if l.q.afterNegotiate != nil {
			l.q.afterNegotiate(cand.nodeID(), l.q.sql)
		}
		res := l.settle(cand)
		switch res.kind {
		case attemptOK:
			if !res.accepted {
				// Lost the race for the last supply unit; this round's other
				// offers may be stale too.
				return stepRenegotiate, errors.New("lost the supply race")
			}
			l.out.Node, l.out.NodeAddr = cand.nodeID(), cand.address()
			l.out.ExecMs, l.out.Rows = res.execMs, int(l.shipped)
			l.columns = res.columns
			return stepDone, nil
		case attemptFatal:
			// A node's fatal answer to a cache-admitted query (it dropped
			// the relation since it bid) impeaches the cache, not the
			// query: ask the market. Our own verdicts — the sink aborted,
			// the budget ran dry, rows already escaped — stay terminal.
			if fromCache && !l.escaped() && !errors.Is(res.err, errStreamAbort) && !errors.Is(res.err, ErrRetryBudget) && !errors.Is(res.err, errReleased) {
				return stepRenegotiate, res.err
			}
			return stepFail, res.err
		case attemptRefused:
			// The query did not run here and the market moved since the
			// class's proposals were ranked: the cached ladder is stale,
			// the next rung is safe to try immediately.
			c.dropBids(l.class)
		case attemptNotSent:
		case attemptLost:
			// settle's retransmits did not resolve it: the outcome is
			// unknown and running it elsewhere could execute it twice.
			return stepFail, res.err
		}
	}
	if fromCache {
		// A cached ladder that produced no taker says nothing about the
		// live market, which was never asked: no period to sleep out.
		return stepRenegotiate, errors.New("cached offers all stale")
	}
	return stepNextPeriod, errors.New("starved: every offering node refused or was unreachable")
}

// admit finds the query its ranked candidates: the class's cached
// ladder, else a call for proposals (the negotiator's, which seats it in
// the class's batch window when there is one). A cached ladder skips the
// negotiate RPCs entirely — the terminal op burns supply on its own, so
// the market stays consistent.
func (l *lifecycle) admit() (pr proposals, fromCache bool, err error) {
	c := l.c
	if ranked := c.cachedLadder(l.class); ranked != nil {
		l.root.Annotate("bid cache hit (%d candidates)", len(ranked))
		return proposals{ranked: ranked}, true, nil
	}
	pr, took, err := c.neg.negotiate(l.q.id, l.q.sql, l.class, l.tc, l.deadline)
	l.out.AssignMs += millis(took)
	if err == nil && c.bids != nil && len(pr.ranked) > 0 {
		c.bids.put(l.class, pr.ranked, c.cfg.clock.now())
	}
	return pr, false, err
}

// settle attempts the query on one candidate and, where only this node
// can continue it, retransmits up to execRetries times. Two cases pin a
// query to its node: a lost reply (the lost-reply rule: the node's dedup
// window replays the original outcome if the query ran) and rows
// escaped to the caller (the partial-delivery rule). A refused or unsent
// retransmit does not prove the original never ran — the admission gate
// answers before the dedup window — so those keep retransmitting. A
// retransmit that meets another incarnation of the node is not sent and
// ends the retransmits: the new window cannot replay the outcome. A
// lost reply the retransmits cannot resolve comes back as attemptLost
// wrapping ErrOutcomeUnknown; escaped rows that cannot be resumed, as
// attemptFatal.
func (l *lifecycle) settle(ns *nodeState) attemptResult {
	l.boot = 0
	res := l.attempt(ns)
	settled := res.kind == attemptOK || res.kind == attemptFatal
	if settled || !(l.escaped() || res.kind == attemptLost) {
		return res
	}
	for r := 0; r < l.c.cfg.execRetries; r++ {
		if !l.noteRetry() {
			return attemptResult{kind: attemptFatal, err: fmt.Errorf("cluster: %w retransmitting to %s", ErrRetryBudget, ns.label())}
		}
		res = l.attempt(ns)
		if res.kind == attemptOK || res.kind == attemptFatal {
			return res
		}
		if errors.Is(res.err, errRestarted) {
			break
		}
	}
	if l.escaped() {
		return attemptResult{kind: attemptFatal, err: fmt.Errorf("cluster: partially-streamed fetch on %s not resumable: %v", ns.label(), res.err)}
	}
	return attemptResult{kind: attemptLost, err: fmt.Errorf("cluster: %w on %s: %v", ErrOutcomeUnknown, ns.label(), res.err)}
}

// escaped reports whether rows have reached a sink that cannot take
// them back.
func (l *lifecycle) escaped() bool {
	return l.shipped > 0 && l.q.sink != nil && l.q.sink.reset == nil
}

// noteRetry accounts one resubmission round or retransmit and charges
// the retry budget for it.
func (l *lifecycle) noteRetry() bool {
	l.out.Retries++
	l.c.health.Inc(metrics.RetriesTotal)
	return l.c.takeRetryToken()
}

func (l *lifecycle) budgetErr() error {
	return fmt.Errorf("cluster: query %d: %w", l.q.id, ErrRetryBudget)
}

// attempt sends the query to one node once — execute, or fetch into the
// sink skipping the rows it already holds — and classifies the answer.
// A failed attempt into a resettable sink discards what it delivered.
func (l *lifecycle) attempt(ns *nodeState) attemptResult {
	c, q := l.c, &l.q
	op := "execute"
	if q.sink != nil {
		op = "fetch"
	}
	tc := l.tc
	if tc != nil {
		sp := c.startSpan(tc.ID, tc.Span, op)
		sp.Annotate("node=%s", ns.nodeID())
		defer sp.Finish()
		tc = childCtx(tc, sp)
	}
	req := &request{Op: op, SQL: q.sql, QueryID: q.id, Trace: tc, DeadlineMs: c.remainingMs(l.deadline)}
	var (
		rep     reply
		fs      *fetchStream // a fetch's frame consumer
		onFrame frameFunc
		res     attemptResult
	)
	if q.sink != nil {
		fs = &fetchStream{sink: *q.sink, skip: l.shipped}
		onFrame = fs.onFrame
	}
	if nt := ns.pools(); !slices.Contains(l.held, nt) {
		c.holdTransport(nt)
		l.held = append(l.held, nt)
	}
	err := c.rpcOn(ns, req, &rep, c.cfg.execTimeout(), onFrame, &l.boot)

	// The answer is an accepted fetch's complete frame stream or a JSON
	// envelope. A fetch envelope never carries an accepted result: one
	// that claims to is malformed.
	var (
		has   bool
		opErr string
	)
	switch {
	case fs != nil && fs.done:
		has, res.accepted, opErr, res.execMs = true, true, fs.end.errMsg, fs.header.execMs
		res.columns = append([]string(nil), fs.header.columns...)
	case rep.Execute != nil && (q.sink == nil || !rep.Execute.Accepted):
		has, res.accepted, opErr, res.execMs = true, rep.Execute.Accepted, rep.Execute.Err, rep.Execute.ExecMs
	}
	if err != nil {
		res.kind, res.err = classifyTransport(ns, op, err)
	} else {
		res.kind, res.err = c.classifyReply(ns, op, rep.Code, rep.Err, has, opErr)
	}
	switch {
	case fs != nil:
		res.rows = fs.delivered // possibly nonzero on a failed attempt
	case res.kind == attemptOK && res.accepted:
		res.rows = int64(rep.Execute.Rows)
	}
	l.shipped += res.rows
	if res.kind == attemptOK && fs != nil && fs.done {
		// The whole stream is here (its end frame arrived clean and the
		// rows matched the header): the node's copy is no longer needed
		// for a resume, and the next request to the incarnation that
		// issued it releases it. A cut stream is not released, so its
		// retransmit replays from the window.
		ns.pools().rel.add(l.boot, fs.header.seq)
	}
	// A failed attempt into a resettable sink leaves nothing behind, not
	// even what a header declared before any row arrived.
	if res.kind != attemptOK && fs != nil && fs.gotHeader && q.sink.reset != nil {
		q.sink.reset()
		l.shipped = 0
	}
	return res
}

// classifyTransport maps a failed exchange onto an attempt kind and
// charges the node's breaker for the failures that are the node's.
func classifyTransport(ns *nodeState, op string, err error) (attemptKind, error) {
	kind := attemptLost
	switch {
	case errors.Is(err, ErrTooLarge):
		// The message was refused pre-write for size; the node was never
		// even bothered. Terminal for the query, invisible to the breaker.
		kind = attemptFatal
	case errors.Is(err, errStreamAbort):
		// Our own sink refused the data; node and transport are fine.
		ns.breaker.success()
		kind = attemptFatal
	case errors.Is(err, errRestarted):
		// A new incarnation answered the hello: the node is up, and the
		// request went nowhere.
		ns.breaker.success()
		kind = attemptNotSent
	case errors.Is(err, errNotSent):
		ns.breaker.failure()
		kind = attemptNotSent
	default:
		ns.breaker.failure()
	}
	return kind, fmt.Errorf("cluster: %s on %s: %w", op, ns.label(), err)
}

// classifyReply maps a well-formed answer to execute or fetch onto an
// attempt kind, driving the node's breaker: the envelope's typed code
// and error, then the op's own reply (has reports whether it arrived,
// opErr its error text — a frame stream's comes from its end frame).
func (c *Client) classifyReply(ns *nodeState, op, code, envErr string, has bool, opErr string) (attemptKind, error) {
	switch code {
	case CodeDraining:
		ns.breaker.trip()
		c.noteDraining(ns)
		return attemptRefused, fmt.Errorf("cluster: %s: %w", ns.label(), errDraining)
	case CodeOverload:
		ns.breaker.success()
		return attemptRefused, fmt.Errorf("cluster: %s: %w", ns.label(), ErrOverloaded)
	case CodeExpired:
		ns.breaker.success()
		return attemptRefused, fmt.Errorf("cluster: %s: %w", ns.label(), ErrExpired)
	case CodeTooLarge:
		// The node answered — healthy — but this message can never fit.
		ns.breaker.success()
		return attemptFatal, fmt.Errorf("cluster: %s: %w", ns.label(), ErrTooLarge)
	case CodeReleased:
		// A duplicate of an outcome this client released: it ran once,
		// and the node no longer holds its result.
		ns.breaker.success()
		return attemptFatal, fmt.Errorf("cluster: %s: %w", ns.label(), errReleased)
	}
	switch {
	case envErr != "":
		return attemptFatal, errors.New(envErr)
	case !has:
		return attemptFatal, fmt.Errorf("cluster: malformed %s reply", op)
	case opErr == msgNodeStopping:
		// A hard stop interrupted the query (or truncated its stream: the
		// delivered prefix is incomplete).
		ns.breaker.trip()
		return attemptRefused, fmt.Errorf("cluster: %s: %s", ns.label(), msgNodeStopping)
	case opErr != "":
		return attemptFatal, errors.New(opErr)
	}
	ns.breaker.success()
	return attemptOK, nil
}
