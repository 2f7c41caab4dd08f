package cluster

import (
	"errors"
	"fmt"
	"sync"
	"time"

	"github.com/qamarket/qamarket/internal/metrics"
	"github.com/qamarket/qamarket/internal/trace"
)

// negotiator is the client's one call-for-proposals entry: every
// lifecycle's negotiation round goes through negotiate, which opens the
// query's negotiate span. With BatchWindow zero the round fans out at
// once. With it positive, same-class CFPs coalesce into batched
// negotiate RPCs: the first query of a class to need a CFP opens a
// window and leads it; queries of the class arriving within BatchWindow
// ride along; the sealed window fans out ONE RPC per probed node (the
// negotiate request's additive batch field) and every rider gets its
// own ranked proposal ladder back. A node-wide refusal (draining, or
// overload at the admission gate) answers the whole window at once and
// every rider shares it. A window of one omits the batch field and is
// an unbatched negotiate.
type negotiator struct {
	c       *Client
	mu      sync.Mutex
	windows map[string]*batchWindow
}

// batchItem is one query's seat in a window; the window writes the
// query's proposals (or error) before closing done.
type batchItem struct {
	queryID  int64
	sql      string
	tc       *traceCtx
	deadline time.Time

	pr      proposals
	probed  int // nodes the round asked
	elapsed time.Duration
	err     error
}

// batchWindow is one open coalescing window for a class. items is
// guarded by the negotiator's mu until the window leaves the map; after
// that only the leader touches it.
type batchWindow struct {
	items []*batchItem
	full  chan struct{} // closed when batchLimit seals the window early
	done  chan struct{} // closed when every item's result is in place
}

func newNegotiator(c *Client) *negotiator {
	return &negotiator{c: c, windows: make(map[string]*batchWindow)}
}

// negotiate gets one query its proposal round: the current probe set
// (the live view, shard-trimmed by the query's relations) ranked by
// estimated completion. It returns an aggregate error naming every
// node's failure when none is reachable; typed overload/expired refusals
// count as reachable. Under a batch window it blocks for at most
// BatchWindow plus the fan-out itself.
func (g *negotiator) negotiate(queryID int64, sql, class string, tc *traceCtx, deadline time.Time) (proposals, time.Duration, error) {
	c := g.c
	var sp *trace.Active
	if tc != nil {
		sp = c.startSpan(tc.ID, tc.Span, "negotiate")
		defer sp.Finish()
		tc = childCtx(tc, sp)
	}
	it := &batchItem{queryID: queryID, sql: sql, tc: tc, deadline: deadline}
	if c.cfg.BatchWindow > 0 {
		g.coalesce(it, class)
	} else {
		c.fanout([]*batchItem{it})
	}
	if sp != nil {
		switch best := it.pr.best(); {
		case it.err != nil:
			sp.Annotate("no node reachable")
		case best != nil:
			sp.Annotate("winner=%s of %d nodes (%d offers)", best.nodeID(), it.probed, len(it.pr.ranked))
		default:
			sp.Annotate("no offer from %d nodes (%d overloaded, %d expired)", it.probed, it.pr.overloads, it.pr.expireds)
		}
	}
	return it.pr, it.elapsed, it.err
}

// coalesce runs the item's round through the class's window: opening and
// leading one if none is accepting, riding otherwise. The window's timer
// runs on the client's clock.
func (g *negotiator) coalesce(it *batchItem, class string) {
	c := g.c
	g.mu.Lock()
	if w := g.windows[class]; w != nil {
		// Ride the open window.
		w.items = append(w.items, it)
		if len(w.items) >= c.cfg.batchLimit {
			// Full: seal now and stop admitting; the leader fans out.
			delete(g.windows, class)
			close(w.full)
		}
		g.mu.Unlock()
		c.health.Inc(metrics.BatchCoalescedTotal)
		<-w.done
		return
	}
	w := &batchWindow{items: []*batchItem{it}, full: make(chan struct{}), done: make(chan struct{})}
	g.windows[class] = w
	g.mu.Unlock()
	// Lead: hold the window open for late same-class arrivals, then seal.
	timer := c.cfg.clock.newTimer(c.cfg.BatchWindow)
	select {
	case <-timer.C():
	case <-w.full:
	}
	timer.Stop()
	g.mu.Lock()
	if g.windows[class] == w {
		delete(g.windows, class)
	}
	items := w.items
	g.mu.Unlock()
	c.health.Inc(metrics.BatchWindowsTotal)
	c.fanout(items)
	close(w.done)
}

// fanout runs one proposal round for a sealed window of same-class
// queries (a plain CFP is a window of one): one CFP per probed node,
// per-query classification, per-query ranking.
func (c *Client) fanout(items []*batchItem) {
	start := c.cfg.clock.now()
	// Same class ⇒ same relations: probe once for the whole window.
	members := c.probeSet(items[0].sql)
	if len(members) == 0 {
		for _, it := range items {
			it.err = errors.New("cluster: membership view is empty")
		}
		return
	}
	// grid[qi][mi] is query qi's outcome at member mi.
	grid := make([][]negOutcome, len(items))
	for qi := range grid {
		grid[qi] = make([]negOutcome, len(members))
	}
	var wg sync.WaitGroup
	for mi, ns := range members {
		if !ns.breaker.allow() {
			for qi := range grid {
				grid[qi][mi] = negOutcome{err: errBreakerOpen}
			}
			continue
		}
		wg.Add(1)
		go func(mi int, ns *nodeState) {
			defer wg.Done()
			c.askNode(items, ns, grid, mi)
		}(mi, ns)
	}
	wg.Wait()
	elapsed := c.cfg.clock.since(start)
	for qi, it := range items {
		it.elapsed, it.probed = elapsed, len(members)
		pr, reachable := rankOffers(members, grid[qi])
		if reachable {
			it.pr = pr
			continue
		}
		it.err = hopeless(aggregateNodeErrors(members, grid[qi]), grid[qi])
	}
}

// hopeless types a round's "no node reachable" error when no resubmit
// can succeed, so the lifecycle fails fast instead of burning its retry
// rounds: an oversized request fails identically everywhere, and a
// round in which every node refused the hello found no node that speaks
// this client's protocol.
func hopeless(err error, outs []negOutcome) error {
	refused := 0
	for _, o := range outs {
		if errors.Is(o.err, ErrTooLarge) {
			return fmt.Errorf("%w: %v", ErrTooLarge, err)
		}
		if errors.Is(o.err, errHelloRefused) {
			refused++
		}
	}
	if refused == len(outs) {
		return fmt.Errorf("%w: %v", errHelloRefused, err)
	}
	return err
}

// askNode sends one node its share of the window: one CFP, with the
// riders in its batch field.
func (c *Client) askNode(items []*batchItem, ns *nodeState, grid [][]negOutcome, mi int) {
	lead := items[0]
	req := &request{
		Op: "negotiate", SQL: lead.sql, Trace: lead.tc, DeadlineMs: c.remainingMs(lead.deadline),
	}
	for _, it := range items[1:] {
		req.Batch = append(req.Batch, batchQuery{
			QueryID: it.queryID, SQL: it.sql, DeadlineMs: c.remainingMs(it.deadline),
		})
	}
	var (
		rep      reply
		answered bool
	)
	grid[0][mi], answered = c.askNegotiate(ns, req, &rep)
	for qi := 1; qi < len(items); qi++ {
		if !answered || len(rep.Batch) < qi {
			// The exchange failed, or the node answered the whole window
			// at once (draining, overload at its admission gate) with no
			// batch array: every rider shares the lead's outcome, and
			// classify has already driven the breaker for it.
			grid[qi][mi] = grid[0][mi]
			continue
		}
		bp := rep.Batch[qi-1]
		grid[qi][mi] = c.classifyNegotiate(ns, bp.Negotiate, bp.Code, bp.Err)
	}
}
