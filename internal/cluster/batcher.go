package cluster

import (
	"errors"
	"fmt"
	"sync"
	"time"

	"github.com/qamarket/qamarket/internal/metrics"
)

// negotiator coalesces same-class call-for-proposals into batched
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

// negotiate gets one query its proposal round through the class's
// window: opening and leading one if none is accepting, riding
// otherwise. Blocks until the round completes (at most BatchWindow plus
// the fan-out itself).
func (g *negotiator) negotiate(queryID int64, sql, class string, tc *traceCtx, deadline time.Time) (proposals, time.Duration, error) {
	it := &batchItem{queryID: queryID, sql: sql, tc: tc, deadline: deadline}
	g.mu.Lock()
	if w := g.windows[class]; w != nil {
		// Ride the open window.
		w.items = append(w.items, it)
		if len(w.items) >= g.c.cfg.batchLimit {
			// Full: seal now and stop admitting; the leader fans out.
			delete(g.windows, class)
			close(w.full)
		}
		g.mu.Unlock()
		g.c.health.Inc(metrics.BatchCoalescedTotal)
		<-w.done
		return it.pr, it.elapsed, it.err
	}
	w := &batchWindow{items: []*batchItem{it}, full: make(chan struct{}), done: make(chan struct{})}
	g.windows[class] = w
	g.mu.Unlock()
	// Lead: hold the window open for late same-class arrivals, then seal.
	timer := time.NewTimer(g.c.cfg.BatchWindow)
	select {
	case <-timer.C:
	case <-w.full:
	}
	timer.Stop()
	g.mu.Lock()
	if g.windows[class] == w {
		delete(g.windows, class)
	}
	items := w.items
	g.mu.Unlock()
	g.c.health.Inc(metrics.BatchWindowsTotal)
	g.c.fanout(items)
	close(w.done)
	return it.pr, it.elapsed, it.err
}

// fanout runs one proposal round for a sealed window of same-class
// queries (a plain CFP is a window of one): one CFP per probed node,
// per-query classification, per-query ranking. It reports how many
// nodes it probed.
func (c *Client) fanout(items []*batchItem) int {
	start := time.Now()
	// Same class ⇒ same relations: probe once for the whole window.
	members := c.probeSet(items[0].sql)
	if len(members) == 0 {
		for _, it := range items {
			it.err = errors.New("cluster: membership view is empty")
		}
		return 0
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
	elapsed := time.Since(start)
	for qi, it := range items {
		it.elapsed = elapsed
		pr, reachable := rankOffers(members, grid[qi])
		if reachable {
			it.pr = pr
			continue
		}
		it.err = hopeless(aggregateNodeErrors(members, grid[qi]), grid[qi])
	}
	return len(members)
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
		Op: "negotiate", SQL: lead.sql, Trace: lead.tc, DeadlineMs: remainingMs(lead.deadline),
	}
	for _, it := range items[1:] {
		req.Batch = append(req.Batch, batchQuery{
			QueryID: it.queryID, SQL: it.sql, DeadlineMs: remainingMs(it.deadline),
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
