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
// every rider shares it. Only a server that ignores the batch field
// answers without the riders' proposals; each rider then fails at that
// node ("short batch reply") and the lead's proposal stands. A window
// of one omits the batch field entirely and is byte-identical to an
// unbatched negotiate.
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
		it.err = aggregateNodeErrors(members, grid[qi])
		for _, o := range grid[qi] {
			if errors.Is(o.err, ErrTooLarge) {
				// An oversized request fails identically everywhere;
				// typing the aggregate lets the lifecycle fail fast instead
				// of burning its retry rounds on a hopeless resubmit.
				it.err = fmt.Errorf("%w: %v", ErrTooLarge, it.err)
				break
			}
		}
	}
	return len(members)
}

// askNode sends one node its share of the window: one CFP, with the
// riders in its batch field.
func (c *Client) askNode(items []*batchItem, ns *nodeState, grid [][]negOutcome, mi int) {
	lead := items[0]
	req := &request{
		Op: "negotiate", SQL: lead.sql, Mechanism: c.cfg.Mechanism, Trace: lead.tc,
		DeadlineMs: remainingMs(lead.deadline),
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
	switch {
	case len(items) == 1:
	case !answered:
		for qi := 1; qi < len(grid); qi++ {
			grid[qi][mi] = grid[0][mi]
		}
	case rep.Code == CodeDraining:
		// The whole node is going away (classify already tripped its
		// breaker and pruned it); every rider sees the same refusal.
		for qi := 1; qi < len(grid); qi++ {
			grid[qi][mi] = negOutcome{err: errDraining}
		}
	case rep.Code == CodeOverload:
		// The node-wide admission gate refused the whole window before
		// any query was solved: every rider gets the same market refusal.
		for qi := 1; qi < len(grid); qi++ {
			grid[qi][mi] = negOutcome{refusal: CodeOverload}
		}
	default:
		for j := range items[1:] {
			qi := j + 1
			if j >= len(rep.Batch) {
				grid[qi][mi] = negOutcome{err: errors.New("cluster: short batch reply")}
				continue
			}
			bp := rep.Batch[j]
			grid[qi][mi] = c.classifyNegotiate(ns, bp.Negotiate, bp.Code, bp.Err)
		}
	}
}
