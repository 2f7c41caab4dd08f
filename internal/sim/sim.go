// Package sim rebuilds the paper's federation simulator (Section 5.1):
// a discrete-event model of up to hundreds of autonomous RDBMSs, each
// executing queries sequentially from a local queue, with a pluggable
// allocation mechanism deciding which node runs each incoming query.
package sim

import (
	"errors"
	"fmt"
	"math"
	"strings"

	"github.com/qamarket/qamarket/internal/alloc"
	"github.com/qamarket/qamarket/internal/catalog"
	"github.com/qamarket/qamarket/internal/costmodel"
	"github.com/qamarket/qamarket/internal/desim"
	"github.com/qamarket/qamarket/internal/metrics"
	"github.com/qamarket/qamarket/internal/workload"
)

// Config assembles one simulation run.
type Config struct {
	Catalog   *catalog.Catalog
	Templates []costmodel.Template
	// PeriodMs is the allocation period T (500 ms in the experiments).
	PeriodMs int64
	// CostOverride, when non-nil, supplies the per-node per-class
	// execution costs directly ([node][class] milliseconds, +Inf for
	// "cannot evaluate"), bypassing the cost model. Controlled
	// experiments — like replaying the paper's Figure 1 numbers
	// exactly — use it; dimensions must match Catalog.Nodes and
	// Templates.
	CostOverride [][]float64
}

func (c *Config) validate() error {
	if c.Catalog == nil {
		return errors.New("sim: nil catalog")
	}
	if len(c.Templates) == 0 {
		return errors.New("sim: no query templates")
	}
	if c.PeriodMs <= 0 {
		return errors.New("sim: PeriodMs must be positive")
	}
	return nil
}

// job is one query instance flowing through the simulator. Jobs are
// recycled through the federation's free list once they complete, and
// each job caches its completion event so steady-state execution
// schedules without allocating closures.
type job struct {
	q       alloc.Query
	node    int
	costMs  float64
	startMs int64
	f       *Federation
	done    desim.Event // fires f.complete(job); built once per job object
}

// nodeState models one RDBMS: a FIFO queue drained sequentially. The
// queue is a head-indexed slice so dequeues don't shift or reallocate;
// the backing array is reused once drained.
type nodeState struct {
	queue     []*job
	head      int
	running   *job
	pendingMs float64 // queued + running work (full costs)
	runStart  int64
}

// Federation is one simulation instance. Build with New, drive with Run.
type Federation struct {
	cfg   Config
	eng   desim.Engine
	mech  alloc.Mechanism
	nodes []*nodeState
	cost  [][]float64 // [node][class] estimated+actual execution ms
	feas  [][]int     // [class] ascending nodes able to evaluate it
	col   metrics.Collector

	retry       []alloc.Query
	retrySpare  []alloc.Query // recycled backing array for retry
	jobFree     []*job        // completed jobs awaiting reuse
	outstanding int
}

// New builds a federation around the mechanism. Costs for every
// (node, class) pair are precomputed from the cost model, serving both
// as the EXPLAIN estimates the mechanisms see and as the simulated
// execution times (the simulator's estimator is exact; the real cluster
// in internal/cluster is where estimates and reality diverge).
func New(cfg Config, mech alloc.Mechanism) (*Federation, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	if mech == nil {
		return nil, errors.New("sim: nil mechanism")
	}
	n := len(cfg.Catalog.Nodes)
	k := len(cfg.Templates)
	cost := make([][]float64, n)
	flat := make([]float64, n*k)
	for i := range cost {
		cost[i] = flat[i*k : (i+1)*k : (i+1)*k]
	}
	if cfg.CostOverride != nil {
		if len(cfg.CostOverride) != n {
			return nil, fmt.Errorf("sim: CostOverride has %d nodes, catalog has %d", len(cfg.CostOverride), n)
		}
		for i, row := range cfg.CostOverride {
			if len(row) != k {
				return nil, fmt.Errorf("sim: CostOverride node %d has %d classes, want %d", i, len(row), k)
			}
			copy(cost[i], row)
		}
	} else {
		model := costmodel.New(cfg.Catalog)
		for i, node := range cfg.Catalog.Nodes {
			for c, t := range cfg.Templates {
				cost[i][c] = model.Estimate(node, t)
			}
		}
	}
	f := &Federation{cfg: cfg, mech: mech, cost: cost}
	// Precompute the per-class feasibility index the mechanisms iterate
	// on every allocation round.
	f.feas = make([][]int, k)
	for c := 0; c < k; c++ {
		class := c
		f.feas[c] = alloc.ScanFeasible(n, func(node int) bool {
			return !math.IsInf(cost[node][class], 1)
		})
	}
	f.nodes = make([]*nodeState, n)
	for i := range f.nodes {
		f.nodes[i] = &nodeState{}
	}
	return f, nil
}

// view adapts the federation to alloc.View.
type view struct{ f *Federation }

func (v view) Now() int64      { return int64(v.f.eng.Now()) }
func (v view) NumNodes() int   { return len(v.f.nodes) }
func (v view) NumClasses() int { return len(v.f.cfg.Templates) }
func (v view) PeriodMs() int64 { return v.f.cfg.PeriodMs }
func (v view) Feasible(node, class int) bool {
	return !math.IsInf(v.f.cost[node][class], 1)
}
func (v view) FeasibleNodes(class int) []int { return v.f.feas[class] }
func (v view) Cost(node, class int) float64  { return v.f.cost[node][class] }
func (v view) Backlog(node int) float64 {
	ns := v.f.nodes[node]
	b := ns.pendingMs
	if ns.running != nil {
		if done := float64(int64(v.f.eng.Now()) - ns.runStart); done > 0 {
			b -= math.Min(done, ns.running.costMs)
		}
	}
	return b
}

// Run feeds the arrival stream through the mechanism and returns the
// collected metrics once every query has completed. Arrivals must be
// sorted by time. A query ends only by completing: a run still waiting
// at its bound (see bound) returns an error naming every waiting class
// and its count, and a class no node can evaluate is refused before any
// event runs.
func (f *Federation) Run(arrivals []workload.Arrival) (*metrics.Collector, error) {
	if len(arrivals) == 0 {
		return &f.col, nil
	}
	end, err := f.bound(arrivals)
	if err != nil {
		return nil, err
	}
	f.outstanding = len(arrivals)
	for i, a := range arrivals {
		a := a
		id := int64(i)
		f.eng.At(desim.Time(a.At), func(now desim.Time) {
			f.dispatch(alloc.Query{
				ID: id, Class: a.Class, Origin: a.Origin, Arrival: a.At,
			})
		})
	}
	f.startPeriodClock()
	f.eng.RunUntil(end)
	if f.outstanding > 0 {
		return nil, f.waiting(end)
	}
	return &f.col, nil
}

// bound checks the arrivals and returns the virtual time by which every
// query must have completed: the last arrival plus, for each query, its
// class's dearest finite cost and one period. That is about what one
// capable node would need to save for and run every query serially, so
// only a mechanism that strands a query reaches it.
func (f *Federation) bound(arrivals []workload.Arrival) (desim.Time, error) {
	dearest := make([]float64, len(f.feas))
	for c, nodes := range f.feas {
		for _, n := range nodes {
			dearest[c] = math.Max(dearest[c], math.Ceil(f.cost[n][c]))
		}
	}
	end := float64(arrivals[len(arrivals)-1].At)
	for i, a := range arrivals {
		if i > 0 && a.At < arrivals[i-1].At {
			return 0, fmt.Errorf("sim: arrivals not sorted at index %d", i)
		}
		if a.Class < 0 || a.Class >= len(f.feas) || len(f.feas[a.Class]) == 0 {
			return 0, fmt.Errorf("sim: no node can evaluate class %d", a.Class)
		}
		end += dearest[a.Class] + float64(f.cfg.PeriodMs)
	}
	return desim.Time(end), nil
}

// waiting reports the queries still outstanding at the bound, per class.
func (f *Federation) waiting(end desim.Time) error {
	counts := make([]int, len(f.feas))
	for _, q := range f.retry {
		counts[q.Class]++
	}
	for _, ns := range f.nodes {
		if ns.running != nil {
			counts[ns.running.q.Class]++
		}
		for _, j := range ns.queue[ns.head:] {
			counts[j.q.Class]++
		}
	}
	var classes []string
	for c, n := range counts {
		if n > 0 {
			classes = append(classes, fmt.Sprintf("class %d: %d", c, n))
		}
	}
	return fmt.Errorf("sim: %s: %d queries still waiting at the bound of %d ms (%s)",
		f.mech.Name(), f.outstanding, end, strings.Join(classes, ", "))
}

// startPeriodClock drives the mechanism's period lifecycle. The clock
// ticks for as long as any query is outstanding, so the event queue
// drains once the last one completes.
func (f *Federation) startPeriodClock() {
	p, periodic := f.mech.(alloc.Periodic)
	if periodic {
		p.OnPeriodStart(view{f})
	}
	f.eng.Every(desim.Time(f.cfg.PeriodMs), func(desim.Time) bool {
		if periodic {
			p.OnPeriodEnd(view{f})
			p.OnPeriodStart(view{f})
		}
		f.flushRetries()
		return f.outstanding > 0
	})
}

// flushRetries re-dispatches the queries deferred to this period. The
// drained backing array is kept for the next period's deferrals, so the
// retry churn of an overloaded run stops allocating.
func (f *Federation) flushRetries() {
	pending := f.retry
	f.retry = f.retrySpare[:0]
	for _, q := range pending {
		f.dispatch(q)
	}
	f.retrySpare = pending[:0]
}

// newJob takes a job from the free list, or builds one with its cached
// completion event on first use.
func (f *Federation) newJob() *job {
	if n := len(f.jobFree); n > 0 {
		j := f.jobFree[n-1]
		f.jobFree[n-1] = nil
		f.jobFree = f.jobFree[:n-1]
		return j
	}
	j := &job{f: f}
	j.done = func(desim.Time) { j.f.complete(j) }
	return j
}

// dispatch runs one allocation round for the query and queues it on the
// chosen node, starting it there if the node is idle.
func (f *Federation) dispatch(q alloc.Query) {
	d := f.mech.Assign(q, view{f})
	if d.Retry {
		q.Resubmits++
		f.retry = append(f.retry, q)
		return
	}
	if d.Node < 0 || d.Node >= len(f.nodes) {
		panic(fmt.Sprintf("sim: mechanism %s chose invalid node %d", f.mech.Name(), d.Node))
	}
	cost := f.cost[d.Node][q.Class]
	if math.IsInf(cost, 1) {
		panic(fmt.Sprintf("sim: mechanism %s sent class %d to incapable node %d", f.mech.Name(), q.Class, d.Node))
	}
	j := f.newJob()
	j.q, j.node, j.costMs = q, d.Node, cost
	ns := f.nodes[d.Node]
	ns.pendingMs += cost
	ns.queue = append(ns.queue, j)
	if ns.running == nil {
		f.startNext(d.Node)
	}
}

// startNext begins the node's next queued job.
func (f *Federation) startNext(node int) {
	ns := f.nodes[node]
	if ns.head == len(ns.queue) {
		ns.queue = ns.queue[:0]
		ns.head = 0
		ns.running = nil
		return
	}
	j := ns.queue[ns.head]
	ns.queue[ns.head] = nil
	ns.head++
	ns.running = j
	now := int64(f.eng.Now())
	ns.runStart = now
	j.startMs = now
	dur := int64(math.Ceil(j.costMs))
	if dur < 1 {
		dur = 1
	}
	f.eng.After(desim.Time(dur), j.done)
}

// complete records the finished job, recycles it, and starts the node's
// next one.
func (f *Federation) complete(j *job) {
	node := j.node
	ns := f.nodes[node]
	ns.pendingMs -= j.costMs
	if ns.pendingMs < 0 {
		ns.pendingMs = 0
	}
	now := int64(f.eng.Now())
	f.col.Add(metrics.Sample{
		Class:      j.q.Class,
		Origin:     j.q.Origin,
		Node:       node,
		ArrivalMs:  j.q.Arrival,
		StartMs:    j.startMs,
		FinishMs:   now,
		Resubmits:  j.q.Resubmits,
		ExecutedMs: now - j.startMs,
	})
	ns.running = nil
	f.jobFree = append(f.jobFree, j)
	f.outstanding--
	f.startNext(node)
}
