// Package sim rebuilds the paper's federation simulator (Section 5.1):
// a discrete-event model of up to hundreds of autonomous RDBMSs, each
// executing queries sequentially from a local queue, with a pluggable
// allocation mechanism deciding which node runs each incoming query.
package sim

import (
	"errors"
	"fmt"
	"math"

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
	// NetworkLatencyMs is added between assignment and execution start,
	// modeling the allocation round-trip. Default 0 (the paper's
	// simulator measures execution, not messaging).
	NetworkLatencyMs int64
	// MaxResubmits drops a query after this many deferred periods
	// (guards against queries no node will ever take). Default 10,000.
	MaxResubmits int
	// HardCapMs aborts the run if the virtual clock passes it, as a
	// backstop against runaway retry loops. Default: last arrival +
	// 10 minutes of virtual time.
	HardCapMs int64
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
	if c.MaxResubmits == 0 {
		c.MaxResubmits = 10000
	}
	return nil
}

// job is one query instance flowing through the simulator. Jobs are
// recycled through the federation's free list once they complete, and
// each job caches its completion event so steady-state execution
// schedules without allocating closures.
type job struct {
	q        alloc.Query
	node     int
	costMs   float64
	startMs  int64
	assignMs int64
	f        *Federation
	done     desim.Event // fires f.complete(job); built once per job object
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
	periodOn    bool
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
// collected metrics once every query has completed, been dropped, or
// the hard cap was hit. Arrivals must be sorted by time.
func (f *Federation) Run(arrivals []workload.Arrival) (*metrics.Collector, error) {
	if len(arrivals) == 0 {
		return &f.col, nil
	}
	for i := 1; i < len(arrivals); i++ {
		if arrivals[i].At < arrivals[i-1].At {
			return nil, fmt.Errorf("sim: arrivals not sorted at index %d", i)
		}
	}
	if f.cfg.HardCapMs == 0 {
		f.cfg.HardCapMs = arrivals[len(arrivals)-1].At + 10*60*1000
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
	f.eng.Run()
	// Anything still queued or retrying at the hard cap is dropped.
	for f.outstanding > 0 {
		f.col.Drop()
		f.outstanding--
	}
	return &f.col, nil
}

// startPeriodClock drives the mechanism's period lifecycle. The clock
// re-arms itself only while work remains, so the event queue drains and
// Run terminates.
func (f *Federation) startPeriodClock() {
	if _, ok := f.mech.(alloc.Periodic); ok {
		f.periodOn = true
	}
	if f.periodOn {
		f.mech.(alloc.Periodic).OnPeriodStart(view{f})
	}
	var tick func(now desim.Time)
	tick = func(now desim.Time) {
		if f.periodOn {
			p := f.mech.(alloc.Periodic)
			p.OnPeriodEnd(view{f})
			p.OnPeriodStart(view{f})
		}
		f.flushRetries()
		if f.outstanding > 0 && int64(now) < f.cfg.HardCapMs {
			f.eng.After(desim.Time(f.cfg.PeriodMs), tick)
		}
	}
	f.eng.After(desim.Time(f.cfg.PeriodMs), tick)
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

// dispatch runs one allocation round for the query.
func (f *Federation) dispatch(q alloc.Query) {
	d := f.mech.Assign(q, view{f})
	if d.Retry {
		q.Resubmits++
		if q.Resubmits > f.cfg.MaxResubmits {
			f.col.Drop()
			f.outstanding--
			return
		}
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
	j.q, j.node, j.costMs, j.assignMs = q, d.Node, cost, f.cfg.NetworkLatencyMs
	if f.cfg.NetworkLatencyMs > 0 {
		f.eng.After(desim.Time(f.cfg.NetworkLatencyMs), func(desim.Time) { f.enqueue(j) })
	} else {
		f.enqueue(j)
	}
}

// enqueue places the job on its node and starts it if the node is idle.
func (f *Federation) enqueue(j *job) {
	ns := f.nodes[j.node]
	ns.pendingMs += j.costMs
	ns.queue = append(ns.queue, j)
	if ns.running == nil {
		f.startNext(j.node)
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
		AssignMs:   j.assignMs,
		Resubmits:  j.q.Resubmits,
		ExecutedMs: now - j.startMs,
	})
	ns.running = nil
	f.jobFree = append(f.jobFree, j)
	f.outstanding--
	f.startNext(node)
}
