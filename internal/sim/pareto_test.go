package sim

import (
	"math"
	"testing"

	"github.com/qamarket/qamarket/internal/alloc"
	"github.com/qamarket/qamarket/internal/catalog"
	"github.com/qamarket/qamarket/internal/costmodel"
	"github.com/qamarket/qamarket/internal/economics"
	"github.com/qamarket/qamarket/internal/market"
	"github.com/qamarket/qamarket/internal/metrics"
	"github.com/qamarket/qamarket/internal/vector"
	"github.com/qamarket/qamarket/internal/workload"
)

// figure1Costs are the paper's exact per-node execution times.
var figure1Costs = [][]float64{
	{400, 100}, // N1: q1, q2
	{450, 500}, // N2
}

// figure1System builds a two-node federation with the exact Figure 1
// costs via the simulator's cost override.
func figure1System(t *testing.T, mech alloc.Mechanism) *Federation {
	t.Helper()
	cat := &catalog.Catalog{
		Relations: []catalog.Relation{{ID: 0, SizeMB: 10, Attrs: 10}, {ID: 1, SizeMB: 10, Attrs: 10}},
		Nodes: []*catalog.Node{
			{ID: 0, CPUGHz: 2, IOMBps: 40, BufferMB: 8, HashJoin: true, Holds: map[int]bool{0: true, 1: true}},
			{ID: 1, CPUGHz: 2, IOMBps: 40, BufferMB: 8, HashJoin: true, Holds: map[int]bool{0: true, 1: true}},
		},
	}
	ts := []costmodel.Template{
		{Class: 0, Relations: []int{0}, Selectivity: 1},
		{Class: 1, Relations: []int{1}, Selectivity: 1},
	}
	fed, err := New(Config{
		Catalog: cat, Templates: ts, PeriodMs: 500,
		CostOverride: figure1Costs,
	}, mech)
	if err != nil {
		t.Fatal(err)
	}
	return fed
}

// TestQANTConvergesToParetoOptimalPeriods is the end-to-end version of
// the paper's FTWE claim: run QA-NT on the exact Figure 1 system under
// the paper's steady overload (2×q1 + 6×q2 per 500 ms period), extract
// the realized per-period supply profile once prices have settled, and
// verify with the brute-force economics checker that the profile is
// Pareto optimal for the per-period demand in most settled periods —
// with pricing always active, and under the Section 5.1 activation
// threshold the real-federation harnesses run (the sellers start
// inactive and the overload's refusals activate them).
func TestQANTConvergesToParetoOptimalPeriods(t *testing.T) {
	for name, threshold := range paretoRegimes {
		t.Run(name, func(t *testing.T) {
			cfg := market.DefaultConfig(2)
			cfg.Lambda = 0.05 // finer steps estimate equilibrium prices better (eq. 6)
			cfg.ActivationThreshold = threshold
			mech := alloc.NewQANT(cfg)
			fed := figure1System(t, mech)
			const periods = 60
			col, err := fed.Run(figure1Overload(periods, 0))
			if err != nil {
				t.Fatal(err)
			}
			if !mech.Agents()[0].Active() {
				t.Fatal("the overload never activated N1's pricing")
			}
			checkSettledPeriodsPareto(t, col, periods/2, periods-5)
		})
	}
}

// paretoRegimes are the two ways a seller is run: market.DefaultConfig's
// always-active pricing and the paper's Section 5.1 threshold.
var paretoRegimes = map[string]float64{"always-active": 0, "threshold-2.0": 2.0}

// TestLearningSellersConvergeToParetoOptimalPeriods runs the same claim
// over the code path only the TCP server used to have: each node's
// seller starts knowing one class (q2, under a private class index that
// differs from the workload's), meets q1 only after a few periods and
// takes it in through Seller.AddClass mid-period, at an estimate a
// third too high that Seller.Recost later corrects — a real node's
// class discovery and plan-history refinement. Growing and re-costing
// the market in flight must not cost it its equilibrium.
func TestLearningSellersConvergeToParetoOptimalPeriods(t *testing.T) {
	for name, threshold := range paretoRegimes {
		t.Run(name, func(t *testing.T) {
			cfg := market.DefaultConfig(1)
			cfg.Lambda = 0.05
			cfg.ActivationThreshold = threshold
			mech := &learningQANT{cfg: cfg}
			fed := figure1System(t, mech)
			const periods, q1From = 70, 4
			col, err := fed.Run(figure1Overload(periods, q1From))
			if err != nil {
				t.Fatal(err)
			}
			for n, s := range mech.sellers {
				if got := len(s.Agent().Prices()); got != 2 {
					t.Fatalf("node %d ended with %d classes, want 2 (q1 learned through AddClass)", n, got)
				}
				if s.Cost(1) != figure1Costs[n][0] {
					t.Fatalf("node %d: q1 estimate %g was never corrected to %g", n, s.Cost(1), figure1Costs[n][0])
				}
				if st := s.Agent().Stats(); st.Periods < periods {
					t.Fatalf("node %d: lifetime counters lost across growth: %+v", n, st)
				}
			}
			if !mech.sellers[0].Agent().Active() {
				t.Fatal("the overload never activated N1's pricing")
			}
			checkSettledPeriodsPareto(t, col, periods/2, periods-5)
		})
	}
}

// learningQANT is QA-NT over sellers that discover their classes the
// way a cluster node does. Local class 0 is the workload's q2; q1
// becomes local class 1 when a node first sees it.
type learningQANT struct {
	cfg     market.Config
	sellers []*market.Seller
	local   []map[int]int // per node: workload class -> the seller's class index
	seenQ1  []int         // per node: q1 requests seen, for the estimate correction
}

func (m *learningQANT) Name() string         { return "qa-nt-learning" }
func (m *learningQANT) Traits() alloc.Traits { return alloc.NewQANT(m.cfg).Traits() }

func (m *learningQANT) OnPeriodStart(v alloc.View) {
	if m.sellers == nil {
		for n := 0; n < v.NumNodes(); n++ {
			s, err := market.NewSeller(m.cfg, float64(v.PeriodMs()), []float64{v.Cost(n, 1)})
			if err != nil {
				panic(err)
			}
			m.sellers = append(m.sellers, s)
			m.local = append(m.local, map[int]int{1: 0})
		}
		m.seenQ1 = make([]int, v.NumNodes())
	}
	for _, s := range m.sellers {
		s.BeginPeriod()
	}
}

func (m *learningQANT) OnPeriodEnd(alloc.View) {
	for _, s := range m.sellers {
		s.EndPeriod()
	}
}

// classAt is the node-side classification of an incoming request: the
// pricer's observe, with the drift policy replaced by a script.
func (m *learningQANT) classAt(n, class int, v alloc.View) int {
	k, known := m.local[n][class]
	if !known {
		k = m.sellers[n].AddClass(v.Cost(n, class) * 4 / 3) // EXPLAIN overshoots
		m.local[n][class] = k
	}
	if class == 0 {
		if m.seenQ1[n]++; m.seenQ1[n] == 5 {
			m.sellers[n].Recost(k, v.Cost(n, class)) // execution history corrects it
		}
	}
	return k
}

func (m *learningQANT) Assign(q alloc.Query, v alloc.View) alloc.Decision {
	if m.sellers == nil {
		m.OnPeriodStart(v)
	}
	best, bestFinish := -1, math.Inf(1)
	for _, n := range v.FeasibleNodes(q.Class) {
		if !m.sellers[n].Offer(m.classAt(n, q.Class, v)) {
			continue
		}
		if f := v.Backlog(n) + v.Cost(n, q.Class); f < bestFinish {
			best, bestFinish = n, f
		}
	}
	if best < 0 {
		return alloc.Decision{Retry: true}
	}
	if err := m.sellers[best].Accept(m.local[best][q.Class]); err != nil {
		panic(err)
	}
	return alloc.Decision{Node: best}
}

// figure1Overload is the paper's steady overload, 2×q1 + 6×q2 per
// 500 ms period for the given number of periods; q1 is withheld before
// period q1From.
func figure1Overload(periods, q1From int64) []workload.Arrival {
	var arrivals []workload.Arrival
	for p := int64(0); p < periods; p++ {
		at := p * 500
		for i := 0; i < 2 && p >= q1From; i++ {
			arrivals = append(arrivals, workload.Arrival{At: at, Class: 0, Origin: 0})
		}
		for i := 0; i < 6; i++ {
			arrivals = append(arrivals, workload.Arrival{At: at, Class: 1, Origin: 0})
		}
	}
	return arrivals
}

// checkSettledPeriodsPareto extracts the realized per-period supply
// profile of periods [from, to) and requires most of them to be Pareto
// optimal for the per-period demand, by brute force.
func checkSettledPeriodsPareto(t *testing.T, col *metrics.Collector, from, to int) {
	t.Helper()
	type key struct{ period, node int }
	startedAt := map[key]vector.Quantity{}
	for _, s := range col.Samples() {
		p := int(s.StartMs / 500)
		k := key{p, s.Node}
		if startedAt[k] == nil {
			startedAt[k] = vector.New(2)
		}
		startedAt[k][s.Class]++
	}
	demand := []vector.Quantity{{2, 6}}
	sets := []economics.EnumerableSupplySet{
		economics.TimeBudgetSupplySet{Cost: figure1Costs[0], Budget: 500},
		economics.TimeBudgetSupplySet{Cost: figure1Costs[1], Budget: 500},
	}
	prefs := []economics.Preference{economics.ThroughputPreference}

	optimal, checked := 0, 0
	for p := from; p < to; p++ {
		s0 := startedAt[key{p, 0}]
		s1 := startedAt[key{p, 1}]
		if s0 == nil {
			s0 = vector.New(2)
		}
		if s1 == nil {
			s1 = vector.New(2)
		}
		agg := s0.Add(s1)
		if agg.Total() == 0 {
			continue
		}
		// Carry-over can make a single realized period slightly exceed
		// the abstract 500 ms budget; only Pareto-compare clean periods.
		if !sets[0].Feasible(s0) || !sets[1].Feasible(s1) {
			continue
		}
		checked++
		allocn := economics.Allocation{
			Supply:      []vector.Quantity{s0, s1},
			Consumption: []vector.Quantity{agg},
		}
		if economics.IsParetoOptimal(allocn, demand, sets, prefs) {
			optimal++
		}
	}
	if checked < 5 {
		t.Fatalf("only %d settled periods to check", checked)
	}
	if optimal*2 < checked {
		t.Errorf("only %d of %d settled periods Pareto optimal", optimal, checked)
	}
	t.Logf("%d/%d settled periods Pareto optimal", optimal, checked)
}

// TestFigure1ThroughputOrdering replays the motivating example through
// the full simulator: under the Figure 1 demand, QA-NT's steady-state
// throughput must beat BNQRD's (the paper's LB).
func TestFigure1ThroughputOrdering(t *testing.T) {
	run := func(mech alloc.Mechanism) int {
		fed := figure1System(t, mech)
		var arrivals []workload.Arrival
		for p := int64(0); p < 40; p++ {
			at := p * 500
			for i := 0; i < 2; i++ {
				arrivals = append(arrivals, workload.Arrival{At: at, Class: 0})
			}
			for i := 0; i < 6; i++ {
				arrivals = append(arrivals, workload.Arrival{At: at, Class: 1})
			}
		}
		col, err := fed.Run(arrivals)
		if err != nil {
			t.Fatal(err)
		}
		// Throughput within the arrival horizon (20 s): completed
		// queries that finished inside it.
		done := 0
		for _, s := range col.Samples() {
			if s.FinishMs <= 40*500 {
				done++
			}
		}
		return done
	}
	qant := run(alloc.NewQANT(market.DefaultConfig(2)))
	lb := run(alloc.NewBNQRD())
	t.Logf("throughput within horizon: qa-nt %d, bnqrd %d", qant, lb)
	if qant <= lb {
		t.Errorf("QA-NT throughput %d not above load balancer's %d", qant, lb)
	}
}
