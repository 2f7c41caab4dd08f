package sim

import (
	"math/rand"
	"testing"

	"github.com/qamarket/qamarket/internal/alloc"
	"github.com/qamarket/qamarket/internal/catalog"
	"github.com/qamarket/qamarket/internal/costmodel"
	"github.com/qamarket/qamarket/internal/market"
	"github.com/qamarket/qamarket/internal/workload"
)

// twoClassFixture builds a small heterogeneous federation with two query
// classes echoing the first experiment set: Q0 evaluable everywhere,
// Q1 only on half the nodes.
func twoClassFixture(t *testing.T, nodes int) (*catalog.Catalog, []costmodel.Template) {
	t.Helper()
	rng := rand.New(rand.NewSource(7))
	p := catalog.Table3()
	p.Nodes = nodes
	p.Relations = 40
	p.HashJoinNodes = nodes * 95 / 100
	if p.AvgMirrors > nodes {
		p.AvgMirrors = nodes
	}
	cat, err := catalog.Generate(p, rng)
	if err != nil {
		t.Fatalf("catalog: %v", err)
	}
	// Class 0: relation 0 mirrored on every node; class 1: relation 1 on
	// the first half only.
	for _, n := range cat.Nodes {
		n.Holds[0] = true
		delete(n.Holds, 1)
	}
	for _, n := range cat.Nodes[:nodes/2] {
		n.Holds[1] = true
	}
	ts := []costmodel.Template{
		{Class: 0, Relations: []int{0}, Selectivity: 1, Sort: true},
		{Class: 1, Relations: []int{1}, Selectivity: 1, Sort: true},
	}
	model := costmodel.New(cat)
	// Calibrate class costs near the paper's Q1=1000ms, Q2=500ms.
	for i, target := range []float64{1000, 500} {
		best, _ := model.EstimateBest(ts[i])
		ts[i].CostScale = target / best
	}
	return cat, ts
}

func runMechanism(t *testing.T, cat *catalog.Catalog, ts []costmodel.Template, mech alloc.Mechanism, arrivals []workload.Arrival) float64 {
	t.Helper()
	fed, err := New(Config{Catalog: cat, Templates: ts, PeriodMs: 500}, mech)
	if err != nil {
		t.Fatalf("sim.New(%s): %v", mech.Name(), err)
	}
	col, err := fed.Run(arrivals)
	if err != nil {
		t.Fatalf("run %s: %v", mech.Name(), err)
	}
	sum := col.Summarize()
	if sum.Completed != len(arrivals) {
		t.Fatalf("%s: %d of %d arrivals completed", mech.Name(), sum.Completed, len(arrivals))
	}
	t.Logf("%-18s mean=%8.1fms completed=%d", mech.Name(), sum.MeanRespMs, sum.Completed)
	return sum.MeanRespMs
}

// TestSmokeOverloadOrdering checks the headline qualitative result: under
// a sinusoid overload, QA-NT and Greedy beat the load balancers, and
// QA-NT is not worse than Greedy.
func TestSmokeOverloadOrdering(t *testing.T) {
	cat, ts := twoClassFixture(t, 20)
	capacity := EstimateCapacity(cat, ts, []float64{2, 1})
	if capacity <= 0 {
		t.Fatalf("capacity estimate is %v", capacity)
	}
	gen := func(seed int64) []workload.Arrival {
		rng := rand.New(rand.NewSource(seed))
		s1 := workload.Sinusoid{Class: 0, Origin: -1, OriginCount: 20, Freq: 0.05,
			PeakRate: capacity * 3.0 * 2 / 3, PhaseDeg: 0, Duration: 40000}
		s2 := workload.Sinusoid{Class: 1, Origin: -1, OriginCount: 20, Freq: 0.05,
			PeakRate: capacity * 3.0 * 1 / 3, PhaseDeg: 900, Duration: 40000}
		as := append(s1.Generate(rng), s2.Generate(rng)...)
		workload.Sort(as)
		return as
	}
	arrivals := gen(42)
	if len(arrivals) < 100 {
		t.Fatalf("workload too small: %d arrivals", len(arrivals))
	}

	qant := runMechanism(t, cat, ts, alloc.NewQANT(market.DefaultConfig(2)), arrivals)
	greedy := runMechanism(t, cat, ts, alloc.NewGreedy(), arrivals)
	random := runMechanism(t, cat, ts, alloc.NewRandom(rand.New(rand.NewSource(1))), arrivals)
	rr := runMechanism(t, cat, ts, alloc.NewRoundRobin(), arrivals)
	bnqrd := runMechanism(t, cat, ts, alloc.NewBNQRD(), arrivals)
	probes := runMechanism(t, cat, ts, alloc.NewTwoRandomProbes(rand.New(rand.NewSource(2))), arrivals)

	for name, v := range map[string]float64{"random": random, "round-robin": rr, "bnqrd": bnqrd, "two-probes": probes} {
		if qant >= v {
			t.Errorf("QA-NT (%.0fms) should beat %s (%.0fms) under overload", qant, name, v)
		}
	}
	if qant > greedy*1.25 {
		t.Errorf("QA-NT (%.0fms) should be competitive with Greedy (%.0fms)", qant, greedy)
	}
}
