package alloc_test

import (
	"math/rand"
	"testing"

	"github.com/qamarket/qamarket/internal/alloc"
	"github.com/qamarket/qamarket/internal/catalog"
	"github.com/qamarket/qamarket/internal/costmodel"
	"github.com/qamarket/qamarket/internal/market"
	"github.com/qamarket/qamarket/internal/sim"
	"github.com/qamarket/qamarket/internal/workload"
)

// recorder logs every decision of the mechanism it wraps, forwarding
// the period clock when the mechanism keeps one.
type recorder struct {
	alloc.Mechanism
	got []alloc.Decision
}

func (r *recorder) Assign(q alloc.Query, v alloc.View) alloc.Decision {
	d := r.Mechanism.Assign(q, v)
	r.got = append(r.got, d)
	return d
}

func (r *recorder) OnPeriodStart(v alloc.View) {
	if p, ok := r.Mechanism.(alloc.Periodic); ok {
		p.OnPeriodStart(v)
	}
}

func (r *recorder) OnPeriodEnd(v alloc.View) {
	if p, ok := r.Mechanism.(alloc.Periodic); ok {
		p.OnPeriodEnd(v)
	}
}

// TestGreedyIsQANTWithoutSellers states that Greedy is QA-NT's buyer
// over servers that always offer: a QA-NT run in which no node adopts
// the market (an empty Adopters map) sends every query of a seeded,
// overloaded simulation to the node Greedy sends it to.
func TestGreedyIsQANTWithoutSellers(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	p := catalog.Table3()
	p.Nodes = 12
	p.Relations = 40
	p.HashJoinNodes = 11
	cat, err := catalog.Generate(p, rng)
	if err != nil {
		t.Fatal(err)
	}
	for _, n := range cat.Nodes {
		n.Holds[0] = true
		delete(n.Holds, 1)
	}
	for _, n := range cat.Nodes[:6] {
		n.Holds[1] = true
	}
	ts := []costmodel.Template{
		{Class: 0, Relations: []int{0}, Selectivity: 1, Sort: true},
		{Class: 1, Relations: []int{1}, Selectivity: 1, Sort: true},
	}
	model := costmodel.New(cat)
	for i, target := range []float64{1000, 500} {
		best, _ := model.EstimateBest(ts[i])
		ts[i].CostScale = target / best
	}
	peak := 1.5 * sim.EstimateCapacity(cat, ts, []float64{2, 1}) * 3.1416
	arrivals := append(
		workload.Sinusoid{Class: 0, Origin: -1, OriginCount: 12, Freq: 0.05,
			PeakRate: peak * 2 / 3, Duration: 20000}.Generate(rng),
		workload.Sinusoid{Class: 1, Origin: -1, OriginCount: 12, Freq: 0.05,
			PeakRate: peak / 3, PhaseDeg: 900, Duration: 20000}.Generate(rng)...)
	workload.Sort(arrivals)

	run := func(m alloc.Mechanism) []alloc.Decision {
		rec := &recorder{Mechanism: m}
		fed, err := sim.New(sim.Config{Catalog: cat, Templates: ts, PeriodMs: 500}, rec)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := fed.Run(arrivals); err != nil {
			t.Fatal(err)
		}
		return rec.got
	}
	qant := alloc.NewQANT(market.DefaultConfig(2))
	qant.Adopters = map[int]bool{}
	want, got := run(alloc.NewGreedy()), run(qant)
	if len(want) < len(arrivals) {
		t.Fatalf("greedy made %d decisions for %d arrivals", len(want), len(arrivals))
	}
	if len(got) != len(want) {
		t.Fatalf("qa-nt without sellers made %d decisions, greedy %d", len(got), len(want))
	}
	nodes := map[int]bool{}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("decision %d: qa-nt without sellers %+v, greedy %+v", i, got[i], want[i])
		}
		nodes[want[i].Node] = true
	}
	if len(nodes) < 2 {
		t.Fatalf("every query went to one node %v: the run never tested a ranking", nodes)
	}
}
