// Overloadsim: the paper's headline result on the simulator.
//
// It builds a 24-node heterogeneous federation with the two-class
// workload of Section 5.1 (Q1 ≈ 1000 ms everywhere, Q2 ≈ 500 ms on
// half the nodes), drives it with a 0.05 Hz sinusoid at twice the
// system capacity, and compares every allocation mechanism. Expect the
// Figure 4 ordering: QA-NT best under overload, Greedy close, the
// load balancers far behind.
package main

import (
	"fmt"
	"log"
	"math/rand"
	"sort"

	"github.com/qamarket/qamarket/internal/alloc"
	"github.com/qamarket/qamarket/internal/catalog"
	"github.com/qamarket/qamarket/internal/costmodel"
	"github.com/qamarket/qamarket/internal/market"
	"github.com/qamarket/qamarket/internal/sim"
	"github.com/qamarket/qamarket/internal/workload"
)

func main() {
	const nodes = 24
	rng := rand.New(rand.NewSource(7))
	p := catalog.Table3()
	p.Nodes = nodes
	p.Relations = 60
	p.HashJoinNodes = nodes - 2
	cat, err := catalog.Generate(p, rng)
	if err != nil {
		log.Fatal(err)
	}
	for _, n := range cat.Nodes {
		n.Holds[0] = true
		delete(n.Holds, 1)
	}
	for _, n := range cat.Nodes[:nodes/2] {
		n.Holds[1] = true
	}
	templates := []costmodel.Template{
		{Class: 0, Relations: []int{0}, Selectivity: 1, Sort: true},
		{Class: 1, Relations: []int{1}, Selectivity: 1, Sort: true},
	}
	model := costmodel.New(cat)
	for i, target := range []float64{1000, 500} {
		best, _ := model.EstimateBest(templates[i])
		templates[i].CostScale = target / best
	}

	capacity := sim.EstimateCapacity(cat, templates, []float64{2, 1})
	fmt.Printf("federation capacity: %.1f queries/s\n", capacity)

	peak := 2.0 * capacity * 3.1416 // 2x average overload
	s1 := workload.Sinusoid{Class: 0, Origin: -1, OriginCount: nodes, Freq: 0.05,
		PeakRate: peak * 2 / 3, Duration: 40000}
	s2 := workload.Sinusoid{Class: 1, Origin: -1, OriginCount: nodes, Freq: 0.05,
		PeakRate: peak / 3, PhaseDeg: 900, Duration: 40000}
	arrivals := append(s1.Generate(rng), s2.Generate(rng)...)
	workload.Sort(arrivals)
	fmt.Printf("workload: %d queries over 40 s (2x capacity at the average)\n\n", len(arrivals))

	mechs := map[string]alloc.Mechanism{
		"qa-nt":             alloc.NewQANT(market.DefaultConfig(2)),
		"greedy":            alloc.NewGreedy(),
		"random":            alloc.NewRandom(rand.New(rand.NewSource(1))),
		"round-robin":       alloc.NewRoundRobin(),
		"bnqrd":             alloc.NewBNQRD(),
		"two-random-probes": alloc.NewTwoRandomProbes(rand.New(rand.NewSource(2))),
	}
	type row struct {
		name string
		mean float64
	}
	var rows []row
	for name, mech := range mechs {
		fed, err := sim.New(sim.Config{Catalog: cat, Templates: templates, PeriodMs: 500}, mech)
		if err != nil {
			log.Fatal(err)
		}
		col, err := fed.Run(arrivals)
		if err != nil {
			log.Fatal(err)
		}
		rows = append(rows, row{name, col.Summarize().MeanRespMs})
	}
	sort.Slice(rows, func(i, j int) bool { return rows[i].mean < rows[j].mean })
	best := rows[0].mean
	for _, r := range rows {
		fmt.Printf("%-18s mean %8.0f ms  (%.2fx best)\n", r.name, r.mean, r.mean/best)
	}
}
