// Command qasim runs one federation-simulator experiment with a chosen
// allocation mechanism and workload, printing the response-time summary.
//
// Examples:
//
//	qasim -mechanism qa-nt -workload sinusoid -load 1.5
//	qasim -mechanism greedy -workload zipf -gap 1000 -queries 5000
//	qasim -compare -workload sinusoid -load 2.0
package main

import (
	"flag"
	"fmt"
	"math/rand"
	"os"

	"github.com/qamarket/qamarket/internal/alloc"
	"github.com/qamarket/qamarket/internal/catalog"
	"github.com/qamarket/qamarket/internal/costmodel"
	"github.com/qamarket/qamarket/internal/market"
	"github.com/qamarket/qamarket/internal/metrics"
	"github.com/qamarket/qamarket/internal/sim"
	"github.com/qamarket/qamarket/internal/workload"
)

func main() {
	var (
		mechName  = flag.String("mechanism", "qa-nt", "qa-nt | greedy | random | round-robin | bnqrd | two-random-probes")
		compare   = flag.Bool("compare", false, "run every mechanism on the same workload")
		wl        = flag.String("workload", "sinusoid", "sinusoid | zipf")
		nodes     = flag.Int("nodes", 100, "federation size")
		relations = flag.Int("relations", 1000, "catalog size")
		classes   = flag.Int("classes", 100, "query classes (zipf workload)")
		queries   = flag.Int("queries", 10000, "queries (zipf workload)")
		gap       = flag.Float64("gap", 1000, "mean inter-arrival ms per class (zipf workload)")
		load      = flag.Float64("load", 1.0, "average load as a fraction of capacity (sinusoid workload)")
		freq      = flag.Float64("freq", 0.05, "sinusoid frequency in Hz")
		duration  = flag.Int("duration", 60, "sinusoid duration in seconds")
		period    = flag.Int64("period", 500, "allocation period T in ms")
		seed      = flag.Int64("seed", 1, "RNG seed")
		saveTrace = flag.String("save-trace", "", "write the generated arrival stream to this CSV and exit")
		replay    = flag.String("replay", "", "replay a CSV arrival trace instead of generating one")
	)
	flag.Parse()

	rng := rand.New(rand.NewSource(*seed))
	p := catalog.Table3()
	p.Nodes = *nodes
	p.Relations = *relations
	p.HashJoinNodes = *nodes * 95 / 100
	cat, err := catalog.Generate(p, rng)
	if err != nil {
		die(err)
	}
	model := costmodel.New(cat)

	var templates []costmodel.Template
	var arrivals []workload.Arrival
	switch *wl {
	case "zipf":
		tp := workload.Table3Templates()
		tp.Classes = *classes
		templates, err = workload.GenerateTemplates(cat, model, tp, rng)
		if err != nil {
			die(err)
		}
		z := workload.Zipf{
			Classes: *classes, NumQueries: *queries, A: 1,
			MeanGapMs: *gap, MaxGapMs: 30000, OriginCount: *nodes,
		}
		arrivals, err = z.Generate(rng)
		if err != nil {
			die(err)
		}
	case "sinusoid":
		// Two-class setup of the first experiment set: Q1 everywhere,
		// Q2 on half the nodes.
		for _, n := range cat.Nodes {
			n.Holds[0] = true
			delete(n.Holds, 1)
		}
		for _, n := range cat.Nodes[:*nodes/2] {
			n.Holds[1] = true
		}
		templates = []costmodel.Template{
			{Class: 0, Relations: []int{0}, Selectivity: 1, Sort: true},
			{Class: 1, Relations: []int{1}, Selectivity: 1, Sort: true},
		}
		for i, target := range []float64{1000, 500} {
			best, _ := model.EstimateBest(templates[i])
			templates[i].CostScale = target / best
		}
		capacity := sim.EstimateCapacity(cat, templates, []float64{2, 1})
		fmt.Printf("estimated capacity: %.1f queries/s for the 2:1 blend\n", capacity)
		peak := *load * capacity * 3.1416
		s1 := workload.Sinusoid{Class: 0, Origin: -1, OriginCount: *nodes, Freq: *freq,
			PeakRate: peak * 2 / 3, Duration: int64(*duration) * 1000}
		s2 := workload.Sinusoid{Class: 1, Origin: -1, OriginCount: *nodes, Freq: *freq,
			PeakRate: peak / 3, PhaseDeg: 900, Duration: int64(*duration) * 1000}
		arrivals = append(s1.Generate(rng), s2.Generate(rng)...)
		workload.Sort(arrivals)
	default:
		die(fmt.Errorf("unknown workload %q", *wl))
	}
	if *replay != "" {
		arrivals, err = workload.LoadTrace(*replay)
		if err != nil {
			die(err)
		}
		workload.Sort(arrivals)
		fmt.Printf("replaying %d arrivals from %s\n", len(arrivals), *replay)
	}
	if *saveTrace != "" {
		if err := workload.SaveTrace(*saveTrace, arrivals); err != nil {
			die(err)
		}
		fmt.Printf("wrote %d arrivals to %s\n", len(arrivals), *saveTrace)
		return
	}
	fmt.Printf("workload: %d queries over %d nodes\n", len(arrivals), *nodes)

	names := []string{*mechName}
	if *compare {
		names = []string{"qa-nt", "greedy", "random", "round-robin", "bnqrd", "two-random-probes"}
	}
	for _, name := range names {
		mech := buildMechanism(name, *seed)
		if mech == nil {
			die(fmt.Errorf("unknown mechanism %q", name))
		}
		fed, err := sim.New(sim.Config{Catalog: cat, Templates: templates, PeriodMs: *period}, mech)
		if err != nil {
			die(err)
		}
		col, err := fed.Run(arrivals)
		if err != nil {
			die(err)
		}
		printSummary(name, col.Summarize())
	}
}

func buildMechanism(name string, seed int64) alloc.Mechanism {
	switch name {
	case "qa-nt":
		return alloc.NewQANT(market.DefaultConfig(1))
	case "greedy":
		return alloc.NewGreedy()
	case "random":
		return alloc.NewRandom(rand.New(rand.NewSource(seed)))
	case "round-robin":
		return alloc.NewRoundRobin()
	case "bnqrd":
		return alloc.NewBNQRD()
	case "two-random-probes":
		return alloc.NewTwoRandomProbes(rand.New(rand.NewSource(seed + 1)))
	default:
		return nil
	}
}

func printSummary(name string, s metrics.Summary) {
	fmt.Printf("%-18s mean=%8.1fms median=%8.1fms p95=%8.1fms max=%6dms done=%d dropped=%d resubmits/q=%.2f\n",
		name, s.MeanRespMs, s.MedianMs, s.P95Ms, s.MaxMs, s.Completed, s.Dropped, s.MeanResub)
}

func die(err error) {
	fmt.Fprintln(os.Stderr, "qasim:", err)
	os.Exit(1)
}
