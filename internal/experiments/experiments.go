// Package experiments regenerates every table and figure of the
// paper's evaluation (Section 5). Each FigureN/TableN function runs the
// corresponding experiment on the simulator (or the real TCP cluster
// for Figure 7) and returns the series the paper plots; cmd/qabench
// prints them and EXPERIMENTS.md records paper-vs-measured.
//
// Experiments accept a Scale so tests and benches can run a reduced
// federation quickly while cmd/qabench -paper reproduces the full
// Table 3 setup (100 nodes, 1,000 relations, 10,000 queries).
package experiments

import (
	"fmt"
	"math"
	"math/rand"

	"github.com/qamarket/qamarket/internal/alloc"
	"github.com/qamarket/qamarket/internal/catalog"
	"github.com/qamarket/qamarket/internal/costmodel"
	"github.com/qamarket/qamarket/internal/market"
	"github.com/qamarket/qamarket/internal/metrics"
	"github.com/qamarket/qamarket/internal/sim"
	"github.com/qamarket/qamarket/internal/workload"
)

// Scale sizes an experiment.
type Scale struct {
	Nodes     int   // federation size (paper: 100)
	Relations int   // catalog size (paper: 1,000)
	Queries   int   // Zipf workload size (paper: 10,000)
	Classes   int   // Zipf class universe (paper: 100)
	MaxJoins  int   // joins per query upper bound (paper: 49)
	DurationS int   // sinusoid experiment length in seconds
	Seed      int64 // master RNG seed
	PeriodMs  int64 // allocation period T (paper: 500)
	// Parallel is the worker-pool width used to fan a figure's
	// independent sweep points across goroutines: 0 means GOMAXPROCS,
	// 1 strictly sequential. Any width produces byte-identical series
	// because every sweep point's RNG seed is derived from Seed alone.
	Parallel int
}

// Quick is the reduced scale used by tests and benches (seconds per
// experiment instead of minutes).
func Quick() Scale {
	return Scale{
		Nodes: 24, Relations: 150, Queries: 1200, Classes: 25, MaxJoins: 6,
		DurationS: 40, Seed: 1, PeriodMs: 500,
	}
}

// Paper is the full Table 3 parameterization.
func Paper() Scale {
	return Scale{
		Nodes: 100, Relations: 1000, Queries: 10000, Classes: 100, MaxJoins: 49,
		DurationS: 120, Seed: 1, PeriodMs: 500,
	}
}

// twoClassFixture builds the first experiment set's federation: query
// class Q1 (avg execution 1,000 ms) evaluable on every node, Q2 (500
// ms) evaluable on half of them.
type twoClassFixture struct {
	cat       *catalog.Catalog
	templates []costmodel.Template
	capacity  float64 // queries/second for the Q1:Q2 = 2:1 blend
}

func newTwoClassFixture(s Scale) (*twoClassFixture, error) {
	rng := rand.New(rand.NewSource(s.Seed))
	p := catalog.Table3()
	p.Nodes = s.Nodes
	p.Relations = max(2, s.Relations/10)
	p.HashJoinNodes = s.Nodes * 95 / 100
	cat, err := catalog.Generate(p, rng)
	if err != nil {
		return nil, err
	}
	// Q1's relation (0) everywhere; Q2's relation (1) on half the nodes.
	for _, n := range cat.Nodes {
		n.Holds[0] = true
		delete(n.Holds, 1)
	}
	for _, n := range cat.Nodes[:s.Nodes/2] {
		n.Holds[1] = true
	}
	ts := []costmodel.Template{
		{Class: 0, Relations: []int{0}, Selectivity: 1, Sort: true},
		{Class: 1, Relations: []int{1}, Selectivity: 1, Sort: true},
	}
	model := costmodel.New(cat)
	for i, target := range []float64{1000, 500} {
		sum, n := 0.0, 0
		for _, node := range cat.Nodes {
			if c := model.Estimate(node, ts[i]); !math.IsInf(c, 1) {
				sum += c
				n++
			}
		}
		ts[i].CostScale = target / (sum / float64(n))
	}
	capacity := sim.EstimateCapacity(cat, ts, []float64{2, 1})
	return &twoClassFixture{cat: cat, templates: ts, capacity: capacity}, nil
}

// sinusoidArrivals builds the paper's workload shape: Q1 and Q2
// sinusoids with a 900° phase difference and Q1's peak twice Q2's.
// loadFrac is the *average* system load as a fraction of capacity.
func (f *twoClassFixture) sinusoidArrivals(s Scale, freqHz, loadFrac float64, durationMs int64, rng *rand.Rand) []workload.Arrival {
	// The half-wave rectified sinusoid averages 1/π of its peak; the
	// blend splits 2:1 between Q1 and Q2.
	totalPeak := loadFrac * f.capacity * math.Pi
	q1 := workload.Sinusoid{
		Class: 0, Origin: -1, OriginCount: s.Nodes, Freq: freqHz,
		PeakRate: totalPeak * 2 / 3, PhaseDeg: 0, Duration: durationMs,
	}
	q2 := workload.Sinusoid{
		Class: 1, Origin: -1, OriginCount: s.Nodes, Freq: freqHz,
		PeakRate: totalPeak / 3, PhaseDeg: 900, Duration: durationMs,
	}
	as := append(q1.Generate(rng), q2.Generate(rng)...)
	workload.Sort(as)
	return as
}

// runOne executes one mechanism over the arrivals and returns its
// summary.
func runOne(s Scale, cat *catalog.Catalog, ts []costmodel.Template, mech alloc.Mechanism, arrivals []workload.Arrival) (metrics.Summary, *metrics.Collector, error) {
	fed, err := sim.New(sim.Config{
		Catalog: cat, Templates: ts, PeriodMs: s.PeriodMs,
	}, mech)
	if err != nil {
		return metrics.Summary{}, nil, err
	}
	col, err := fed.Run(arrivals)
	if err != nil {
		return metrics.Summary{}, nil, err
	}
	return col.Summarize(), col, nil
}

// mechanisms returns fresh instances of all six mechanisms, seeded
// deterministically.
func mechanisms(seed int64) map[string]alloc.Mechanism {
	return map[string]alloc.Mechanism{
		"qa-nt":             alloc.NewQANT(market.DefaultConfig(1)),
		"greedy":            alloc.NewGreedy(),
		"random":            alloc.NewRandom(rand.New(rand.NewSource(seed))),
		"round-robin":       alloc.NewRoundRobin(),
		"bnqrd":             alloc.NewBNQRD(),
		"two-random-probes": alloc.NewTwoRandomProbes(rand.New(rand.NewSource(seed + 1))),
	}
}

// mechanismNames lists the mechanisms() keys in deterministic order.
var mechanismNames = []string{
	"bnqrd", "greedy", "qa-nt", "random", "round-robin", "two-random-probes",
}

// ratioSweep powers the Greedy-vs-QA-NT sweep figures: for each of n
// sweep points it runs both mechanisms over that point's arrival stream
// and returns Y[i] = greedy mean / qa-nt mean. Every (point, mechanism)
// pair is an independent task fanned across the worker pool; arrivalsFor
// must be pure (it is invoked once per task, possibly concurrently) and
// must derive any randomness from Scale.Seed so the series are identical
// at every pool width.
func ratioSweep(s Scale, cat *catalog.Catalog, ts []costmodel.Template, n int, arrivalsFor func(i int) ([]workload.Arrival, error)) ([]float64, error) {
	qant := make([]float64, n)
	greedy := make([]float64, n)
	err := forEach(s.workers(), 2*n, func(task int) error {
		i, name, slot := task/2, "qa-nt", qant
		if task%2 == 1 {
			name, slot = "greedy", greedy
		}
		as, err := arrivalsFor(i)
		if err != nil {
			return err
		}
		sum, _, err := runOne(s, cat, ts, mechanisms(s.Seed)[name], as)
		if err != nil {
			return err
		}
		slot[i] = sum.MeanRespMs
		return nil
	})
	if err != nil {
		return nil, err
	}
	ys := make([]float64, n)
	for i := range ys {
		ys[i] = greedy[i] / qant[i]
	}
	return ys, nil
}

// Point is one (x, y) sample of a figure's series.
type Point struct {
	X float64
	Y float64
}

func (p Point) String() string { return fmt.Sprintf("(%g, %.3f)", p.X, p.Y) }
