package sim

import (
	"math/rand"
	"testing"

	"github.com/qamarket/qamarket/internal/alloc"
	"github.com/qamarket/qamarket/internal/market"
	"github.com/qamarket/qamarket/internal/workload"
)

// TestInvariantsAcrossMechanisms runs every mechanism over randomized
// workloads and checks the simulator's accounting invariants:
//
//  1. conservation: every arrival completes;
//  2. causality: finish >= start >= arrival for every sample;
//  3. response time >= pure execution time;
//  4. samples reference valid nodes and classes.
func TestInvariantsAcrossMechanisms(t *testing.T) {
	cat, ts := twoClassFixture(t, 10)
	for seed := int64(1); seed <= 3; seed++ {
		rng := rand.New(rand.NewSource(seed))
		var arrivals []workload.Arrival
		at := int64(0)
		n := 100 + rng.Intn(200)
		for i := 0; i < n; i++ {
			at += int64(rng.Intn(400))
			arrivals = append(arrivals, workload.Arrival{
				At: at, Class: rng.Intn(2), Origin: rng.Intn(10),
			})
		}
		mechs := []alloc.Mechanism{
			alloc.NewQANT(market.DefaultConfig(2)),
			alloc.NewGreedy(),
			alloc.NewRandom(rand.New(rand.NewSource(seed))),
			alloc.NewRoundRobin(),
			alloc.NewBNQRD(),
			alloc.NewTwoRandomProbes(rand.New(rand.NewSource(seed + 9))),
			alloc.NewMarkov([]float64{2, 1}),
		}
		for _, mech := range mechs {
			fed, err := New(Config{Catalog: cat, Templates: ts, PeriodMs: 500}, mech)
			if err != nil {
				t.Fatalf("%s: %v", mech.Name(), err)
			}
			col, err := fed.Run(arrivals)
			if err != nil {
				t.Fatalf("%s: %v", mech.Name(), err)
			}
			if col.Completed() != len(arrivals) {
				t.Errorf("seed %d %s: %d of %d arrivals completed",
					seed, mech.Name(), col.Completed(), len(arrivals))
			}
			for _, s := range col.Samples() {
				if s.FinishMs < s.StartMs || s.StartMs < s.ArrivalMs {
					t.Fatalf("seed %d %s: causality violated: %+v", seed, mech.Name(), s)
				}
				if s.ResponseMs() < s.ExecutedMs {
					t.Fatalf("seed %d %s: response %d < exec %d", seed, mech.Name(), s.ResponseMs(), s.ExecutedMs)
				}
				if s.Node < 0 || s.Node >= 10 || s.Class < 0 || s.Class >= 2 {
					t.Fatalf("seed %d %s: bad sample ids %+v", seed, mech.Name(), s)
				}
			}
		}
	}
}

// TestNodeFIFO asserts that per-node execution is first-in-first-out:
// for any two samples on the same node, start order follows enqueue
// order (approximated here by start times never overlapping).
func TestNodeFIFO(t *testing.T) {
	cat, ts := twoClassFixture(t, 4)
	fed, err := New(Config{Catalog: cat, Templates: ts, PeriodMs: 500}, alloc.NewGreedy())
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(4))
	var arrivals []workload.Arrival
	for i := 0; i < 200; i++ {
		arrivals = append(arrivals, workload.Arrival{
			At: int64(i * 20), Class: rng.Intn(2), Origin: rng.Intn(4),
		})
	}
	col, err := fed.Run(arrivals)
	if err != nil {
		t.Fatal(err)
	}
	byNode := map[int][][2]int64{}
	for _, s := range col.Samples() {
		byNode[s.Node] = append(byNode[s.Node], [2]int64{s.StartMs, s.FinishMs})
	}
	for node, spans := range byNode {
		for i := 0; i < len(spans); i++ {
			for j := i + 1; j < len(spans); j++ {
				a, b := spans[i], spans[j]
				if a[0] < b[0] && a[1] > b[0]+1 {
					t.Fatalf("node %d executed two queries concurrently: %v overlaps %v", node, a, b)
				}
			}
		}
	}
}

// TestQANTAdmissionNeverOverCommits verifies the market's core promise
// at the system level: summed per-period execution on each node stays
// within period capacity plus the bounded carry.
func TestQANTAdmissionNeverOverCommits(t *testing.T) {
	cat, ts := twoClassFixture(t, 6)
	mech := alloc.NewQANT(market.DefaultConfig(2))
	fed, err := New(Config{Catalog: cat, Templates: ts, PeriodMs: 500}, mech)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(9))
	var arrivals []workload.Arrival
	for i := 0; i < 400; i++ {
		arrivals = append(arrivals, workload.Arrival{
			At: int64(i * 10), Class: rng.Intn(2), Origin: rng.Intn(6),
		})
	}
	col, err := fed.Run(arrivals)
	if err != nil {
		t.Fatal(err)
	}
	// Total executed work per node must not exceed the node's share of
	// wall-clock time by more than one max-cost carry allowance.
	horizon := int64(0)
	workPerNode := map[int]int64{}
	for _, s := range col.Samples() {
		workPerNode[s.Node] += s.ExecutedMs
		if s.FinishMs > horizon {
			horizon = s.FinishMs
		}
	}
	for node, work := range workPerNode {
		if work > horizon+3000 {
			t.Errorf("node %d executed %d ms of work in a %d ms horizon", node, work, horizon)
		}
	}
}
