package sim

import (
	"fmt"
	"math"
	"math/rand"
	"strings"
	"testing"

	"github.com/qamarket/qamarket/internal/alloc"
	"github.com/qamarket/qamarket/internal/catalog"
	"github.com/qamarket/qamarket/internal/costmodel"
	"github.com/qamarket/qamarket/internal/market"
	"github.com/qamarket/qamarket/internal/workload"
)

// tinyFixture builds a 2-node catalog with explicit, hand-checkable
// costs close to the Figure 1 example.
func tinyFixture(t *testing.T) (*catalog.Catalog, []costmodel.Template) {
	t.Helper()
	c := &catalog.Catalog{
		Relations: []catalog.Relation{{ID: 0, SizeMB: 10, Attrs: 10}, {ID: 1, SizeMB: 5, Attrs: 10}},
		Nodes: []*catalog.Node{
			{ID: 0, CPUGHz: 2, IOMBps: 40, BufferMB: 8, HashJoin: true, Holds: map[int]bool{0: true, 1: true}},
			{ID: 1, CPUGHz: 1, IOMBps: 10, BufferMB: 4, HashJoin: false, Holds: map[int]bool{0: true, 1: true}},
		},
	}
	ts := []costmodel.Template{
		{Class: 0, Relations: []int{0}, Selectivity: 1},
		{Class: 1, Relations: []int{1}, Selectivity: 1},
	}
	return c, ts
}

func TestConfigValidation(t *testing.T) {
	c, ts := tinyFixture(t)
	if _, err := New(Config{Templates: ts, PeriodMs: 500}, alloc.NewGreedy()); err == nil {
		t.Error("nil catalog accepted")
	}
	if _, err := New(Config{Catalog: c, PeriodMs: 500}, alloc.NewGreedy()); err == nil {
		t.Error("empty templates accepted")
	}
	if _, err := New(Config{Catalog: c, Templates: ts}, alloc.NewGreedy()); err == nil {
		t.Error("zero period accepted")
	}
	if _, err := New(Config{Catalog: c, Templates: ts, PeriodMs: 500}, nil); err == nil {
		t.Error("nil mechanism accepted")
	}
}

func TestEmptyRun(t *testing.T) {
	c, ts := tinyFixture(t)
	fed, err := New(Config{Catalog: c, Templates: ts, PeriodMs: 500}, alloc.NewGreedy())
	if err != nil {
		t.Fatal(err)
	}
	col, err := fed.Run(nil)
	if err != nil {
		t.Fatal(err)
	}
	if col.Completed() != 0 {
		t.Error("completed queries from empty arrival stream")
	}
}

func TestUnsortedArrivalsRejected(t *testing.T) {
	c, ts := tinyFixture(t)
	fed, err := New(Config{Catalog: c, Templates: ts, PeriodMs: 500}, alloc.NewGreedy())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := fed.Run([]workload.Arrival{{At: 100}, {At: 50}}); err == nil {
		t.Error("unsorted arrivals accepted")
	}
}

func TestSingleQueryLifecycle(t *testing.T) {
	c, ts := tinyFixture(t)
	fed, err := New(Config{Catalog: c, Templates: ts, PeriodMs: 500}, alloc.NewGreedy())
	if err != nil {
		t.Fatal(err)
	}
	col, err := fed.Run([]workload.Arrival{{At: 10, Class: 0, Origin: 1}})
	if err != nil {
		t.Fatal(err)
	}
	if col.Completed() != 1 {
		t.Fatalf("completed=%d", col.Completed())
	}
	s := col.Samples()[0]
	if s.Node != 0 {
		t.Errorf("greedy should pick the fast node, got %d", s.Node)
	}
	model := costmodel.New(c)
	want := model.Estimate(c.Nodes[0], ts[0])
	if got := float64(s.ResponseMs()); math.Abs(got-want) > 1.5 {
		t.Errorf("response %g ms, want ~%g (pure execution)", got, want)
	}
	if s.Origin != 1 || s.Class != 0 || s.ArrivalMs != 10 {
		t.Errorf("sample metadata: %+v", s)
	}
}

func TestFIFOQueuePerNode(t *testing.T) {
	// Two same-class queries forced onto the single capable node must
	// run back-to-back: second response ≈ 2× first.
	c, ts := tinyFixture(t)
	// Remove relation 0 from node 1 so only node 0 can run class 0.
	delete(c.Nodes[1].Holds, 0)
	fed, err := New(Config{Catalog: c, Templates: ts, PeriodMs: 500}, alloc.NewGreedy())
	if err != nil {
		t.Fatal(err)
	}
	col, err := fed.Run([]workload.Arrival{
		{At: 0, Class: 0}, {At: 0, Class: 0},
	})
	if err != nil {
		t.Fatal(err)
	}
	ss := col.Samples()
	if len(ss) != 2 {
		t.Fatalf("completed %d", len(ss))
	}
	r0, r1 := ss[0].ResponseMs(), ss[1].ResponseMs()
	if r1 < r0*2-3 || r1 > r0*2+3 {
		t.Errorf("FIFO responses %d then %d, want second ≈ 2x first", r0, r1)
	}
}

// deferAll is a mechanism that never sells: every query it sees waits
// for the next period.
type deferAll struct{}

func (deferAll) Name() string                                  { return "defer-all" }
func (deferAll) Traits() alloc.Traits                          { return alloc.Traits{} }
func (deferAll) Assign(alloc.Query, alloc.View) alloc.Decision { return alloc.Decision{Retry: true} }

func TestDeferringForeverFailsAtTheBound(t *testing.T) {
	c, ts := tinyFixture(t)
	fed, err := New(Config{Catalog: c, Templates: ts, PeriodMs: 500}, deferAll{})
	if err != nil {
		t.Fatal(err)
	}
	col, err := fed.Run([]workload.Arrival{{At: 0, Class: 1}, {At: 10, Class: 0}, {At: 20, Class: 1}})
	if err == nil {
		t.Fatalf("a run that never sells returned %d samples and no error", col.Completed())
	}
	for _, want := range []string{"defer-all", "3 queries still waiting", "class 0: 1", "class 1: 2"} {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("error %q does not name %q", err, want)
		}
	}
}

func TestUnevaluableClassRefusedBeforeTheRun(t *testing.T) {
	c, ts := tinyFixture(t)
	delete(c.Nodes[0].Holds, 0)
	delete(c.Nodes[1].Holds, 0)
	fed, err := New(Config{Catalog: c, Templates: ts, PeriodMs: 500}, alloc.NewGreedy())
	if err != nil {
		t.Fatal(err)
	}
	// Class 2 has no template, so no node can evaluate it either.
	for _, class := range []int{0, 2} {
		_, err = fed.Run([]workload.Arrival{{At: 0, Class: 1}, {At: 0, Class: class}})
		if want := fmt.Sprintf("no node can evaluate class %d", class); err == nil || !strings.Contains(err.Error(), want) {
			t.Fatalf("err = %v, want %q", err, want)
		}
		if fed.eng.Now() != 0 || fed.eng.Step() {
			t.Errorf("events were queued or ran before the refusal (clock at %d)", fed.eng.Now())
		}
	}
}

func TestQANTRunsToCompletion(t *testing.T) {
	c, ts := tinyFixture(t)
	fed, err := New(Config{Catalog: c, Templates: ts, PeriodMs: 500}, alloc.NewQANT(market.DefaultConfig(2)))
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(1))
	var as []workload.Arrival
	for i := 0; i < 50; i++ {
		as = append(as, workload.Arrival{At: int64(i * 200), Class: rng.Intn(2), Origin: rng.Intn(2)})
	}
	col, err := fed.Run(as)
	if err != nil {
		t.Fatal(err)
	}
	if col.Completed() != len(as) {
		t.Errorf("%d of %d completed on an underloaded system", col.Completed(), len(as))
	}
}

func TestDeterministicAcrossRuns(t *testing.T) {
	c, ts := tinyFixture(t)
	run := func() float64 {
		fed, err := New(Config{Catalog: c, Templates: ts, PeriodMs: 500}, alloc.NewQANT(market.DefaultConfig(2)))
		if err != nil {
			t.Fatal(err)
		}
		var as []workload.Arrival
		for i := 0; i < 30; i++ {
			as = append(as, workload.Arrival{At: int64(i * 150), Class: i % 2})
		}
		col, err := fed.Run(as)
		if err != nil {
			t.Fatal(err)
		}
		return col.Summarize().MeanRespMs
	}
	if a, b := run(), run(); a != b {
		t.Errorf("identical runs diverged: %g vs %g", a, b)
	}
}

func TestEstimateCapacityPositive(t *testing.T) {
	c, ts := tinyFixture(t)
	cap := EstimateCapacity(c, ts, []float64{1, 1})
	if cap <= 0 {
		t.Fatalf("capacity = %g", cap)
	}
	// Capacity of class 0 alone must be below the two-class blend's
	// upper bound (the cheap class raises the blended rate).
	cap0 := EstimateCapacity(c, ts, []float64{1, 0})
	if cap0 <= 0 || cap0 > cap*2 {
		t.Errorf("single-class capacity %g vs mix %g looks wrong", cap0, cap)
	}
	if got := EstimateCapacity(c, ts, []float64{0, 0}); got != 0 {
		t.Errorf("zero-weight capacity = %g, want 0", got)
	}
}

// TestCapacityMatchesSimulation cross-checks the analytic capacity
// estimate against the simulator: at 70% of estimated capacity the
// system must keep up (bounded response times), at 300% it must not.
func TestCapacityMatchesSimulation(t *testing.T) {
	c, ts := tinyFixture(t)
	capacity := EstimateCapacity(c, ts, []float64{1, 0})
	mk := func(frac float64) []workload.Arrival {
		rate := capacity * frac // queries per second
		gap := int64(1000 / rate)
		if gap < 1 {
			gap = 1
		}
		var as []workload.Arrival
		for at := int64(0); at < 30000; at += gap {
			as = append(as, workload.Arrival{At: at, Class: 0})
		}
		return as
	}
	run := func(frac float64) float64 {
		fed, err := New(Config{Catalog: c, Templates: ts, PeriodMs: 500}, alloc.NewGreedy())
		if err != nil {
			t.Fatal(err)
		}
		col, err := fed.Run(mk(frac))
		if err != nil {
			t.Fatal(err)
		}
		return col.Summarize().MeanRespMs
	}
	under := run(0.7)
	over := run(3.0)
	if over < under*3 {
		t.Errorf("overload mean %.0f ms not clearly above underload %.0f ms", over, under)
	}
}
