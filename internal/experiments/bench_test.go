// Benchmarks for the DESIGN.md ablations and the hot paths. The paper's
// tables and figures are asserted by internal/experiments' tests and
// regenerated by cmd/qabench (-paper for the full scale); the
// end-to-end benchmark is `go run ./benchmark`.
package experiments_test

import (
	"math/rand"
	"strconv"
	"testing"
	"time"

	"github.com/qamarket/qamarket/internal/alloc"
	"github.com/qamarket/qamarket/internal/catalog"
	"github.com/qamarket/qamarket/internal/costmodel"
	"github.com/qamarket/qamarket/internal/desim"
	"github.com/qamarket/qamarket/internal/experiments"
	"github.com/qamarket/qamarket/internal/market"
	"github.com/qamarket/qamarket/internal/sim"
	"github.com/qamarket/qamarket/internal/trace"
	"github.com/qamarket/qamarket/internal/workload"
)

// benchScale keeps a single ablation iteration under ~100 ms.
func benchScale() experiments.Scale {
	s := experiments.Quick()
	s.Nodes = 16
	s.Relations = 80
	s.Queries = 400
	s.Classes = 16
	s.MaxJoins = 5
	s.DurationS = 20
	return s
}

// --- Ablation benches (DESIGN.md §4) ---

// ablationRun builds a small overloaded two-class scenario shared
// by the ablations; it returns the mean response time of QA-NT with
// the given agent configuration and period.
func ablationRun(b *testing.B, cfg market.Config, periodMs int64) float64 {
	b.Helper()
	rng := rand.New(rand.NewSource(3))
	p := catalog.Table3()
	p.Nodes = 12
	p.Relations = 30
	p.HashJoinNodes = 11
	cat, err := catalog.Generate(p, rng)
	if err != nil {
		b.Fatal(err)
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
	capacity := sim.EstimateCapacity(cat, ts, []float64{2, 1})
	peak := 2.0 * capacity * 3.1416
	s1 := workload.Sinusoid{Class: 0, Origin: -1, OriginCount: 12, Freq: 0.05,
		PeakRate: peak * 2 / 3, Duration: 20000}
	s2 := workload.Sinusoid{Class: 1, Origin: -1, OriginCount: 12, Freq: 0.05,
		PeakRate: peak / 3, PhaseDeg: 900, Duration: 20000}
	arrivals := append(s1.Generate(rng), s2.Generate(rng)...)
	workload.Sort(arrivals)

	fed, err := sim.New(sim.Config{Catalog: cat, Templates: ts, PeriodMs: periodMs}, alloc.NewQANT(cfg))
	if err != nil {
		b.Fatal(err)
	}
	col, err := fed.Run(arrivals)
	if err != nil {
		b.Fatal(err)
	}
	return col.Summarize().MeanRespMs
}

// BenchmarkAblationLambda sweeps the price-adjustment step λ (eq. 6):
// larger steps converge faster but less accurately.
func BenchmarkAblationLambda(b *testing.B) {
	for _, lambda := range []float64{0.02, 0.1, 0.5} {
		lambda := lambda
		b.Run(formatFloat("lambda", lambda), func(b *testing.B) {
			cfg := market.DefaultConfig(2)
			cfg.Lambda = lambda
			var mean float64
			for i := 0; i < b.N; i++ {
				mean = ablationRun(b, cfg, 500)
			}
			b.ReportMetric(mean, "mean-resp-ms")
		})
	}
}

// BenchmarkAblationPeriod sweeps the period length T: larger T helps
// static loads, hurts dynamic ones (Section 5.1).
func BenchmarkAblationPeriod(b *testing.B) {
	for _, period := range []int64{125, 500, 2000} {
		period := period
		b.Run(formatInt("periodMs", period), func(b *testing.B) {
			var mean float64
			for i := 0; i < b.N; i++ {
				mean = ablationRun(b, market.DefaultConfig(2), period)
			}
			b.ReportMetric(mean, "mean-resp-ms")
		})
	}
}

// BenchmarkAblationThreshold compares always-active pricing against
// the Section 5.1 threshold-activated deployment.
func BenchmarkAblationThreshold(b *testing.B) {
	for _, threshold := range []float64{0, 1.5, 3} {
		threshold := threshold
		b.Run(formatFloat("threshold", threshold), func(b *testing.B) {
			cfg := market.DefaultConfig(2)
			cfg.ActivationThreshold = threshold
			var mean float64
			for i := 0; i < b.N; i++ {
				mean = ablationRun(b, cfg, 500)
			}
			b.ReportMetric(mean, "mean-resp-ms")
		})
	}
}

// BenchmarkAblationClasses sweeps the Zipf class-universe size: the
// paper notes convergence improves with more classes.
func BenchmarkAblationClasses(b *testing.B) {
	for _, classes := range []int{5, 25, 100} {
		classes := classes
		b.Run(formatInt("classes", int64(classes)), func(b *testing.B) {
			s := benchScale()
			s.Classes = classes
			for i := 0; i < b.N; i++ {
				if _, err := experiments.Figure6(s); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkSellerPeriod measures the raw cost of one full market period
// of a 100-class seller (solve eq. 4, trade, settle).
func BenchmarkSellerPeriod(b *testing.B) {
	const k = 100
	cost := make([]float64, k)
	rng := rand.New(rand.NewSource(5))
	for i := range cost {
		cost[i] = 100 + rng.Float64()*1900
	}
	seller, err := market.NewSeller(market.DefaultConfig(k), 500, cost)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		seller.BeginPeriod()
		for c := 0; c < 16; c++ {
			if seller.Offer(c % k) {
				if err := seller.Accept(c % k); err != nil {
					b.Fatal(err)
				}
			}
		}
		seller.EndPeriod()
	}
}

// --- Hot-path micro-benchmarks ---

// BenchmarkDesimEngine schedules and fires 100k one-shot events plus a
// rolling tick per iteration. The Engine persists across iterations so
// the steady-state allocs/op reflects the event-item free list, not
// first-use growth.
func BenchmarkDesimEngine(b *testing.B) {
	const events = 100_000
	var e desim.Engine
	fired := 0
	cb := func(desim.Time) { fired++ }
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		start := e.Now()
		for j := 0; j < events; j++ {
			// Mostly-ascending with periodic out-of-order inserts, like
			// arrival streams interleaved with completion events.
			at := desim.Time(j)
			if j%16 == 0 {
				at = desim.Time(j / 2)
			}
			e.At(start+at, cb)
		}
		ticks := 0
		e.Every(10, func(desim.Time) bool {
			ticks++
			return ticks < events/10
		})
		e.Run()
	}
	if fired < events {
		b.Fatalf("fired %d < %d", fired, events)
	}
}

// BenchmarkSimDispatch drives a full allocation round trip — arrival,
// Assign over the feasibility index, queueing, completion — for one
// overloaded two-class stream per iteration, one sub-bench per
// mechanism. The fixture (catalog, templates, arrivals) stays outside
// the timer; mechanism and Federation are rebuilt each iteration.
func BenchmarkSimDispatch(b *testing.B) {
	rng := rand.New(rand.NewSource(9))
	p := catalog.Table3()
	p.Nodes = 16
	p.Relations = 40
	p.HashJoinNodes = 15
	cat, err := catalog.Generate(p, rng)
	if err != nil {
		b.Fatal(err)
	}
	for _, n := range cat.Nodes {
		n.Holds[0] = true
		delete(n.Holds, 1)
	}
	for _, n := range cat.Nodes[:8] {
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
	capacity := sim.EstimateCapacity(cat, ts, []float64{2, 1})
	peak := 1.5 * capacity * 3.1416
	s1 := workload.Sinusoid{Class: 0, Origin: -1, OriginCount: 16, Freq: 0.05,
		PeakRate: peak * 2 / 3, Duration: 20000}
	s2 := workload.Sinusoid{Class: 1, Origin: -1, OriginCount: 16, Freq: 0.05,
		PeakRate: peak / 3, PhaseDeg: 900, Duration: 20000}
	arrivals := append(s1.Generate(rng), s2.Generate(rng)...)
	workload.Sort(arrivals)

	mechs := []struct {
		name string
		make func() alloc.Mechanism
	}{
		{"bnqrd", func() alloc.Mechanism { return alloc.NewBNQRD() }},
		{"greedy", func() alloc.Mechanism { return alloc.NewGreedy() }},
		{"qa-nt", func() alloc.Mechanism { return alloc.NewQANT(market.DefaultConfig(2)) }},
		{"random", func() alloc.Mechanism { return alloc.NewRandom(rand.New(rand.NewSource(11))) }},
	}
	for _, m := range mechs {
		m := m
		b.Run(m.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				fed, err := sim.New(sim.Config{Catalog: cat, Templates: ts, PeriodMs: 500}, m.make())
				if err != nil {
					b.Fatal(err)
				}
				if _, err := fed.Run(arrivals); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func formatFloat(prefix string, v float64) string {
	return prefix + "=" + strconv.FormatFloat(v, 'g', -1, 64)
}

func formatInt(prefix string, v int64) string {
	return prefix + "=" + strconv.FormatInt(v, 10)
}

// BenchmarkTraceOverhead guards the cost of the query-lifecycle
// tracing hot path: one start/annotate/finish span cycle per
// iteration, with the recorder disabled (nil — what untraced queries
// pay) and enabled (ring-buffer write). The deterministic allocation
// budget lives in internal/trace's tests; this measures the ns/op.
func BenchmarkTraceOverhead(b *testing.B) {
	b.Run("off", func(b *testing.B) {
		var r *trace.Recorder
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			sp := r.Start(int64(i), "", "exec")
			sp.Annotate("rows=%d", i)
			sp.Finish()
		}
	})
	b.Run("on", func(b *testing.B) {
		r := trace.NewRecorder("bench", trace.DefaultCapacity, time.Now)
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			sp := r.Start(int64(i), "", "exec")
			sp.Annotate("rows=%d", i)
			sp.Finish()
		}
	})
}
