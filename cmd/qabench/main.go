// Command qabench regenerates every table and figure of the paper's
// evaluation section and prints them in the order they appear in the
// paper. Use -paper for the full Table 3 scale (slow) or the default
// quick scale for a fast qualitative run; -only restricts to a single
// experiment.
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"slices"
	"strings"

	"github.com/qamarket/qamarket/internal/experiments"
	"github.com/qamarket/qamarket/internal/plot"
)

// experimentNames are the names -only accepts, in the order qabench
// prints the experiments.
var experimentNames = []string{"fig1", "fig2", "fig3", "fig4", "fig5a", "fig5b", "fig5c", "fig6", "table2", "table3", "static", "partial", "fig7"}

func main() {
	paper := flag.Bool("paper", false, "run the full Table 3 scale (100 nodes, 10,000 queries)")
	seed := flag.Int64("seed", 1, "master RNG seed")
	only := flag.String("only", "", "comma-separated experiments to run: "+strings.Join(experimentNames, ","))
	skipReal := flag.Bool("skip-real", false, "skip the real TCP cluster experiment (figure 7)")
	svgDir := flag.String("svg", "", "also render each figure as an SVG into this directory")
	parallel := flag.Int("parallel", 0, "worker-pool width for sweep points (0 = GOMAXPROCS, 1 = sequential; output is identical at any width)")
	cpuProfile := flag.String("cpuprofile", "", "write a CPU profile to this file")
	memProfile := flag.String("memprofile", "", "write a heap profile to this file on exit")
	flag.Parse()

	selected := map[string]bool{}
	if *only != "" {
		for _, sel := range strings.Split(*only, ",") {
			name := strings.ToLower(strings.TrimSpace(sel))
			if !slices.Contains(experimentNames, name) {
				fmt.Fprintf(os.Stderr, "qabench: -only: unknown experiment %q; valid: %s\n", sel, strings.Join(experimentNames, ", "))
				os.Exit(2)
			}
			selected[name] = true
		}
	}
	want := func(name string) bool { return *only == "" || selected[name] }

	// die reports a failure and exits. os.Exit skips deferred calls, so
	// it stops the CPU profile itself: a failed run still leaves a whole
	// profile behind.
	stopProfile := func() {}
	die := func(format string, args ...any) {
		fmt.Fprintf(os.Stderr, "qabench: "+format+"\n", args...)
		stopProfile()
		os.Exit(1)
	}
	if *cpuProfile != "" {
		f, err := os.Create(*cpuProfile)
		if err != nil {
			die("%v", err)
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			die("%v", err)
		}
		stopProfile = pprof.StopCPUProfile
		defer pprof.StopCPUProfile()
	}
	if *memProfile != "" {
		defer func() {
			f, err := os.Create(*memProfile)
			if err != nil {
				die("%v", err)
			}
			defer f.Close()
			runtime.GC()
			if err := pprof.WriteHeapProfile(f); err != nil {
				die("%v", err)
			}
		}()
	}

	saveSVG := func(name string, c *plot.Chart, bars bool) {
		if *svgDir == "" {
			return
		}
		if err := os.MkdirAll(*svgDir, 0o755); err != nil {
			die("%v", err)
		}
		path := filepath.Join(*svgDir, name+".svg")
		if err := c.WriteFile(path, bars); err != nil {
			die("rendering %s: %v", name, err)
		}
		fmt.Printf("(wrote %s)\n", path)
	}

	scale := experiments.Quick()
	if *paper {
		scale = experiments.Paper()
	}
	scale.Seed = *seed
	scale.Parallel = *parallel

	fail := func(name string, err error) { die("%s: %v", name, err) }

	if want("fig1") {
		r := experiments.Figure1()
		fmt.Println("== Figure 1: performance optimization vs load balancing ==")
		fmt.Printf("LB : mean response %.1f ms, N1 busy until %.0f ms, N2 until %.0f ms\n",
			r.LBMeanMs, r.LBBusyN1Ms, r.LBBusyN2Ms)
		fmt.Printf("QA : mean response %.1f ms, N1 busy until %.0f ms, N2 until %.0f ms\n",
			r.QAMeanMs, r.QABusyN1Ms, r.QABusyN2Ms)
		fmt.Printf("LB is %.0f%% slower than QA (paper: 54%%)\n\n", (r.LBMeanMs/r.QAMeanMs-1)*100)
	}
	if want("fig2") {
		r := experiments.Figure2()
		fmt.Println("== Figure 2: aggregate demand, supply and consumption ==")
		fmt.Printf("aggregate demand  d = %v\n", r.Demand)
		fmt.Printf("LB supply %v (excess %v), Pareto optimal: %t\n", r.LBSupply, r.LBExcess, r.LBPareto)
		fmt.Printf("QA supply %v (excess %v), Pareto optimal: %t\n", r.QASupply, r.QAExcess, r.QAPareto)
		fmt.Printf("QA Pareto-dominates LB: %t\n\n", r.Dominates)
	}
	if want("fig3") {
		r, err := experiments.Figure3(scale)
		if err != nil {
			fail("figure 3", err)
		}
		fmt.Println("== Figure 3: example sinusoid workload (arrivals per half second) ==")
		printSeries("Q1", r.Q1PerHalfSecond)
		printSeries("Q2", r.Q2PerHalfSecond)
		saveSVG("figure3", &plot.Chart{
			Title: "Figure 3: sinusoid workload", XLabel: "time (s)", YLabel: "arrivals / 0.5 s",
			Series: []plot.Series{
				plot.IntSeries("Q1", r.Q1PerHalfSecond, 0.5),
				plot.IntSeries("Q2", r.Q2PerHalfSecond, 0.5),
			},
		}, false)
		fmt.Println()
	}
	if want("fig4") {
		r, err := experiments.Figure4(scale)
		if err != nil {
			fail("figure 4", err)
		}
		fmt.Println("== Figure 4: normalized avg response time (QA-NT = 1.00) ==")
		for _, name := range experiments.SortedKeys(r.Normalized) {
			fmt.Printf("  %-18s %6.2f  (mean %.0f ms)\n", name, r.Normalized[name], r.MeanMs[name])
		}
		s4, labels := plot.MapSeries("normalized mean response", r.Normalized)
		saveSVG("figure4", &plot.Chart{
			Title:  "Figure 4: normalized response time (" + strings.Join(labels, ", ") + ")",
			XLabel: "mechanism (alphabetical)", YLabel: "relative to QA-NT",
			Series: []plot.Series{s4},
		}, true)
		fmt.Println()
	}
	if want("fig5a") {
		r, err := experiments.Figure5a(scale)
		if err != nil {
			fail("figure 5a", err)
		}
		fmt.Println("== Figure 5a: Greedy/QA-NT response-time ratio vs load (fraction of capacity) ==")
		for _, p := range r.Points {
			fmt.Printf("  load %4.0f%%  greedy/qa-nt = %.3f\n", p.X*100, p.Y)
		}
		saveSVG("figure5a", pointsChart("Figure 5a: load sweep", "load (fraction of capacity)", r.Points), false)
		fmt.Println()
	}
	if want("fig5b") {
		r, err := experiments.Figure5b(scale)
		if err != nil {
			fail("figure 5b", err)
		}
		fmt.Println("== Figure 5b: Greedy/QA-NT ratio vs sinusoid frequency (80% load) ==")
		for _, p := range r.Points {
			fmt.Printf("  %.2f Hz  greedy/qa-nt = %.3f\n", p.X, p.Y)
		}
		saveSVG("figure5b", pointsChart("Figure 5b: frequency sweep", "frequency (Hz)", r.Points), false)
		fmt.Println()
	}
	if want("fig5c") {
		r, err := experiments.Figure5c(scale)
		if err != nil {
			fail("figure 5c", err)
		}
		q, g := r.TrackingError()
		fmt.Println("== Figure 5c: Q1 load following (per half-second) ==")
		printSeries("arrivals", r.Arrivals)
		printSeries("qa-nt   ", r.QANTDone)
		printSeries("greedy  ", r.GreedyDon)
		saveSVG("figure5c", &plot.Chart{
			Title: "Figure 5c: Q1 load following", XLabel: "time (s)", YLabel: "Q1 per 0.5 s",
			Series: []plot.Series{
				plot.IntSeries("arrivals", r.Arrivals, 0.5),
				plot.IntSeries("qa-nt executed", r.QANTDone, 0.5),
				plot.IntSeries("greedy executed", r.GreedyDon, 0.5),
			},
		}, false)
		fmt.Printf("mean |arrivals-executed|: qa-nt %.2f, greedy %.2f\n\n", q, g)
	}
	if want("fig6") {
		r, err := experiments.Figure6(scale)
		if err != nil {
			fail("figure 6", err)
		}
		fmt.Println("== Figure 6: Greedy/QA-NT ratio vs Zipf mean inter-arrival ==")
		for _, p := range r.Points {
			fmt.Printf("  gap %7.0f ms  greedy/qa-nt = %.3f\n", p.X, p.Y)
		}
		c6 := pointsChart("Figure 6: Zipf inter-arrival sweep", "mean inter-arrival (ms, log)", r.Points)
		c6.LogX = true
		saveSVG("figure6", c6, false)
		fmt.Println()
	}
	if want("table2") {
		fmt.Println("== Table 2: mechanism comparison ==")
		fmt.Print(experiments.RenderTable2())
		fmt.Println()
	}
	if want("table3") {
		st, err := experiments.Table3(scale)
		if err != nil {
			fail("table 3", err)
		}
		fmt.Println("== Table 3: realized environment statistics ==")
		fmt.Printf("  nodes=%d relations=%d hash-join nodes=%d\n", st.Nodes, st.Relations, st.HashJoinNodes)
		fmt.Printf("  mean CPU %.2f GHz (paper 2.3), IO %.1f MB/s (42.5), buffer %.1f MB (6)\n",
			st.MeanCPUGHz, st.MeanIOMBps, st.MeanBufferMB)
		fmt.Printf("  mean relation %.1f MB (10.5), mirrors/relation %.1f (5), relations/node %.1f (~50 at paper scale)\n",
			st.MeanRelationMB, st.MeanMirrors, st.RelationsPerNode)
		fmt.Printf("  classes=%d mean joins %.1f (24), mean best exec %.0f ms (2000)\n\n",
			st.Classes, st.MeanJoins, st.MeanBestExecMs)
	}
	if want("static") {
		r, err := experiments.StaticWorkload(scale, 0.8)
		if err != nil {
			fail("static", err)
		}
		fmt.Println("== Extension: static workload at 80% load (normalized to the Markov reference) ==")
		for _, name := range experiments.SortedKeys(r.Normalized) {
			fmt.Printf("  %-18s %6.2f  (mean %.0f ms)\n", name, r.Normalized[name], r.MeanMs[name])
		}
		fmt.Println()
	}
	if want("partial") {
		r, err := experiments.PartialAdoption(scale)
		if err != nil {
			fail("partial", err)
		}
		fmt.Println("== Extension: partial QA-NT adoption under 2x overload ==")
		for _, frac := range []float64{0, 0.5, 1.0} {
			fmt.Printf("  adoption %3.0f%%  mean %.0f ms\n", frac*100, r.MeanMs[frac])
		}
		fmt.Println()
	}
	if want("fig7") && !*skipReal {
		opt := experiments.DefaultFigure7()
		opt.Seed = *seed
		r, err := experiments.Figure7(opt)
		if err != nil {
			fail("figure 7", err)
		}
		fmt.Println("== Figure 7: real TCP federation (5 heterogeneous nodes) ==")
		assign := map[string][]float64{}
		total := map[string][]float64{}
		var gaps []float64
		for _, run := range r.Runs {
			fmt.Printf("  %-7s gap=%-5v assign=%6.1f ms  total=%7.1f ms  exec=%6.1f ms  done=%d fail=%d spread=%v\n",
				run.Mechanism, run.Interarrival, run.MeanAssignMs, run.MeanTotalMs,
				run.MeanExecMs, run.Completed, run.Failed, run.PerNode)
			m := string(run.Mechanism)
			assign[m] = append(assign[m], run.MeanAssignMs)
			total[m] = append(total[m], run.MeanTotalMs)
			if m == "greedy" {
				gaps = append(gaps, float64(run.Interarrival.Milliseconds()))
			}
		}
		var f7 []plot.Series
		for _, m := range []string{"greedy", "qa-nt"} {
			f7 = append(f7,
				plot.Series{Name: m + " total", X: gaps, Y: total[m]},
				plot.Series{Name: m + " assign", X: gaps, Y: assign[m]},
			)
		}
		saveSVG("figure7", &plot.Chart{
			Title: "Figure 7: real federation", XLabel: "inter-arrival (ms)", YLabel: "ms",
			Series: f7,
		}, true)
		fmt.Println()
	}
}

// pointsChart builds the greedy/qa-nt ratio line chart shared by the
// sweep figures.
func pointsChart(title, xlabel string, points []experiments.Point) *plot.Chart {
	s := plot.Series{Name: "greedy / qa-nt"}
	for _, p := range points {
		s.X = append(s.X, p.X)
		s.Y = append(s.Y, p.Y)
	}
	parity := plot.Series{Name: "parity"}
	for _, p := range points {
		parity.X = append(parity.X, p.X)
		parity.Y = append(parity.Y, 1)
	}
	return &plot.Chart{
		Title: title, XLabel: xlabel, YLabel: "response-time ratio",
		Series: []plot.Series{s, parity},
	}
}

// printSeries renders an integer series as a compact sparkline-ish row.
func printSeries(label string, xs []int) {
	const maxCols = 80
	step := 1
	if len(xs) > maxCols {
		step = (len(xs) + maxCols - 1) / maxCols
	}
	peak := 1
	for _, v := range xs {
		if v > peak {
			peak = v
		}
	}
	glyphs := []rune(" ▁▂▃▄▅▆▇█")
	var b strings.Builder
	for i := 0; i < len(xs); i += step {
		hi := 0
		for j := i; j < i+step && j < len(xs); j++ {
			if xs[j] > hi {
				hi = xs[j]
			}
		}
		idx := hi * (len(glyphs) - 1) / peak
		b.WriteRune(glyphs[idx])
	}
	fmt.Printf("  %s |%s| peak=%d\n", label, b.String(), peak)
}
