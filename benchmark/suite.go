package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"os/exec"
	"runtime"
	"runtime/debug"
	"strconv"
)

// suiteReport is what `go run ./benchmark -json` prints and what
// -compare reads: the recorded environment, every repetition of every
// workload, and no claim — the benchmark measures, a change claims.
type suiteReport struct {
	Env       envInfo         `json:"env"`
	Workloads []suiteWorkload `json:"workloads"`
	Claim     *string         `json:"claim"`
}

type envInfo struct {
	NProc      int     `json:"nproc"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	Go         string  `json:"go"`
	Commit     string  `json:"commit"`
	Seed       int64   `json:"seed"`
	Seconds    float64 `json:"seconds"`
	Reps       int     `json:"reps"`
	Quick      bool    `json:"quick"`
}

type suiteWorkload struct {
	Name   string         `json:"name"`
	Why    string         `json:"why"`
	Config map[string]any `json:"config"`
	Reps   []suiteRep     `json:"reps"`
}

// suiteRep is one repetition: an untraced child process for the
// end-to-end metrics and a traced one for the layers.
type suiteRep struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	EndToEnd  map[string]metricValue `json:"end_to_end"`
	PerLayer  map[string]metricValue `json:"per_layer"`
}

func commit() string {
	if info, ok := debug.ReadBuildInfo(); ok {
		for _, s := range info.Settings {
			if s.Key == "vcs.revision" {
				return s.Value
			}
		}
	}
	return "unknown"
}

func (w *workload) config() map[string]any {
	loop := fmt.Sprintf("closed, %d workers", w.workers)
	if w.rate > 0 {
		loop = fmt.Sprintf("open, Poisson %g q/s", w.rate)
	}
	return map[string]any{
		"nodes": w.nodes, "loop": loop, "slo_ms": w.sloMs, "period_ms": w.periodMs,
		"warmup_s": w.warmup.Seconds(), "static_view": w.staticView, "driver": "vector",
		"executions_per_query": w.execsPerQuery,
	}
}

// child re-executes this binary for one run of one workload, so CPU
// time, peak RSS and the heap belong to that workload alone.
func child(name string, seed int64, seconds float64, traced, quick bool) (*runReport, error) {
	self, err := os.Executable()
	if err != nil {
		return nil, err
	}
	tr := "0"
	if traced {
		tr = "1"
	}
	args := []string{
		"-workload", name, "-seed", strconv.FormatInt(seed, 10),
		"-seconds", strconv.FormatFloat(seconds, 'g', -1, 64), "-trace", tr,
	}
	if quick {
		args = append(args, "-quick")
	}
	cmd := exec.Command(self, args...)
	var stdout bytes.Buffer
	cmd.Stdout = &stdout
	cmd.Stderr = os.Stderr
	runErr := cmd.Run()
	lines := bytes.Split(bytes.TrimSpace(stdout.Bytes()), []byte("\n"))
	var rep runReport
	if jerr := json.Unmarshal(lines[len(lines)-1], &rep); jerr != nil {
		if runErr != nil {
			return nil, fmt.Errorf("%s (trace %s): %w", name, tr, runErr)
		}
		return nil, fmt.Errorf("%s (trace %s): no result line: %w", name, tr, jerr)
	}
	if runErr != nil {
		return &rep, fmt.Errorf("%s (trace %s): %w", name, tr, runErr)
	}
	return &rep, nil
}

// runSuite runs the named workloads (all when empty), reps times each.
// The partial report is returned with the error when a child fails.
func runSuite(names []string, seed int64, seconds float64, reps int, quick bool) (*suiteReport, error) {
	if len(names) == 0 {
		names = allWorkloads
	}
	rep := &suiteReport{Env: envInfo{
		NProc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), Go: runtime.Version(),
		Commit: commit(), Seed: seed, Seconds: seconds, Reps: reps, Quick: quick,
	}}
	for _, name := range names {
		w := findWorkload(name)
		sw := suiteWorkload{Name: w.name, Why: w.why, Config: w.config()}
		for r := 0; r < reps; r++ {
			fmt.Fprintf(os.Stderr, "benchmark: %s rep %d/%d\n", name, r+1, reps)
			e2e, err := child(name, seed, seconds, false, quick)
			if err != nil {
				return rep, err
			}
			layers, err := child(name, seed, seconds, true, quick)
			if err != nil {
				return rep, err
			}
			sw.Reps = append(sw.Reps, suiteRep{
				Correct:   e2e.Correct && layers.Correct,
				Attempted: e2e.Attempted, Failed: e2e.Failed,
				EndToEnd: e2e.Metrics, PerLayer: layers.Metrics,
			})
		}
		rep.Workloads = append(rep.Workloads, sw)
	}
	return rep, nil
}

// printRun prints one run's metrics by name and unit, in declared order.
func printRun(out io.Writer, w *workload, rep *runReport, traced bool) {
	fmt.Fprintf(out, "%s: attempted %d, failed %d, correct %t\n", w.name, rep.Attempted, rep.Failed, rep.Correct)
	names, _ := declared(traced)
	for _, name := range names {
		m := rep.Metrics[name]
		fmt.Fprintf(out, "  %-36s %14.6g %s\n", name, m.Value, m.Unit)
	}
}

// values collects one metric across a workload's repetitions.
func (sw *suiteWorkload) values(name string, traced bool) []float64 {
	var out []float64
	for _, r := range sw.Reps {
		m := r.EndToEnd
		if traced {
			m = r.PerLayer
		}
		if v, ok := m[name]; ok {
			out = append(out, v.Value)
		}
	}
	return out
}

// printSuite prints every metric of every workload: the median over the
// repetitions and, with more than one, their spread.
func printSuite(out io.Writer, rep *suiteReport) {
	e := rep.Env
	fmt.Fprintf(out, "nproc %d, GOMAXPROCS %d, %s, commit %s, seed %d, %gs windows, %d reps\n",
		e.NProc, e.GOMAXPROCS, e.Go, e.Commit, e.Seed, e.Seconds, e.Reps)
	for i := range rep.Workloads {
		sw := &rep.Workloads[i]
		fmt.Fprintf(out, "\n%s (%v)\n", sw.Name, sw.Config["loop"])
		for _, r := range sw.Reps {
			if !r.Correct || r.Failed > 0 {
				fmt.Fprintf(out, "  !! attempted %d, failed %d, correct %t\n", r.Attempted, r.Failed, r.Correct)
			}
		}
		for _, traced := range []bool{false, true} {
			names, units := declared(traced)
			for _, name := range names {
				vs := sw.values(name, traced)
				if len(vs) == 0 {
					continue
				}
				unit := units[name]
				if len(vs) > 1 {
					fmt.Fprintf(out, "  %-36s %14.6g %-7s spread %.1f%%\n", name, median(vs), unit, 100*spread(vs))
				} else {
					fmt.Fprintf(out, "  %-36s %14.6g %s\n", name, vs[0], unit)
				}
			}
		}
	}
}
