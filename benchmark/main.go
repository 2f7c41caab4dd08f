// Command benchmark is the repository's benchmark: five seeded
// federation workloads, each reported end to end and layer by layer.
//
//	go run ./benchmark                         every workload, text report
//	go run ./benchmark -workload scan-exec -reps 3 -json > a.json
//	go run ./benchmark -compare a.json b.json  apply the regression bounds
//	go run ./benchmark -workload w -seed n -seconds s -trace 0|1
//
// The last form is one run of one workload in this process, the unit the
// suite (and the benchmark driver, through benchmark/run.sh) is built
// from: -trace 0 prints the end-to-end metrics, -trace 1 the per-layer
// ones, and the last line of standard output is the result as JSON. See
// README.md in this directory.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
)

func main() {
	var (
		name    = flag.String("workload", "", "workload to run (default: all): "+fmt.Sprint(allWorkloads))
		seed    = flag.Int64("seed", 1, "seed of the data, templates, literals and open-loop schedule")
		seconds = flag.Float64("seconds", 20, "length of the measured window")
		traceF  = flag.Int("trace", -1, "run one workload in this process: 0 end-to-end metrics, 1 per-layer metrics")
		reps    = flag.Int("reps", 1, "repetitions per workload (suite mode)")
		asJSON  = flag.Bool("json", false, "print the suite report as JSON")
		quick   = flag.Bool("quick", false, "smoke sizes: 10k-row tables, 1 s windows unless -seconds is given")
		compare = flag.Bool("compare", false, "compare two suite JSON reports: -compare a.json b.json")
	)
	flag.Parse()
	if *quick && !flagGiven("seconds") {
		*seconds = 1
	}
	if *seconds <= 0 {
		fatal(fmt.Errorf("-seconds must be positive"))
	}
	switch {
	case *compare:
		if flag.NArg() != 2 {
			fatal(fmt.Errorf("-compare needs two report files"))
		}
		worse, err := compareFiles(os.Stdout, flag.Arg(0), flag.Arg(1))
		if err != nil {
			fatal(err)
		}
		if worse {
			os.Exit(1)
		}
	case *traceF >= 0:
		w := mustWorkload(*name)
		rep, err := run(runConfig{w: w, seed: *seed, seconds: *seconds, traced: *traceF == 1, quick: *quick})
		if err != nil {
			fatal(err)
		}
		printRun(os.Stdout, w, rep, *traceF == 1)
		line, err := json.Marshal(rep)
		if err != nil {
			fatal(err)
		}
		fmt.Println(string(line))
		for _, f := range rep.failures {
			fmt.Fprintln(os.Stderr, "benchmark: failed:", f)
		}
		if !rep.Correct {
			for _, p := range rep.problems {
				fmt.Fprintln(os.Stderr, "benchmark: incorrect:", p)
			}
			os.Exit(1)
		}
	default:
		var names []string
		if *name != "" {
			names = []string{mustWorkload(*name).name}
		}
		rep, err := runSuite(names, *seed, *seconds, *reps, *quick)
		if rep != nil {
			if *asJSON {
				enc := json.NewEncoder(os.Stdout)
				enc.SetIndent("", "  ")
				if jerr := enc.Encode(rep); jerr != nil {
					fatal(jerr)
				}
			} else {
				printSuite(os.Stdout, rep)
			}
		}
		if err != nil {
			fatal(err)
		}
	}
}

func mustWorkload(name string) *workload {
	w := findWorkload(name)
	if w == nil {
		fatal(fmt.Errorf("unknown workload %q, want one of %v", name, allWorkloads))
	}
	return w
}

func flagGiven(name string) bool {
	given := false
	flag.Visit(func(f *flag.Flag) { given = given || f.Name == name })
	return given
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "benchmark:", err)
	os.Exit(1)
}
