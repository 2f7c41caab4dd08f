package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
)

// Verdicts of one workload x end-to-end metric.
const (
	verdictOK         = "ok"
	verdictWorse      = "worse"
	verdictUnresolved = "unresolved"
)

// judge applies one metric's bound to the base runs a and the candidate
// runs b. delta is the candidate's median against the base's, positive
// when worse. A spread wider than the bound cannot resolve a difference
// of the bound's size: the pairing is unresolved, unless every candidate
// run reads better than every base run.
func judge(m endToEnd, a, b []float64) (delta, noise float64, verdict string) {
	ma, mb := median(a), median(b)
	if ma == 0 {
		return 0, 0, verdictUnresolved
	}
	delta = (mb - ma) / ma
	if m.Better == "higher" {
		delta = -delta
	}
	noise = max(spread(a), spread(b))
	if noise > m.Bound {
		if allBetter(m, a, b) {
			return delta, noise, verdictOK
		}
		return delta, noise, verdictUnresolved
	}
	if delta > m.Bound {
		return delta, noise, verdictWorse
	}
	return delta, noise, verdictOK
}

// allBetter reports whether every run of b reads better than every run
// of a.
func allBetter(m endToEnd, a, b []float64) bool {
	sa, sb := sortedCopy(a), sortedCopy(b)
	if m.Better == "higher" {
		return sb[0] > sa[len(sa)-1]
	}
	return sb[len(sb)-1] < sa[0]
}

func readSuite(path string) (*suiteReport, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var rep suiteReport
	if err := json.Unmarshal(data, &rep); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &rep, nil
}

// compareFiles prints one row per workload x end-to-end metric of two
// suite reports and reports whether any pairing is worse than its bound.
func compareFiles(out io.Writer, basePath, candPath string) (worse bool, err error) {
	base, err := readSuite(basePath)
	if err != nil {
		return false, err
	}
	cand, err := readSuite(candPath)
	if err != nil {
		return false, err
	}
	candByName := make(map[string]*suiteWorkload)
	for i := range cand.Workloads {
		candByName[cand.Workloads[i].Name] = &cand.Workloads[i]
	}
	fmt.Fprintf(out, "%-12s %-22s %12s %12s %8s %7s %7s  %s\n",
		"workload", "metric", "base", "candidate", "delta", "bound", "spread", "verdict")
	for i := range base.Workloads {
		bw := &base.Workloads[i]
		cw := candByName[bw.Name]
		if cw == nil {
			return worse, fmt.Errorf("%s: workload %s is missing", candPath, bw.Name)
		}
		for _, m := range endToEndMetrics {
			a, b := bw.values(m.Name, false), cw.values(m.Name, false)
			if len(a) == 0 || len(b) == 0 {
				return worse, fmt.Errorf("%s %s: metric missing from a report", bw.Name, m.Name)
			}
			delta, noise, verdict := judge(m, a, b)
			worse = worse || verdict == verdictWorse
			fmt.Fprintf(out, "%-12s %-22s %12.6g %12.6g %+7.1f%% %6.1f%% %6.1f%%  %s\n",
				bw.Name, m.Name, median(a), median(b), 100*delta, 100*m.Bound, 100*noise, verdict)
		}
		for _, r := range cw.Reps {
			if !r.Correct || r.Failed > 0 {
				worse = true
				fmt.Fprintf(out, "%-12s candidate run failed %d of %d, correct %t: any failure is a regression\n",
					bw.Name, r.Failed, r.Attempted, r.Correct)
			}
		}
	}
	return worse, nil
}
