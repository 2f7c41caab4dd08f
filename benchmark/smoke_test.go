package main

import (
	"bytes"
	"encoding/json"
	"testing"
)

// smoke runs one workload at -quick sizes in this process and checks the
// report the way the driver reads it.
func smoke(t *testing.T, w *workload, traced bool) {
	t.Helper()
	rep, err := run(runConfig{w: w, seed: 3, seconds: 1, traced: traced, quick: true})
	if err != nil {
		t.Fatalf("%s traced=%t: %v", w.name, traced, err)
	}
	if !rep.Correct || rep.Failed != 0 || rep.Attempted < 1 {
		t.Fatalf("%s traced=%t: correct %t, attempted %d, failed %d: %v",
			w.name, traced, rep.Correct, rep.Attempted, rep.Failed, rep.problems)
	}
	_, units := declared(traced)
	if len(rep.Metrics) != len(units) {
		t.Fatalf("%s traced=%t: %d metrics reported, %d declared", w.name, traced, len(rep.Metrics), len(units))
	}
	for name, unit := range units {
		if got, ok := rep.Metrics[name]; !ok || got.Unit != unit {
			t.Errorf("%s traced=%t: metric %s reported as %+v, want unit %s", w.name, traced, name, got, unit)
		}
	}
	// The result line is exactly the contract's four keys.
	line, err := json.Marshal(rep)
	if err != nil {
		t.Fatal(err)
	}
	var keys map[string]json.RawMessage
	if err := json.Unmarshal(line, &keys); err != nil {
		t.Fatal(err)
	}
	for _, k := range []string{"correct", "attempted", "failed", "metrics"} {
		if _, ok := keys[k]; !ok {
			t.Errorf("result line lacks %q", k)
		}
	}
	if len(keys) != 4 {
		t.Errorf("result line has %d keys: %s", len(keys), line)
	}
	if !traced {
		for _, m := range endToEndMetrics {
			if rep.Metrics[m.Name].Value <= 0 {
				t.Errorf("%s: end-to-end %s is %g, must never be 0", w.name, m.Name, rep.Metrics[m.Name].Value)
			}
		}
		return
	}
	if got, want := rep.Metrics["cluster.executed_per_completed"].Value, float64(w.execsPerQuery); got != want {
		t.Errorf("%s: %g executions per completed query, want exactly %g", w.name, got, want)
	}
	if rep.Metrics["trace.queries"].Value < 1 {
		t.Errorf("%s: the traced pass folded no query", w.name)
	}
	var buf bytes.Buffer
	printRun(&buf, w, rep, traced)
	if lines := bytes.Count(buf.Bytes(), []byte("\n")); lines != 1+len(units) {
		t.Errorf("%s: printed %d lines for %d metrics", w.name, lines, len(units))
	}
}

// TestQuickSmoke stands every workload up through the traced path (the
// counters window, the traced pass and the replay) and one through the
// end-to-end path. Real federations on loopback: skipped under -short
// and under the race detector, which slows the engines tenfold.
func TestQuickSmoke(t *testing.T) {
	if testing.Short() || raceEnabled {
		t.Skip("stands up loopback federations")
	}
	for _, w := range workloads {
		smoke(t, w, true)
	}
	smoke(t, findWorkload(wSmall), false)
}
