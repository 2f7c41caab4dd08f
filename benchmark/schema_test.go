package main

import (
	"encoding/json"
	"os"
	"regexp"
	"testing"
)

// benchmarkFile mirrors BENCHMARK.json at the repo root.
type benchmarkFile struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

var (
	nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
)

func readBenchmarkFile(t *testing.T) benchmarkFile {
	t.Helper()
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	if len(data) > 64<<10 {
		t.Fatalf("BENCHMARK.json is %d bytes, limit 64 KiB", len(data))
	}
	var raw map[string]json.RawMessage
	if err := json.Unmarshal(data, &raw); err != nil {
		t.Fatal(err)
	}
	want := map[string]bool{"command": true, "paths": true, "run_seconds": true, "workloads": true, "end_to_end": true, "per_layer": true}
	for k := range raw {
		if !want[k] {
			t.Errorf("BENCHMARK.json has an extra key %q", k)
		}
		delete(want, k)
	}
	for k := range want {
		t.Errorf("BENCHMARK.json lacks key %q", k)
	}
	var f benchmarkFile
	if err := json.Unmarshal(data, &f); err != nil {
		t.Fatal(err)
	}
	return f
}

// The declarations in metrics.go and workloads.go are what the program
// reports; BENCHMARK.json must say the same.
func TestBenchmarkFileMatchesDeclarations(t *testing.T) {
	f := readBenchmarkFile(t)
	if f.RunSeconds < 1 || f.RunSeconds > 60 {
		t.Errorf("run_seconds %d outside 1..60", f.RunSeconds)
	}
	if len(f.Paths) != 1 || f.Paths[0] != "benchmark" {
		t.Errorf("paths %v, want [benchmark]", f.Paths)
	}
	if len(f.Command) == 0 || len(f.Command) > 32 {
		t.Errorf("command has %d strings", len(f.Command))
	}
	if len(f.Workloads) != len(workloads) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d declared", len(f.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if f.Workloads[i].Name != w.name || f.Workloads[i].Why != w.why {
			t.Errorf("workload %d: BENCHMARK.json has %q, declared %q", i, f.Workloads[i].Name, w.name)
		}
	}
	if len(f.EndToEnd) != len(endToEndMetrics) {
		t.Fatalf("%d end-to-end metrics in BENCHMARK.json, %d declared", len(f.EndToEnd), len(endToEndMetrics))
	}
	for i, m := range endToEndMetrics {
		g := f.EndToEnd[i]
		if g.Name != m.Name || g.Unit != m.Unit || g.Better != m.Better || g.Bound != m.Bound {
			t.Errorf("end-to-end %d: BENCHMARK.json has %+v, declared %+v", i, g, m)
		}
	}
	if len(f.PerLayer) != len(layerMetrics) {
		t.Fatalf("%d per-layer metrics in BENCHMARK.json, %d declared", len(f.PerLayer), len(layerMetrics))
	}
	for i, m := range layerMetrics {
		g := f.PerLayer[i]
		if g.Name != m.Name || g.Unit != m.Unit || g.Better != m.Better {
			t.Errorf("per-layer %d: BENCHMARK.json has %+v, declared %s %s %s", i, g, m.Name, m.Unit, m.Better)
		}
	}
}

func TestDeclarationsWellFormed(t *testing.T) {
	if n := len(workloads); n < 2 || n > 8 {
		t.Errorf("%d workloads, want 2..8", n)
	}
	if n := len(endToEndMetrics); n < 1 || n > 16 {
		t.Errorf("%d end-to-end metrics, want 1..16", n)
	}
	if n := len(layerMetrics); n < 1 || n > 128 {
		t.Errorf("%d per-layer metrics, want 1..128", n)
	}
	seen := make(map[string]bool)
	name := func(kind, n string) {
		if !nameRE.MatchString(n) {
			t.Errorf("%s name %q is malformed", kind, n)
		}
		if seen[n] {
			t.Errorf("name %q is used twice", n)
		}
		seen[n] = true
	}
	direction := func(n, better string) {
		if better != "lower" && better != "higher" {
			t.Errorf("%s: better is %q", n, better)
		}
	}
	isWorkload := make(map[string]bool)
	for i, w := range workloads {
		name("workload", w.name)
		isWorkload[w.name] = true
		if w.name != allWorkloads[i] {
			t.Errorf("workload %d is %q, allWorkloads has %q", i, w.name, allWorkloads[i])
		}
		if len(w.why) == 0 || len(w.why) > 200 {
			t.Errorf("%s: why is %d characters, want 1..200", w.name, len(w.why))
		}
		if w.rate <= 0 && w.workers < 1 {
			t.Errorf("%s: neither open nor closed", w.name)
		}
	}
	isEndToEnd := make(map[string]bool)
	setup := false
	for _, m := range endToEndMetrics {
		name("end-to-end", m.Name)
		isEndToEnd[m.Name] = true
		direction(m.Name, m.Better)
		if !unitRE.MatchString(m.Unit) {
			t.Errorf("%s: unit %q is malformed", m.Name, m.Unit)
		}
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %g outside (0, 0.25]", m.Name, m.Bound)
		}
		setup = setup || (m.Name == "setup_s" && m.Unit == "s" && m.Better == "lower")
	}
	if !setup {
		t.Error("no setup_s metric in seconds, lower is better")
	}
	for _, m := range layerMetrics {
		name("per-layer", m.Name)
		direction(m.Name, m.Better)
		if !unitRE.MatchString(m.Unit) {
			t.Errorf("%s: unit %q is malformed", m.Name, m.Unit)
		}
		if m.Layer == "" || m.Doc == "" {
			t.Errorf("%s: layer or doc missing", m.Name)
		}
		switch m.Source {
		case "counters", "trace", "replay":
		default:
			t.Errorf("%s: source %q", m.Name, m.Source)
		}
		for _, mv := range m.Moves {
			if !isEndToEnd[mv.Metric] {
				t.Errorf("%s moves %q, which is not an end-to-end metric", m.Name, mv.Metric)
			}
			if !isWorkload[mv.Workload] {
				t.Errorf("%s moves %s on %q, which is not a workload", m.Name, mv.Metric, mv.Workload)
			}
		}
	}
}
