package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func TestJudge(t *testing.T) {
	lower := endToEnd{Name: "p50_ms", Better: "lower", Bound: 0.10}
	higher := endToEnd{Name: "qps", Better: "higher", Bound: 0.10}
	cases := []struct {
		name string
		m    endToEnd
		a, b []float64
		want string
	}{
		{"unchanged", lower, []float64{10, 10.1, 9.9}, []float64{10.05, 9.95, 10}, verdictOK},
		{"inside the bound", lower, []float64{10, 10.1, 9.9}, []float64{10.8, 10.9, 10.7}, verdictOK},
		{"worse latency", lower, []float64{10, 10.1, 9.9}, []float64{11.5, 11.6, 11.4}, verdictWorse},
		{"better latency", lower, []float64{10, 10.1, 9.9}, []float64{8, 8.1, 7.9}, verdictOK},
		{"worse throughput", higher, []float64{100, 101, 99}, []float64{85, 86, 84}, verdictWorse},
		{"better throughput", higher, []float64{100, 101, 99}, []float64{120, 121, 119}, verdictOK},
		{"noisy", lower, []float64{10, 12, 8}, []float64{10.5, 12.5, 8.5}, verdictUnresolved},
		{"noisy but every run better", lower, []float64{10, 12, 8}, []float64{6, 7, 5}, verdictOK},
		{"noisy and worse", lower, []float64{10, 12, 8}, []float64{20, 24, 16}, verdictUnresolved},
	}
	for _, c := range cases {
		if _, _, got := judge(c.m, c.a, c.b); got != c.want {
			t.Errorf("%s: verdict %s, want %s", c.name, got, c.want)
		}
	}
}

func writeSuite(t *testing.T, dir, name string, qps []float64, failed int) string {
	t.Helper()
	sw := suiteWorkload{Name: wSmall}
	for _, v := range qps {
		rep := suiteRep{Correct: true, Attempted: 100, Failed: failed, EndToEnd: map[string]metricValue{}}
		for _, m := range endToEndMetrics {
			rep.EndToEnd[m.Name] = metricValue{Value: 1, Unit: m.Unit}
		}
		rep.EndToEnd["qps"] = metricValue{Value: v, Unit: "1/s"}
		sw.Reps = append(sw.Reps, rep)
	}
	data, err := json.Marshal(suiteReport{Workloads: []suiteWorkload{sw}})
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, name)
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestCompareFiles(t *testing.T) {
	dir := t.TempDir()
	base := writeSuite(t, dir, "a.json", []float64{100, 101, 99}, 0)
	same := writeSuite(t, dir, "b.json", []float64{100.5, 99.5, 100}, 0)
	slow := writeSuite(t, dir, "c.json", []float64{60, 61, 59}, 0)
	failing := writeSuite(t, dir, "d.json", []float64{100, 101, 99}, 1)

	var out bytes.Buffer
	worse, err := compareFiles(&out, base, same)
	if err != nil || worse {
		t.Fatalf("identical runs: worse %t, err %v\n%s", worse, err, out.String())
	}
	if rows := strings.Count(out.String(), "\n"); rows != 1+len(endToEndMetrics) {
		t.Fatalf("%d lines, want a header and one row per end-to-end metric\n%s", rows, out.String())
	}
	out.Reset()
	if worse, err = compareFiles(&out, base, slow); err != nil || !worse {
		t.Fatalf("40%% less throughput: worse %t, err %v\n%s", worse, err, out.String())
	}
	if !strings.Contains(out.String(), verdictWorse) {
		t.Fatalf("no %q row:\n%s", verdictWorse, out.String())
	}
	out.Reset()
	if worse, err = compareFiles(&out, base, failing); err != nil || !worse {
		t.Fatalf("a failing query: worse %t, err %v", worse, err)
	}
	if _, err := compareFiles(&out, base, filepath.Join(dir, "missing.json")); err == nil {
		t.Fatal("a missing report compared without error")
	}
}
