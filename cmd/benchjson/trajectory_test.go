package main

import (
	"encoding/json"
	"testing"
)

func sampleReport(stamp string, speedup float64) *report {
	return &report{
		GeneratedAt: stamp,
		GoVersion:   "go1.22",
		GOMAXPROCS:  8,
		Benchmarks:  []benchEntry{{Name: "BenchmarkX", Iterations: 1, NsPerOp: 10}},
		Qabench:     qabenchTiming{Speedup: speedup},
		Transport:   transportTiming{Speedup: 2.5},
		Membership:  membershipTiming{JoinRounds: 3, EvictRounds: 7},
	}
}

// TestMergeTrajectoryAppends pins the history fix: regenerating the
// benchmark file used to overwrite every earlier run, so the committed
// "trajectory" only ever held one point. Each run must now append.
func TestMergeTrajectoryAppends(t *testing.T) {
	first := sampleReport("2026-01-01T00:00:00Z", 2.0)
	first.Trajectory = mergeTrajectory(nil, first)
	if len(first.Trajectory) != 1 {
		t.Fatalf("fresh history has %d rows, want 1", len(first.Trajectory))
	}
	data, err := json.Marshal(first)
	if err != nil {
		t.Fatal(err)
	}

	second := sampleReport("2026-02-01T00:00:00Z", 3.0)
	second.Trajectory = mergeTrajectory(data, second)
	if len(second.Trajectory) != 2 {
		t.Fatalf("second run has %d rows, want 2", len(second.Trajectory))
	}
	if got := second.Trajectory[0].GeneratedAt; got != "2026-01-01T00:00:00Z" {
		t.Errorf("oldest row first: got %s", got)
	}
	if got := second.Trajectory[1]; got.GeneratedAt != "2026-02-01T00:00:00Z" || got.QabenchSpeedup != 3.0 {
		t.Errorf("newest row wrong: %+v", got)
	}
}

// TestMergeTrajectorySynthesizesOldSnapshot checks that a file written
// by the pre-trajectory layout (snapshot fields, no trajectory array)
// contributes its headline numbers as the first history row instead of
// being dropped.
func TestMergeTrajectorySynthesizesOldSnapshot(t *testing.T) {
	old := sampleReport("2025-12-01T00:00:00Z", 1.5)
	data, err := json.Marshal(old) // Trajectory nil: the old layout
	if err != nil {
		t.Fatal(err)
	}
	cur := sampleReport("2026-01-01T00:00:00Z", 2.0)
	rows := mergeTrajectory(data, cur)
	if len(rows) != 2 {
		t.Fatalf("got %d rows, want synthesized old + current", len(rows))
	}
	if rows[0].GeneratedAt != "2025-12-01T00:00:00Z" || rows[0].QabenchSpeedup != 1.5 {
		t.Errorf("synthesized row wrong: %+v", rows[0])
	}
	if rows[0].Benchmarks != 1 || rows[0].JoinRounds != 3 || rows[0].EvictRounds != 7 {
		t.Errorf("synthesized row lost snapshot fields: %+v", rows[0])
	}
}

// TestMergeTrajectoryFreshOnGarbage: a missing or corrupt previous file
// must start a one-row history, not fail the bench run.
func TestMergeTrajectoryFreshOnGarbage(t *testing.T) {
	cur := sampleReport("2026-01-01T00:00:00Z", 2.0)
	for _, prev := range [][]byte{nil, []byte("{truncated"), []byte("")} {
		rows := mergeTrajectory(prev, cur)
		if len(rows) != 1 || rows[0].GeneratedAt != cur.GeneratedAt {
			t.Errorf("prev %q: rows = %+v", prev, rows)
		}
	}
}

// TestBenchLineParsesThroughputColumn pins the row format the frame
// benchmark emits: SetBytes adds an MB/s column between ns/op and the
// -benchmem columns, which the regex must not swallow into B/op.
func TestBenchLineParsesThroughputColumn(t *testing.T) {
	cases := []struct {
		line              string
		mbps, bpo, allocs string
	}{
		{"BenchmarkFetchFrameRoundTrip-8   200  63822 ns/op  497.05 MB/s  8908 B/op  14 allocs/op", "497.05", "8908", "14"},
		{"BenchmarkTransportRPC/pooled-8  200  933079 ns/op  450978 B/op  1120 allocs/op", "", "450978", "1120"},
		{"BenchmarkFigure1  1  1115 ns/op", "", "", ""},
	}
	for _, tc := range cases {
		m := benchLine.FindStringSubmatch(tc.line)
		if m == nil {
			t.Fatalf("no match: %s", tc.line)
		}
		if m[4] != tc.mbps || m[5] != tc.bpo || m[6] != tc.allocs {
			t.Errorf("%s: MB/s=%q B/op=%q allocs=%q, want %q %q %q",
				tc.line, m[4], m[5], m[6], tc.mbps, tc.bpo, tc.allocs)
		}
	}
}
