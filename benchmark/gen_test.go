package main

import (
	"strings"
	"testing"
	"time"
)

// sqlList renders the first n statements of a workload's seeded list.
func sqlList(t *testing.T, w *workload, seed int64, n int) string {
	t.Helper()
	inst, err := w.build(seed, true)
	if err != nil {
		t.Fatalf("%s seed %d: %v", w.name, seed, err)
	}
	qr := newQueryRand(seed)
	var b strings.Builder
	for i := int64(0); i < int64(n); i++ {
		b.WriteString(inst.at(qr, i).SQL)
		b.WriteByte('\n')
	}
	return b.String()
}

func TestSameSeedSameInputs(t *testing.T) {
	for _, w := range workloads {
		a, b := sqlList(t, w, 7, 300), sqlList(t, w, 7, 300)
		if a != b {
			t.Errorf("%s: the same seed rendered two different SQL lists", w.name)
		}
		if c := sqlList(t, w, 8, 300); a == c {
			t.Errorf("%s: seeds 7 and 8 rendered the same SQL list", w.name)
		}
	}
}

// Query i is a function of (seed, i) alone: workers that draw positions
// in a different order render the same statements.
func TestQueryIndependentOfDrawOrder(t *testing.T) {
	w := findWorkload(wScan)
	inst, err := w.build(3, true)
	if err != nil {
		t.Fatal(err)
	}
	a, b := newQueryRand(3), newQueryRand(3)
	forward := make([]string, 50)
	for i := range forward {
		forward[i] = inst.at(a, int64(i)).SQL
	}
	for i := len(forward) - 1; i >= 0; i-- {
		if got := inst.at(b, int64(i)).SQL; got != forward[i] {
			t.Fatalf("query %d: %q drawn backwards, %q forwards", i, got, forward[i])
		}
	}
}

// Every cycle of scan-exec holds its shapes 3:3:4:3, whatever the seed:
// the weights are what keeps the mix's median off the gap between two
// shapes' latencies.
func TestScanMixWeights(t *testing.T) {
	w := findWorkload(wScan)
	for seed := int64(1); seed <= 3; seed++ {
		inst, err := w.build(seed, true)
		if err != nil {
			t.Fatal(err)
		}
		qr := newQueryRand(seed)
		for cycle := int64(0); cycle < 5; cycle++ {
			var got [4]int
			for i := cycle * 13; i < (cycle+1)*13; i++ {
				got[inst.at(qr, i).Tmpl]++
			}
			if got != [4]int{3, 3, 4, 3} {
				t.Fatalf("seed %d cycle %d: shapes %v, want [3 3 4 3]", seed, cycle, got)
			}
		}
	}
}

// The jitter keeps statement texts distinct without moving the result:
// it stays strictly inside one cell of b's 0.5 grid.
func TestJitterKeepsCanonicalResult(t *testing.T) {
	for _, name := range []string{wScan, wDist} {
		w := findWorkload(name)
		inst, err := w.build(5, true)
		if err != nil {
			t.Fatal(err)
		}
		orc := newOracle(inst)
		qr := newQueryRand(5)
		texts := make(map[string]bool)
		for i := int64(0); i < 40; i++ {
			q := inst.at(qr, i)
			texts[q.SQL] = true
			want, err := orc.rows(q)
			if err != nil {
				t.Fatal(err)
			}
			got, err := inst.oracleDB(q).Query(q.SQL)
			if err != nil {
				t.Fatal(err)
			}
			if len(got.Rows) != want {
				t.Fatalf("%s: %q has %d rows, its canonical form %q has %d", name, q.SQL, len(got.Rows), q.Canon, want)
			}
		}
		if len(texts) < 30 {
			t.Errorf("%s: 40 queries rendered only %d distinct texts", name, len(texts))
		}
	}
}

func TestScheduleSeeded(t *testing.T) {
	a := poissonSchedule(11, 35, 10*time.Second)
	b := poissonSchedule(11, 35, 10*time.Second)
	c := poissonSchedule(12, 35, 10*time.Second)
	if len(a) != len(b) {
		t.Fatalf("same seed: %d and %d arrivals", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("same seed: arrival %d at %v and %v", i, a[i], b[i])
		}
		if i > 0 && a[i] < a[i-1] {
			t.Fatalf("arrival %d before arrival %d", i, i-1)
		}
	}
	same := len(a) == len(c)
	for i := 0; same && i < len(a); i++ {
		same = a[i] == c[i]
	}
	if same {
		t.Fatal("seeds 11 and 12 gave the same schedule")
	}
	// The count is the process's expectation, not a draw.
	if len(a) != 350 || len(c) != 350 {
		t.Fatalf("%d and %d arrivals in 10 s at 35/s, want 350", len(a), len(c))
	}
	if last := a[len(a)-1]; last >= 10*time.Second {
		t.Fatalf("last arrival at %v, outside the window", last)
	}
}
