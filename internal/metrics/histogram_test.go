package metrics

import (
	"math"
	"sync"
	"testing"
)

// TestHistogramBucketEdges pins edge-robust bucketing at every exact
// bucket boundary: a value exactly at histMinMs·g^i belongs to bucket
// i (buckets are [low, high) by construction). The naive
// log(ms/min)/log(g) bucketing rounds just below the integer at 21 of
// the 88 edges and truncates into bucket i−1; this table fails on it.
func TestHistogramBucketEdges(t *testing.T) {
	for i := 0; i < histBuckets; i++ {
		edge := histMinMs * math.Pow(histGrowth, float64(i))
		if got := histBucketOf(edge); got != i {
			t.Errorf("exact edge %d (%.12g ms) -> bucket %d, want %d", i, edge, got, i)
		}
		// Nudging one ULP below the edge must stay in the bucket below
		// (or 0 for the first edge, whose lower neighbors clamp).
		below := math.Nextafter(edge, 0)
		wantBelow := i - 1
		if wantBelow < 0 {
			wantBelow = 0
		}
		if got := histBucketOf(below); got != wantBelow {
			t.Errorf("just below edge %d (%.12g ms) -> bucket %d, want %d", i, below, got, wantBelow)
		}
	}
	// The overflow bucket starts at the 88th edge.
	top := histMinMs * math.Pow(histGrowth, float64(histBuckets))
	if got := histBucketOf(top); got != histBuckets {
		t.Errorf("overflow edge (%.12g ms) -> bucket %d, want %d", top, got, histBuckets)
	}
	if got := histBucketOf(math.Nextafter(top, 0)); got != histBuckets-1 {
		t.Errorf("just below overflow -> bucket %d, want %d", got, histBuckets-1)
	}
	if got := histBucketOf(0); got != 0 {
		t.Errorf("zero -> bucket %d, want 0", got)
	}
	if got := histBucketOf(math.Inf(1)); got != histBuckets {
		t.Errorf("+Inf -> bucket %d, want overflow", got)
	}
}

func TestHistogramBucketsSnapshot(t *testing.T) {
	h := NewHistogram()
	h.Observe(0.5)
	h.Observe(0.5)
	h.Observe(1e9) // overflow bucket
	b := h.Buckets()
	if len(b.UpperMs) != histBuckets+1 || len(b.CumCount) != histBuckets+1 {
		t.Fatalf("bucket layout %d/%d, want %d", len(b.UpperMs), len(b.CumCount), histBuckets+1)
	}
	if b.Count != 3 || b.SumMs != 1e9+1 {
		t.Fatalf("count=%d sum=%v", b.Count, b.SumMs)
	}
	if !math.IsInf(b.UpperMs[histBuckets], 1) {
		t.Fatalf("last upper bound = %v, want +Inf", b.UpperMs[histBuckets])
	}
	if b.CumCount[histBuckets] != 3 {
		t.Fatalf("final cumulative count = %d, want 3", b.CumCount[histBuckets])
	}
	// Cumulative counts are monotone and the 0.5 ms pair lands at its
	// bucket's edge and stays counted from there on.
	i05 := histBucketOf(0.5)
	if b.CumCount[i05] != 2 {
		t.Fatalf("cum count at 0.5ms bucket = %d, want 2", b.CumCount[i05])
	}
	for i := 1; i < len(b.CumCount); i++ {
		if b.CumCount[i] < b.CumCount[i-1] {
			t.Fatalf("cumulative counts not monotone at %d", i)
		}
		if b.UpperMs[i] <= b.UpperMs[i-1] {
			t.Fatalf("upper bounds not increasing at %d", i)
		}
	}
}

func TestHistogramEmpty(t *testing.T) {
	h := NewHistogram()
	if got := h.Quantile(0.5); got != 0 {
		t.Fatalf("empty quantile = %v, want 0", got)
	}
	if s := h.Summary(); s != (HistSummary{}) {
		t.Fatalf("empty summary = %+v, want zero", s)
	}
}

func TestHistogramSingleValue(t *testing.T) {
	h := NewHistogram()
	h.Observe(3.7)
	for _, q := range []float64{0, 0.5, 0.95, 0.99, 1} {
		if got := h.Quantile(q); got != 3.7 {
			t.Fatalf("Quantile(%v) = %v, want exactly 3.7 (min/max clamp)", q, got)
		}
	}
	s := h.Summary()
	if s.Count != 1 || s.MeanMs != 3.7 || s.MinMs != 3.7 || s.MaxMs != 3.7 {
		t.Fatalf("summary = %+v", s)
	}
}

func TestHistogramQuantileAccuracy(t *testing.T) {
	h := NewHistogram()
	// 1..1000 ms uniformly: p50 ≈ 500, p95 ≈ 950, p99 ≈ 990. The bucket
	// growth factor bounds relative error at 25%.
	for i := 1; i <= 1000; i++ {
		h.Observe(float64(i))
	}
	for _, tc := range []struct{ q, want float64 }{
		{0.50, 500}, {0.95, 950}, {0.99, 990},
	} {
		got := h.Quantile(tc.q)
		if rel := math.Abs(got-tc.want) / tc.want; rel > 0.25 {
			t.Errorf("Quantile(%v) = %v, want %v ±25%%", tc.q, got, tc.want)
		}
	}
	s := h.Summary()
	if s.MinMs != 1 || s.MaxMs != 1000 || s.Count != 1000 {
		t.Fatalf("summary bounds = %+v", s)
	}
	if math.Abs(s.MeanMs-500.5) > 1e-9 {
		t.Fatalf("mean = %v, want 500.5 (exact sum)", s.MeanMs)
	}
	// Quantiles are monotone and inside [min, max].
	prev := 0.0
	for _, q := range []float64{0.1, 0.25, 0.5, 0.75, 0.9, 0.95, 0.99, 1} {
		v := h.Quantile(q)
		if v < prev || v < s.MinMs || v > s.MaxMs {
			t.Fatalf("Quantile(%v) = %v not monotone/clamped (prev %v)", q, v, prev)
		}
		prev = v
	}
}

func TestHistogramEdgeValues(t *testing.T) {
	h := NewHistogram()
	h.Observe(0)          // below first bucket edge
	h.Observe(-5)         // clamps to 0
	h.Observe(math.NaN()) // dropped
	h.Observe(1e9)        // overflow bucket
	if got := h.Count(); got != 3 {
		t.Fatalf("count = %d, want 3 (NaN dropped)", got)
	}
	if got := h.Quantile(1); got != 1e9 {
		t.Fatalf("p100 = %v, want max clamp 1e9", got)
	}
	if got := h.Quantile(0); got != 0 {
		t.Fatalf("p0 = %v, want min clamp 0", got)
	}
}

func TestHistogramMerge(t *testing.T) {
	a, b, both := NewHistogram(), NewHistogram(), NewHistogram()
	for i := 1; i <= 100; i++ {
		a.Observe(float64(i))
		both.Observe(float64(i))
	}
	for i := 101; i <= 200; i++ {
		b.Observe(float64(i))
		both.Observe(float64(i))
	}
	a.Merge(b)
	if a.Count() != both.Count() {
		t.Fatalf("merged count = %d, want %d", a.Count(), both.Count())
	}
	if got, want := a.Summary(), both.Summary(); got != want {
		t.Fatalf("merged summary %+v != direct %+v", got, want)
	}
}

func TestHistogramConcurrent(t *testing.T) {
	h := NewHistogram()
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 1000; i++ {
				h.Observe(float64(g*1000+i) / 100)
				if i%100 == 0 {
					h.Quantile(0.5)
					h.Summary()
				}
			}
		}(g)
	}
	wg.Wait()
	if got := h.Count(); got != 8000 {
		t.Fatalf("count = %d, want 8000", got)
	}
}

func TestHistogramBucketMapping(t *testing.T) {
	// Every bucket's representative value maps back into that bucket (or
	// its immediate neighbor for float rounding at edges) — the property
	// that keeps quantile error within one bucket width.
	for i := 0; i < histBuckets; i++ {
		rep := bucketRep(i)
		got := histBucketOf(rep)
		if got < i-1 || got > i+1 {
			t.Fatalf("bucketRep(%d) = %v maps to bucket %d", i, rep, got)
		}
	}
	if histBucketOf(1e12) != histBuckets {
		t.Fatal("huge value must land in overflow bucket")
	}
}

// Quantile is quantileLocked under the histogram's lock.
func (h *Histogram) Quantile(q float64) float64 {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.quantileLocked(q)
}
