package main

import (
	"math"
	"testing"
)

func seq(n int) []float64 {
	out := make([]float64, n)
	for i := range out {
		out[i] = float64(i + 1)
	}
	return out
}

func TestPercentilePicker(t *testing.T) {
	cases := []struct {
		n         int
		q         float64
		want      float64 // value in 1..n
		supported bool
	}{
		{1000, 0.50, 500, true},
		{1000, 0.90, 900, true},
		{1000, 0.99, 990, true}, // exactly ten beyond
		{999, 0.99, 989, false}, // 9.99 beyond: clamped to rank n-10
		{144, 0.90, 130, true},  // 14.4 beyond
		{144, 0.99, 134, false}, // clamped: p99 of 144 is the 134th value
		{100, 0.90, 90, true},   // the smallest sample that supports p90
		{99, 0.90, 89, false},   // one short
		{30, 0.50, 15, true},    // the median needs only 20
		{12, 0.90, 6, false},    // clamping never goes below the median
		{5, 0.99, 3, false},     // nor for tiny samples
	}
	for _, c := range cases {
		got, eff := percentile(seq(c.n), c.q)
		if got != c.want {
			t.Errorf("percentile(n=%d, q=%g) = %g, want %g", c.n, c.q, got, c.want)
		}
		if supported(c.n, c.q) != c.supported {
			t.Errorf("supported(n=%d, q=%g) = %t, want %t", c.n, c.q, !c.supported, c.supported)
		}
		if c.supported && math.Abs(eff-c.q) > 1.0/float64(c.n) {
			t.Errorf("percentile(n=%d, q=%g) reported quantile %g", c.n, c.q, eff)
		}
		if !c.supported && eff >= c.q {
			t.Errorf("percentile(n=%d, q=%g) unsupported but reports quantile %g", c.n, c.q, eff)
		}
	}
	if v, eff := percentile(nil, 0.9); v != 0 || eff != 0 {
		t.Errorf("percentile of nothing = %g, %g", v, eff)
	}
}

// The acceptance check takes Python's statistics.quantiles(xs, n=4); the
// expected values below were computed with it.
func TestQuartilesMatchPython(t *testing.T) {
	xs := []float64{10.2, 9.8, 10.0, 10.5, 9.9, 10.1, 10.4, 9.7, 10.3, 10.6}
	q1, q2, q3 := quartiles(xs)
	for _, c := range []struct{ got, want float64 }{{q1, 9.875}, {q2, 10.15}, {q3, 10.425}} {
		if math.Abs(c.got-c.want) > 1e-9 {
			t.Errorf("quartile %g, want %g", c.got, c.want)
		}
	}
	if got, want := spread(xs), (10.425-9.875)/10.15; math.Abs(got-want) > 1e-9 {
		t.Errorf("spread %g, want %g", got, want)
	}
	// Three runs have no quartiles: the range stands in.
	if got, want := spread([]float64{9, 10, 12}), 0.3; math.Abs(got-want) > 1e-9 {
		t.Errorf("spread of three %g, want %g", got, want)
	}
}
