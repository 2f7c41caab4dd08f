package main

import (
	"math"
	"sort"
)

// minBeyond is how many samples must lie beyond a percentile for it to
// be reported as that percentile: with fewer, the rank is set by a
// handful of outliers and does not repeat between runs.
const minBeyond = 10

// supported reports whether the q-quantile (0<q<1) of n samples has at
// least minBeyond samples beyond it.
func supported(n int, q float64) bool {
	return float64(n)*(1-q) >= minBeyond-1e-9 // 100*(1-0.9) is 9.999999999999998
}

// percentile returns the nearest-rank q-quantile of an ascending slice,
// clamped down to the highest rank that still has minBeyond samples
// above it, together with the quantile actually reported. p50 of 30
// samples is p50; p99 of 144 samples is reported as the 134th value
// (p93), because 1.44 samples beyond a rank is noise, not a tail.
// Samples too few for any clamping (n <= minBeyond) yield the median.
func percentile(sorted []float64, q float64) (value, effective float64) {
	n := len(sorted)
	if n == 0 {
		return 0, 0
	}
	rank := int(math.Ceil(q*float64(n) - 1e-9)) // 1-based nearest rank; 0.9*100 is 90.00000000000001
	if limit := n - minBeyond; rank > limit {
		rank = limit
	}
	if half := (n + 1) / 2; rank < half {
		rank = half
	}
	return sorted[rank-1], float64(rank) / float64(n)
}

// sortedCopy returns xs ascending without disturbing the caller's order.
func sortedCopy(xs []float64) []float64 {
	out := append([]float64(nil), xs...)
	sort.Float64s(out)
	return out
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

func median(xs []float64) float64 {
	n := len(xs)
	if n == 0 {
		return 0
	}
	s := sortedCopy(xs)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// quartiles reproduces Python's statistics.quantiles(xs, n=4) (the
// default "exclusive" method), the rule the acceptance check applies to
// ten runs of a metric. It needs at least two values.
func quartiles(xs []float64) (q1, q2, q3 float64) {
	s := sortedCopy(xs)
	m := len(s)
	at := func(i int) float64 {
		j := i * (m + 1) / 4
		if j < 1 {
			j = 1
		}
		if j > m-1 {
			j = m - 1
		}
		delta := float64(i*(m+1) - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return at(1), at(2), at(3)
}

// spread is the run-to-run noise of a metric: the distance between the
// first and third quartile as a share of the median. Fewer than four
// values have no meaningful quartiles, so the full range stands in.
func spread(xs []float64) float64 {
	if len(xs) < 2 {
		return 0
	}
	med := median(xs)
	if med == 0 {
		return 0
	}
	if len(xs) < 4 {
		s := sortedCopy(xs)
		return math.Abs((s[len(s)-1] - s[0]) / med)
	}
	q1, _, q3 := quartiles(xs)
	return math.Abs((q3 - q1) / med)
}
