package metrics

import (
	"fmt"
	"math"
	"sync"
)

// Fixed log-scale bucket layout shared by every Histogram, so any two
// histograms merge bucket-by-bucket without renormalization. Bucket i
// covers [histMinMs·g^i, histMinMs·g^(i+1)) milliseconds; the final
// slot is the overflow bucket. With g = 1.25 the relative quantile
// error is bounded by one bucket width (≤ 25%, ~12% at the geometric
// midpoint), and 88 buckets span 10 µs to ~56 minutes.
const (
	histMinMs   = 0.01
	histGrowth  = 1.25
	histBuckets = 88
)

// Histogram is a fixed-bucket log-scale latency histogram: cheap to
// record into, mergeable, and race-clean. Quantiles (p50/p95/p99) are
// derived from the bucket counts, clamped to the exact observed
// min/max so degenerate distributions report sharp values. The zero
// value is not usable; call NewHistogram.
type Histogram struct {
	mu     sync.Mutex
	counts [histBuckets + 1]uint64
	count  uint64
	sum    float64
	min    float64
	max    float64
}

// NewHistogram builds an empty histogram.
func NewHistogram() *Histogram {
	return &Histogram{min: math.Inf(1), max: math.Inf(-1)}
}

// Observe records one measurement in milliseconds. NaN is dropped;
// negative values clamp to zero.
func (h *Histogram) Observe(ms float64) {
	if math.IsNaN(ms) {
		return
	}
	if ms < 0 {
		ms = 0
	}
	i := histBucketOf(ms)
	h.mu.Lock()
	h.counts[i]++
	h.count++
	h.sum += ms
	if ms < h.min {
		h.min = ms
	}
	if ms > h.max {
		h.max = ms
	}
	h.mu.Unlock()
}

// histBounds[i] is the inclusive lower edge of bucket i, precomputed so
// bucketing and exposition agree on the exact float64 edge values.
// histBounds[histBuckets] is the lower edge of the overflow bucket.
var histBounds = func() [histBuckets + 1]float64 {
	var b [histBuckets + 1]float64
	for i := range b {
		b[i] = histMinMs * math.Pow(histGrowth, float64(i))
	}
	return b
}()

// histBucketOf maps a value to its bucket index. The log gives a fast
// estimate, but at an exact edge histMinMs·g^i the float division can
// land just below i and truncate into bucket i−1 (and symmetrically
// just above), so the estimate is corrected against the precomputed
// edges; each loop runs at most one step.
func histBucketOf(ms float64) int {
	if ms < histMinMs {
		return 0
	}
	i := int(math.Log(ms/histMinMs) / math.Log(histGrowth))
	if i < 0 {
		i = 0
	}
	if i > histBuckets {
		i = histBuckets
	}
	for i < histBuckets && ms >= histBounds[i+1] {
		i++
	}
	for i > 0 && ms < histBounds[i] {
		i--
	}
	return i
}

// Merge folds another histogram's observations into h. The other
// histogram is snapshotted under its own lock first, so concurrent
// recording into either side stays safe.
func (h *Histogram) Merge(o *Histogram) {
	o.mu.Lock()
	counts := o.counts
	count, sum, omin, omax := o.count, o.sum, o.min, o.max
	o.mu.Unlock()
	h.mu.Lock()
	for i := range counts {
		h.counts[i] += counts[i]
	}
	h.count += count
	h.sum += sum
	if omin < h.min {
		h.min = omin
	}
	if omax > h.max {
		h.max = omax
	}
	h.mu.Unlock()
}

// Count returns how many observations were recorded.
func (h *Histogram) Count() uint64 {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.count
}

// quantileLocked returns the q-quantile (q in [0,1]) in milliseconds:
// the geometric midpoint of the bucket holding the q·count-th
// observation, clamped to the observed [min, max]. Returns 0 on an empty
// histogram. Callers hold h.mu.
func (h *Histogram) quantileLocked(q float64) float64 {
	if h.count == 0 {
		return 0
	}
	// The extremes are tracked exactly; only interior quantiles pay the
	// bucket resolution.
	if q <= 0 {
		return h.min
	}
	if q >= 1 {
		return h.max
	}
	rank := uint64(math.Ceil(q * float64(h.count)))
	if rank < 1 {
		rank = 1
	}
	if rank > h.count {
		rank = h.count
	}
	var cum uint64
	for i, c := range h.counts {
		cum += c
		if cum >= rank {
			return h.clampLocked(bucketRep(i))
		}
	}
	return h.max // unreachable: cum == count by the loop's end
}

// bucketRep is the representative value reported for a bucket: its
// geometric midpoint. The overflow bucket has no upper bound, so it
// reports +Inf and lets the max clamp pull it to the observed maximum.
func bucketRep(i int) float64 {
	if i >= histBuckets {
		return math.Inf(1)
	}
	return histMinMs * math.Pow(histGrowth, float64(i)+0.5)
}

func (h *Histogram) clampLocked(v float64) float64 {
	if v < h.min {
		return h.min
	}
	if v > h.max {
		return h.max
	}
	return v
}

// HistSummary is a rendered snapshot of a histogram: the quantities
// qactl and qaload report.
type HistSummary struct {
	Count  uint64  `json:"count"`
	MeanMs float64 `json:"mean_ms"`
	P50Ms  float64 `json:"p50_ms"`
	P95Ms  float64 `json:"p95_ms"`
	P99Ms  float64 `json:"p99_ms"`
	MinMs  float64 `json:"min_ms"`
	MaxMs  float64 `json:"max_ms"`
}

// Summary snapshots the histogram into its reporting quantities. An
// empty histogram summarizes to all zeros.
func (h *Histogram) Summary() HistSummary {
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.count == 0 {
		return HistSummary{}
	}
	return HistSummary{
		Count:  h.count,
		MeanMs: h.sum / float64(h.count),
		P50Ms:  h.quantileLocked(0.50),
		P95Ms:  h.quantileLocked(0.95),
		P99Ms:  h.quantileLocked(0.99),
		MinMs:  h.min,
		MaxMs:  h.max,
	}
}

// BucketSnapshot is the raw bucket view of a histogram, for
// Prometheus-style exposition: cumulative counts per upper bound (the
// classic `le` layout), plus the exact sum and count.
type BucketSnapshot struct {
	// UpperMs[i] is bucket i's exclusive upper edge in milliseconds;
	// the final entry is +Inf (the overflow bucket).
	UpperMs []float64
	// CumCount[i] counts observations at or below UpperMs[i].
	CumCount []uint64
	Count    uint64
	SumMs    float64
}

// Buckets snapshots the histogram's cumulative bucket counts. Empty
// buckets are included — the fixed layout is the contract that makes
// scrapes from different nodes comparable.
func (h *Histogram) Buckets() BucketSnapshot {
	h.mu.Lock()
	defer h.mu.Unlock()
	s := BucketSnapshot{
		UpperMs:  make([]float64, histBuckets+1),
		CumCount: make([]uint64, histBuckets+1),
		Count:    h.count,
		SumMs:    h.sum,
	}
	var cum uint64
	for i := range h.counts {
		cum += h.counts[i]
		s.CumCount[i] = cum
		if i < histBuckets {
			s.UpperMs[i] = histBounds[i+1]
		} else {
			s.UpperMs[i] = math.Inf(1)
		}
	}
	return s
}

// String renders the summary on one line.
func (s HistSummary) String() string {
	return fmt.Sprintf("n=%d mean=%.2fms p50=%.2fms p95=%.2fms p99=%.2fms max=%.2fms",
		s.Count, s.MeanMs, s.P50Ms, s.P95Ms, s.P99Ms, s.MaxMs)
}
