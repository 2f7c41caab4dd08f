// Package metrics collects the measurements reported in Section 5: per-
// query response times, per-period executed-query counts, and the
// response-time normalization the paper applies (dividing each
// algorithm's average by QA-NT's).
package metrics

import (
	"fmt"
	"math"
)

// Sample records one completed query.
type Sample struct {
	Class      int
	Origin     int
	Node       int   // executing node
	ArrivalMs  int64 // when the query entered the system
	StartMs    int64 // when execution began
	FinishMs   int64 // when execution completed
	Resubmits  int   // times the query was pushed to a later period
	ExecutedMs int64 // pure execution time at the node
}

// ResponseMs is the end-to-end response time the experiments report.
func (s Sample) ResponseMs() int64 { return s.FinishMs - s.ArrivalMs }

// Collector accumulates samples for one experiment run.
type Collector struct {
	samples []Sample
}

// Add records a completed query.
func (c *Collector) Add(s Sample) { c.samples = append(c.samples, s) }

// Samples returns the recorded samples (not a copy; callers must not
// mutate). Only tests read them one by one: the simulator's golden
// digest and invariant checks.
func (c *Collector) Samples() []Sample { return c.samples }

// Completed returns how many queries finished.
func (c *Collector) Completed() int { return len(c.samples) }

// Summary condenses a run into the figures' reporting quantities.
type Summary struct {
	Completed  int
	MeanRespMs float64
}

// Summarize computes the summary statistics of the run.
func (c *Collector) Summarize() Summary {
	s := Summary{Completed: len(c.samples)}
	if s.Completed == 0 {
		return s
	}
	var sum int64
	for _, smp := range c.samples {
		sum += smp.ResponseMs()
	}
	s.MeanRespMs = float64(sum) / float64(s.Completed)
	return s
}

// ExecutedPerBucket counts queries whose execution *finished* inside
// each half-second bucket — the "queries executed" series of Figure 5c.
func (c *Collector) ExecutedPerBucket(bucketMs, horizonMs int64, class int) []int {
	n := int((horizonMs + bucketMs - 1) / bucketMs)
	out := make([]int, n)
	for _, s := range c.samples {
		if class >= 0 && s.Class != class {
			continue
		}
		b := int(s.FinishMs / bucketMs)
		if b >= 0 && b < n {
			out[b]++
		}
	}
	return out
}

// Normalize divides each algorithm's mean response time by the
// reference algorithm's (the paper normalizes against QA-NT). Values
// above 1 mean "slower than the reference".
func Normalize(means map[string]float64, reference string) (map[string]float64, error) {
	ref, ok := means[reference]
	if !ok {
		return nil, fmt.Errorf("metrics: reference %q missing", reference)
	}
	if ref <= 0 || math.IsNaN(ref) {
		return nil, fmt.Errorf("metrics: reference mean %g not positive", ref)
	}
	out := make(map[string]float64, len(means))
	for k, v := range means {
		out[k] = v / ref
	}
	return out, nil
}
