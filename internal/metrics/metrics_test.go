package metrics

import (
	"math"
	"testing"
)

func TestSampleResponse(t *testing.T) {
	s := Sample{ArrivalMs: 100, FinishMs: 700}
	if s.ResponseMs() != 600 {
		t.Errorf("ResponseMs = %d, want 600", s.ResponseMs())
	}
}

func TestSummarizeEmpty(t *testing.T) {
	var c Collector
	s := c.Summarize()
	if s.Completed != 0 || s.MeanRespMs != 0 {
		t.Errorf("empty summary: %+v", s)
	}
}

func TestSummarizeStats(t *testing.T) {
	var c Collector
	for i, resp := range []int64{100, 200, 300, 400} {
		c.Add(Sample{
			ArrivalMs:  0,
			FinishMs:   resp,
			StartMs:    0,
			Resubmits:  i % 2,
			ExecutedMs: 50,
		})
	}
	s := c.Summarize()
	if s.Completed != 4 {
		t.Fatalf("counts: %+v", s)
	}
	if s.MeanRespMs != 250 {
		t.Errorf("mean = %g, want 250", s.MeanRespMs)
	}
}

func TestExecutedPerBucket(t *testing.T) {
	var c Collector
	c.Add(Sample{Class: 0, FinishMs: 100})
	c.Add(Sample{Class: 0, FinishMs: 499})
	c.Add(Sample{Class: 1, FinishMs: 450})
	c.Add(Sample{Class: 0, FinishMs: 900})
	all := c.ExecutedPerBucket(500, 1000, -1)
	if all[0] != 3 || all[1] != 1 {
		t.Errorf("all-class buckets = %v", all)
	}
	q0 := c.ExecutedPerBucket(500, 1000, 0)
	if q0[0] != 2 || q0[1] != 1 {
		t.Errorf("class-0 buckets = %v", q0)
	}
	// Finishes beyond the horizon fall off the series.
	c.Add(Sample{Class: 0, FinishMs: 5000})
	if got := c.ExecutedPerBucket(500, 1000, 0); len(got) != 2 {
		t.Errorf("horizon not respected: %v", got)
	}
}

func TestNormalize(t *testing.T) {
	means := map[string]float64{"qa-nt": 200, "greedy": 260, "random": 600}
	norm, err := Normalize(means, "qa-nt")
	if err != nil {
		t.Fatalf("Normalize: %v", err)
	}
	if norm["qa-nt"] != 1 {
		t.Errorf("reference not 1: %g", norm["qa-nt"])
	}
	if math.Abs(norm["greedy"]-1.3) > 1e-9 {
		t.Errorf("greedy = %g, want 1.3", norm["greedy"])
	}
	if _, err := Normalize(means, "missing"); err == nil {
		t.Error("missing reference accepted")
	}
	if _, err := Normalize(map[string]float64{"x": 0}, "x"); err == nil {
		t.Error("zero reference accepted")
	}
}
