package main

import (
	"sync"
	"time"

	"github.com/qamarket/qamarket/internal/trace"
)

// tracedBlock is how many queries run traced, then untraced, in turn:
// alternating short blocks cancels drift (heap growth, EMA history)
// between the two means behind trace.overhead_share. The first block of
// each kind warms the traced client's connections and is dropped.
const tracedBlock = 8

// tracedPass runs the workload with ClientConfig.Tracer set on a second
// client of the same federation and pulls each query's spans with
// Client.TraceSpans as it completes (the server rings hold 4096 spans).
// Closed-loop workloads run sequentially, so a layer's time is not
// inflated by waiting behind the other worker; the open loop replays its
// schedule, so queueing and refusals are in the picture. untracedMeanMs
// is the open loop's untraced reference, from the counters pass.
func tracedPass(s *session, budget time.Duration, untracedMeanMs float64, out map[string]float64) error {
	rec := trace.NewRecorder("client", trace.DefaultCapacity, nil)
	client, err := s.fed.newClient(s.cfg.seed, rec)
	if err != nil {
		return err
	}
	defer client.Close()
	if err := s.fed.settle(client); err != nil {
		return err
	}
	traced := s.counted(newOp(s.cfg.w.op, client))
	var (
		mu   sync.Mutex
		sums layerSums
	)
	// timed runs one traced query and folds its spans; the spans RPCs
	// stay outside the stopwatch.
	timed := func(id int64, q query, keep bool) opResult {
		t0 := time.Now()
		res := traced(id, q, keep)
		wall := msSince(t0)
		if res.err == nil {
			lt := foldTrace(client.TraceSpans(id), s.cfg.w.execsPerQuery)
			mu.Lock()
			sums.add(lt, wall)
			mu.Unlock()
		}
		return res
	}

	overhead := 0.0
	if s.cfg.w.rate > 0 {
		due := poissonSchedule(s.cfg.seed+2, s.cfg.w.rate, budget)
		samples := s.loop(timed).runOpen(due, -1, nil)
		var lat []float64
		for _, sm := range samples {
			if sm.err != nil {
				s.failuref("traced query: %v", sm.err)
				continue
			}
			lat = append(lat, sm.latMs)
		}
		if untracedMeanMs > 0 {
			overhead = (mean(lat) - untracedMeanMs) / untracedMeanMs
		}
	} else {
		qr := newQueryRand(s.cfg.seed)
		deadline := time.Now().Add(budget)
		var untracedMs []float64
		for block := 0; time.Now().Before(deadline) && sums.queries < s.cfg.w.tracedQueries; block++ {
			isTraced, warm := block%2 == 0, block < 2
			for i := 0; i < tracedBlock; i++ {
				q := s.fed.inst.at(qr, s.cursor.Add(1)-1)
				id := s.ids.take()
				var res opResult
				switch {
				case isTraced && warm:
					res = traced(id, q, false)
				case isTraced:
					res = timed(id, q, false)
				default:
					t0 := time.Now()
					res = s.op(id, q, false)
					if !warm && res.err == nil {
						untracedMs = append(untracedMs, msSince(t0))
					}
				}
				if res.err != nil {
					s.failuref("traced pass: %q: %v", q.SQL, res.err)
				}
			}
		}
		if len(untracedMs) > 0 && sums.queries > 0 {
			base := mean(untracedMs)
			overhead = (sums.wallMs/float64(sums.queries) - base) / base
		}
	}
	sums.values(out)
	out["trace.overhead_share"] = overhead
	// One span in twenty thousand starts across a wall-clock adjustment
	// and lands microseconds outside its parent; that is the host's
	// clock, reported in trace.negative_self. More than one query in a
	// thousand is a parenting fault in the program.
	if sums.negative*1000 > sums.queries {
		s.problemf("%d spans with negative self time in %d traced queries", sums.negative, sums.queries)
	}
	if rv := out["trace.root_vs_wall"]; sums.queries > 0 && (rv < 0.95 || rv > 1.05) {
		s.problemf("root spans are %.3f of the stopwatch, want within 5%%", rv)
	}
	return nil
}
