package main

import (
	"errors"
	"fmt"
	"os"
	"runtime"
	"runtime/debug"
	"sort"
	"strconv"
	"strings"
	"sync/atomic"
	"syscall"
	"time"

	"github.com/qamarket/qamarket/internal/cluster"
	"github.com/qamarket/qamarket/internal/metrics"
)

// runConfig is one workload run: what the driver's
// --workload/--seed/--seconds/--trace select.
type runConfig struct {
	w       *workload
	seed    int64
	seconds float64
	traced  bool
	quick   bool
}

// metricValue is one reported number.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// runReport is the result line of one run, in the shape the benchmark
// contract fixes, plus the notes a human reads above it.
type runReport struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
	// problems lists the correctness violations found, failures the
	// first few operations that failed outright.
	problems []string
	failures []string
}

const (
	// checkedQueries is how many seeded instantiations the correctness
	// pass compares cell for cell with the oracle before anything is
	// timed; checkedQueriesQuick the same under -quick.
	checkedQueries      = 52
	checkedQueriesQuick = 12
	// extraSetups is how many set-ups are timed beyond the first;
	// setup_s is the median of them all.
	extraSetups = 2
)

// snapshot is every cumulative counter the harness differences across
// the measured window.
type snapshot struct {
	at      time.Time
	cpuMs   float64
	mem     runtime.MemStats
	wireIn  int64
	wireOut int64
	rpc     map[string]int64
	health  map[string]float64
	market  []cluster.MarketTelemetry
}

func rusage() (cpuMs, rssMB float64) {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0, 0
	}
	tv := func(t syscall.Timeval) float64 { return float64(t.Sec)*1e3 + float64(t.Usec)/1e3 }
	// Linux reports ru_maxrss in KiB.
	return tv(ru.Utime) + tv(ru.Stime), float64(ru.Maxrss) / 1024
}

// residentMB reads the process's current resident set from
// /proc/self/statm (0 where there is no procfs).
func residentMB() float64 {
	data, err := os.ReadFile("/proc/self/statm")
	if err != nil {
		return 0
	}
	fields := strings.Fields(string(data))
	if len(fields) < 2 {
		return 0
	}
	pages, err := strconv.ParseFloat(fields[1], 64)
	if err != nil {
		return 0
	}
	return pages * float64(os.Getpagesize()) / (1 << 20)
}

// rssSampler tracks the peak resident set over the measured window.
// ru_maxrss would be simpler, but it is a lifetime high-water mark and
// the correctness pass before the window (whole results shipped and
// compared on the harness side) sets it, not the program under load.
type rssSampler struct {
	stop chan struct{}
	done chan struct{}
	peak float64
}

func startRSSSampler() *rssSampler {
	r := &rssSampler{stop: make(chan struct{}), done: make(chan struct{}), peak: residentMB()}
	go func() {
		defer close(r.done)
		tick := time.NewTicker(20 * time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case <-tick.C:
				r.peak = max(r.peak, residentMB())
			case <-r.stop:
				return
			}
		}
	}()
	return r
}

// finish stops the sampler and returns the peak, falling back to the
// lifetime ru_maxrss where procfs gave nothing.
func (r *rssSampler) finish() float64 {
	close(r.stop)
	<-r.done
	peak := max(r.peak, residentMB())
	if peak == 0 {
		_, peak = rusage()
	}
	return peak
}

func takeSnapshot(f *federation) snapshot {
	s := snapshot{rpc: f.client.RPCCounts(), health: f.client.Health()}
	s.wireIn, s.wireOut = f.client.WireBytes()
	for _, n := range f.nodes {
		s.market = append(s.market, n.MarketTelemetry())
	}
	runtime.ReadMemStats(&s.mem)
	s.cpuMs, _ = rusage()
	s.at = time.Now()
	return s
}

// window is one measured interval of a workload's loop.
type window struct {
	samples []sample
	elapsed time.Duration // start -> last completion
	before  snapshot
	after   snapshot
	peakRSS float64 // MB, sampled over the window
}

// session is the state one process carries through a run: the
// federation, the oracle, the query cursor and the audit counters.
type session struct {
	cfg    runConfig
	fed    *federation
	orc    *oracle
	op     opFunc
	ids    idSeq
	cursor atomic.Int64
	// okOps counts every successful client operation of the process,
	// timed or not: the at-most-once audit's denominator.
	okOps atomic.Int64
	// framedRows counts result rows that travelled back over the wire.
	framedRows atomic.Int64
	// failedOps counts operations that returned an error: each may or
	// may not have executed on a node.
	failedOps atomic.Int64
	problems  []string
	failures  []string
}

// problemf records an incorrect output: the run reports "correct": false.
func (s *session) problemf(format string, args ...any) {
	if len(s.problems) < 20 {
		s.problems = append(s.problems, fmt.Sprintf(format, args...))
	}
}

// failuref records a failed operation — an error or a refusal, not a
// wrong answer. It counts in "failed" and leaves "correct" alone.
func (s *session) failuref(format string, args ...any) {
	if len(s.failures) < 5 {
		s.failures = append(s.failures, fmt.Sprintf(format, args...))
	}
}

// counted wraps an op so the audit sees every success.
func (s *session) counted(op opFunc) opFunc {
	return func(id int64, q query, keep bool) opResult {
		res := op(id, q, keep)
		if res.err == nil {
			s.okOps.Add(1)
			if keep || s.cfg.w.op != opRun {
				s.framedRows.Add(int64(res.shipped))
			}
		} else {
			s.failedOps.Add(1)
		}
		return res
	}
}

// loop binds an operation to the session's query list and counters.
func (s *session) loop(op opFunc) loop {
	return loop{inst: s.fed.inst, seed: s.cfg.seed, cursor: &s.cursor, ids: &s.ids, op: op}
}

func newSession(cfg runConfig) (*session, error) {
	fed, err := startFederation(cfg.w, cfg.seed, cfg.quick)
	if err != nil {
		return nil, err
	}
	s := &session{cfg: cfg, fed: fed, orc: newOracle(fed.inst)}
	s.op = s.counted(newOp(cfg.w.op, fed.client))
	return s, nil
}

// checkPass is the correctness gate's first half: the first seeded
// instantiations run one at a time, results shipped back, and compared
// cell for cell with the oracle. It doubles as the first warm-up.
func (s *session) checkPass() {
	n := checkedQueries
	if s.cfg.quick {
		n = checkedQueriesQuick
	}
	qr := newQueryRand(s.cfg.seed)
	for i := 0; i < n; i++ {
		q := s.fed.inst.at(qr, s.cursor.Add(1)-1)
		res := s.op(s.ids.take(), q, true)
		if res.err != nil {
			s.problemf("check %d: %q: %v", i, q.SQL, res.err)
			continue
		}
		want, err := s.orc.result(q)
		if err != nil {
			s.problemf("check %d: %v", i, err)
			continue
		}
		if err := sameResult(q.SQL, res.result, want); err != nil {
			s.problemf("check %d: %v", i, err)
		}
	}
	// The pass shipped and materialised whole results on the harness
	// side; hand that memory back before anything is measured.
	s.orc.forgetResults()
	debug.FreeOSMemory()
}

// measure runs the workload's loop: a discarded warm-up in the loop's
// own shape, then the window. The open loop is one continuous schedule,
// so the window starts on a federation already carrying its backlog.
func (s *session) measure(warmup, length time.Duration) window {
	w := s.cfg.w
	var win window
	if w.rate <= 0 {
		l := s.loop(s.op)
		l.runClosed(w.workers, warmup)
		rss := startRSSSampler()
		win.before = takeSnapshot(s.fed)
		win.samples, win.elapsed = l.runClosed(w.workers, length)
		win.after = takeSnapshot(s.fed)
		win.peakRSS = rss.finish()
	} else {
		// Warm-up and window are scheduled apart and run as one stream,
		// so the window holds exactly its expected number of arrivals.
		due := poissonSchedule(s.cfg.seed+1, w.rate, warmup)
		first := len(due)
		for _, d := range poissonSchedule(s.cfg.seed, w.rate, length) {
			due = append(due, warmup+d)
		}
		var rss *rssSampler
		all := s.loop(s.op).runOpen(due, first, func() {
			rss = startRSSSampler()
			win.before = takeSnapshot(s.fed)
		})
		win.after = takeSnapshot(s.fed)
		win.peakRSS = rss.finish()
		win.samples = all[first:]
		// The window lasts until its last query is done: the offered
		// window plus whatever the drain took.
		win.elapsed = length
		for k, sm := range win.samples {
			if end := due[first+k] - warmup + time.Duration(sm.latMs*float64(time.Millisecond)); end > win.elapsed {
				win.elapsed = end
			}
		}
	}
	s.verify(&win)
	return win
}

// verify is the gate's second half: every timed query that succeeded
// must have returned the oracle's row count. One that did not is an
// incorrect output, and counts as failed besides.
func (s *session) verify(win *window) {
	qr := newQueryRand(s.cfg.seed)
	for i := range win.samples {
		sm := &win.samples[i]
		if sm.err != nil {
			continue
		}
		q := s.fed.inst.at(qr, sm.idx)
		if want, err := s.orc.rows(q); err != nil {
			sm.err = err
		} else if sm.rows != want {
			sm.err = fmt.Errorf("%q returned %d rows, oracle has %d", q.SQL, sm.rows, want)
		}
		if sm.err != nil {
			s.problemf("%v", sm.err)
		}
	}
}

// audit checks at-most-once execution over the whole process: every
// successful operation cost exactly execsPerQuery node executions.
func (s *session) audit() (executedPerCompleted float64) {
	executed, _ := s.fed.executed()
	ok := s.okOps.Load()
	if ok == 0 {
		s.problemf("no operation succeeded")
		return 0
	}
	// A failed operation may have executed before it failed; without
	// failures the bounds coincide and the audit is exact.
	k := int64(s.cfg.w.execsPerQuery)
	if lo, hi := ok*k, (ok+s.failedOps.Load())*k; int64(executed) < lo || int64(executed) > hi {
		s.problemf("nodes executed %d queries for %d completed and %d failed operations, want exactly %d per completed one",
			executed, ok, s.failedOps.Load(), k)
	}
	return float64(executed) / float64(ok)
}

// tally folds a window into the counts and latency lists every metric
// derives from.
type tally struct {
	attempted, completed  int
	shed, expired, failed int
	withinSLO             int
	shipped               int
	lat                   []float64 // correct completions, ascending
	assign                []float64
	late                  []float64
}

func (s *session) tally(win window) tally {
	t := tally{attempted: len(win.samples)}
	for _, sm := range win.samples {
		t.late = append(t.late, sm.lateMs)
		if sm.err != nil {
			switch {
			case errors.Is(sm.err, cluster.ErrExpired):
				t.expired++
			case errors.Is(sm.err, cluster.ErrOverloaded), errors.Is(sm.err, cluster.ErrRetryBudget):
				t.shed++
			}
			s.failuref("%v", sm.err)
			continue
		}
		t.completed++
		t.shipped += sm.shipped
		t.lat = append(t.lat, sm.latMs)
		t.assign = append(t.assign, sm.assignMs)
		if sm.latMs <= s.cfg.w.sloMs {
			t.withinSLO++
		}
	}
	t.failed = t.attempted - t.completed
	sort.Float64s(t.lat)
	sort.Float64s(t.late)
	return t
}

func perQuery(total float64, t tally) float64 {
	if t.completed == 0 {
		return 0
	}
	return total / float64(t.completed)
}

// endToEndValues derives the end-to-end metrics of one window.
func endToEndValues(win window, t tally, setupS float64) map[string]float64 {
	secs := win.elapsed.Seconds()
	p50, _ := percentile(t.lat, 0.50)
	p90, _ := percentile(t.lat, 0.90)
	wire := float64(win.after.wireIn+win.after.wireOut) - float64(win.before.wireIn+win.before.wireOut)
	return map[string]float64{
		"setup_s":              setupS,
		"qps":                  float64(t.completed) / secs,
		"p50_ms":               p50,
		"p90_ms":               p90,
		"slo_share":            float64(t.withinSLO) / float64(max(t.attempted, 1)),
		"rows_per_s":           float64(t.shipped) / secs,
		"cpu_ms_per_query":     perQuery(win.after.cpuMs-win.before.cpuMs, t),
		"peak_rss_mb":          win.peakRSS,
		"wire_bytes_per_query": perQuery(wire, t),
	}
}

// medianSetup times extraSetups further set-ups of the same seed and
// returns the median with the first: one set-up is a single sample of
// gossip timing, and the set-up bound must hold between runs.
func medianSetup(cfg runConfig, first float64) (float64, error) {
	setups := []float64{first}
	for i := 0; i < extraSetups; i++ {
		f, err := startFederation(cfg.w, cfg.seed, cfg.quick)
		if err != nil {
			return 0, err
		}
		setups = append(setups, f.setupS)
		f.close()
	}
	return median(setups), nil
}

// run executes one workload run and reports it.
func run(cfg runConfig) (*runReport, error) {
	s, err := newSession(cfg)
	if err != nil {
		return nil, err
	}
	// Closed early below, once the federation has answered its last
	// query, so the further set-ups and the replay have the machine to
	// themselves; closing twice is harmless.
	defer s.fed.close()
	s.checkPass()
	length := time.Duration(cfg.seconds * float64(time.Second))
	warmup := cfg.w.warmup
	if cfg.quick {
		warmup = length / 2
	}
	var (
		values map[string]float64
		t      tally
	)
	if !cfg.traced {
		win := s.measure(warmup, length)
		t = s.tally(win)
		s.audit()
		s.fed.close()
		setupS, err := medianSetup(cfg, s.fed.setupS)
		if err != nil {
			return nil, err
		}
		values = endToEndValues(win, t, setupS)
	} else {
		// One process, three passes on one federation: the untraced
		// counters window, the traced pass, the replay.
		values = make(map[string]float64)
		win := s.measure(warmup, length*2/5)
		t = s.tally(win)
		counterValues(s, win, t, values)
		if err := tracedPass(s, length*7/20, mean(t.lat), values); err != nil {
			return nil, err
		}
		values["cluster.executed_per_completed"] = s.audit()
		s.fed.close()
		replay(s, length/4, values)
	}
	rep := &runReport{
		Correct:   len(s.problems) == 0,
		Attempted: t.attempted,
		Failed:    t.failed,
		Metrics:   make(map[string]metricValue, len(values)),
		problems:  s.problems,
		failures:  s.failures,
	}
	names, units := declared(cfg.traced)
	for _, name := range names {
		v, ok := values[name]
		if !ok {
			return nil, fmt.Errorf("metric %s was not measured; problems so far: %q", name, s.problems)
		}
		rep.Metrics[name] = metricValue{Value: v, Unit: units[name]}
	}
	if len(values) != len(names) {
		return nil, fmt.Errorf("measured %d metrics, declared %d", len(values), len(names))
	}
	return rep, nil
}

// declared lists, in declaration order, the metrics a run must report
// and their units: every end-to-end metric untraced, every per-layer
// metric traced.
func declared(traced bool) (names []string, units map[string]string) {
	units = make(map[string]string)
	if traced {
		for _, m := range layerMetrics {
			names, units[m.Name] = append(names, m.Name), m.Unit
		}
	} else {
		for _, m := range endToEndMetrics {
			names, units[m.Name] = append(names, m.Name), m.Unit
		}
	}
	return names, units
}

// counterValues fills the (a) metrics: existing public counters of the
// client, the nodes and the runtime, differenced over the window.
func counterValues(s *session, win window, t tally, out map[string]float64) {
	b, a := win.before, win.after
	for _, op := range []string{"negotiate", "execute", "fetch", "members"} {
		out["cluster."+op+"_rpcs_per_query"] = perQuery(float64(a.rpc[op]-b.rpc[op]), t)
	}
	lat := s.fed.client.OpLatencies()
	for _, op := range []string{"negotiate", "execute", "fetch"} {
		out["cluster."+op+"_rpc_p50_ms"] = lat[op].P50Ms
	}
	out["cluster.assign_p50_ms"] = median(t.assign)
	delta := func(key string) float64 { return a.health[key] - b.health[key] }
	out["cluster.retries_per_query"] = perQuery(delta(metrics.RetriesTotal), t)
	out["cluster.backoff_ms_per_query"] = perQuery(delta(metrics.BackoffMsTotal), t)
	hits, misses := delta(metrics.BidCacheHitsTotal), delta(metrics.BidCacheMissesTotal)
	out["cluster.bid_cache_hit_share"] = 0
	if hits+misses > 0 {
		out["cluster.bid_cache_hit_share"] = hits / (hits + misses)
	}
	out["cluster.shard_skips_per_query"] = perQuery(delta(metrics.ShardSkipsTotal), t)
	out["cluster.wire_in_bytes_per_query"] = perQuery(float64(a.wireIn-b.wireIn), t)
	out["cluster.wire_out_bytes_per_query"] = perQuery(float64(a.wireOut-b.wireOut), t)
	out["cluster.failovers"] = delta(metrics.FailoversTotal)

	// Node health rides the stats op; these are process-lifetime totals
	// (the check pass and the warm-up included), read after the window
	// so the stats RPCs stay out of the wire accounting above.
	var batches, bytes, sheds, dedup float64
	for _, n := range s.fed.nodes {
		st, err := s.fed.client.Stats(n.Addr())
		if err != nil {
			s.problemf("stats %s: %v", n.ID(), err)
			continue
		}
		batches += st.Health[metrics.FetchBatchesTotal]
		bytes += st.Health[metrics.FetchBytesTotal]
		sheds += st.Health[metrics.OverloadTotal] + st.Health[metrics.ExpiredTotal]
		dedup += st.Health[metrics.DedupHitsTotal]
	}
	out["cluster.frames_per_fetch"], out["cluster.frame_bytes_per_row"] = 0, 0
	if fetches := float64(a.rpc["fetch"]); fetches > 0 {
		out["cluster.frames_per_fetch"] = batches / fetches
	}
	if rows := s.framedRows.Load(); rows > 0 {
		out["cluster.frame_bytes_per_row"] = bytes / float64(rows)
	}
	out["cluster.sheds"] = sheds
	out["cluster.dedup_hits"] = dedup
	_, out["cluster.busiest_node_share"] = s.fed.executed()

	out["cluster.total_mean_ms"] = mean(t.lat)
	out["cluster.total_p95_ms"], _ = percentile(t.lat, 0.95)
	out["cluster.total_p99_ms"], _ = percentile(t.lat, 0.99)

	var offers, rejects, unsold, periods, classes, priceSum float64
	for i := range a.market {
		sa, sb := a.market[i].Stats, b.market[i].Stats
		offers += float64(sa.Offers - sb.Offers)
		rejects += float64(sa.Rejects - sb.Rejects)
		unsold += float64(sa.Unsold - sb.Unsold)
		periods += float64(sa.Periods - sb.Periods)
		for _, c := range a.market[i].Classes {
			classes++
			priceSum += c.Price
		}
	}
	out["market.offers_per_query"] = perQuery(offers, t)
	out["market.rejects_per_query"] = perQuery(rejects, t)
	out["market.unsold_per_period"] = unsold / max(periods, 1)
	out["market.price_index"] = priceSum / max(classes, 1)
	out["market.classes"] = classes
	out["market.periods"] = periods

	out["runtime.alloc_kb_per_query"] = perQuery(float64(a.mem.TotalAlloc-b.mem.TotalAlloc)/1024, t)
	out["runtime.allocs_per_query"] = perQuery(float64(a.mem.Mallocs-b.mem.Mallocs), t)
	out["runtime.gc_cycles"] = float64(a.mem.NumGC - b.mem.NumGC)
	out["runtime.gc_pause_ms"] = float64(a.mem.PauseTotalNs-b.mem.PauseTotalNs) / 1e6
	out["runtime.cpu_cores_busy"] = (a.cpuMs - b.cpuMs) / (a.at.Sub(b.at).Seconds() * 1e3)

	out["loadgen.late_p99_ms"], _ = percentile(t.late, 0.99)
	out["loadgen.attempted"] = float64(t.attempted)
	out["loadgen.completed"] = float64(t.completed)
	out["loadgen.failed"] = float64(t.failed)
	out["loadgen.fail_share"] = float64(t.failed) / float64(max(t.attempted, 1))
	out["loadgen.shed"] = float64(t.shed)
	out["loadgen.expired"] = float64(t.expired)
	out["loadgen.samples"] = float64(len(t.lat))
	out["membership.settle_ms"] = s.fed.settleMs
}
