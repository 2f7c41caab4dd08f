package main

import (
	"errors"
	"math"
	"math/rand"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"github.com/qamarket/qamarket/internal/cluster"
	"github.com/qamarket/qamarket/internal/sqldb"
)

// opResult is what one query reported back to its caller.
type opResult struct {
	rows     int // result cardinality, what the oracle's row count checks
	shipped  int // rows reported to the caller, the numerator of rows_per_s
	assignMs float64
	err      error
	// result holds the rows when the op was asked to keep them (the
	// correctness pass); nil otherwise.
	result *sqldb.Result
}

// opFunc runs query q under the federation-unique id. keep asks for the
// result rows, so execute-only workloads ship them for the oracle.
type opFunc func(id int64, q query, keep bool) opResult

// newOp binds a workload's client entry point.
func newOp(kind opKind, client *cluster.Client) opFunc {
	switch kind {
	case opFetchEach:
		return func(id int64, q query, keep bool) opResult {
			var res *sqldb.Result
			rows := 0
			out := client.FetchEach(id, q.SQL, func(b *cluster.ColBlock) error {
				rows += b.Rows
				if !keep {
					return nil
				}
				if res == nil {
					res = &sqldb.Result{Columns: append([]string(nil), b.Columns...)}
				}
				var err error
				res.Rows, err = b.AppendRows(res.Rows)
				return err
			})
			if keep && res == nil {
				res = &sqldb.Result{}
			}
			return opResult{rows: rows, shipped: out.Rows, assignMs: out.AssignMs, err: out.Err, result: res}
		}
	case opRun:
		return func(id int64, q query, keep bool) opResult {
			if keep {
				res, out := client.Fetch(id, q.SQL)
				return opResult{rows: out.Rows, shipped: out.Rows, assignMs: out.AssignMs, err: out.Err, result: res}
			}
			out := client.Run(id, q.SQL)
			return opResult{rows: out.Rows, shipped: out.Rows, assignMs: out.AssignMs, err: out.Err}
		}
	default:
		dist := cluster.NewDistributor(client)
		return func(id int64, q query, keep bool) opResult {
			out, err := dist.Run(id, q.SQL)
			if err != nil {
				return opResult{err: err}
			}
			r := opResult{rows: len(out.Result.Rows), shipped: out.FragmentRows, assignMs: out.AssignMs}
			if keep {
				r.result = out.Result
			}
			return r
		}
	}
}

// sample is one timed query.
type sample struct {
	idx      int64   // position in the seeded query list
	latMs    float64 // due (open loop) or submit (closed loop) -> done
	lateMs   float64 // open loop: dispatch minus due
	rows     int
	shipped  int
	assignMs float64
	err      error
}

// idSeq hands out federation-unique query ids; the trace id of a query
// is its id, and the dedup window keys on it.
type idSeq struct{ next atomic.Int64 }

func (s *idSeq) take() int64 { return s.next.Add(1) }

// loop is what both load generators draw from: the seeded query list,
// the process-wide position in it, the id sequence and the operation.
type loop struct {
	inst   *instance
	seed   int64
	cursor *atomic.Int64
	ids    *idSeq
	op     opFunc
}

// runClosed keeps `workers` clients each running one query at a time,
// drawing list positions from the cursor, until the deadline; queries in
// flight at the deadline finish and count. It returns the samples and
// the time from start to the last completion.
func (l loop) runClosed(workers int, window time.Duration) ([]sample, time.Duration) {
	start := time.Now()
	deadline := start.Add(window)
	perWorker := make([][]sample, workers)
	var wg sync.WaitGroup
	for g := 0; g < workers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			qr := newQueryRand(l.seed)
			for time.Now().Before(deadline) {
				idx := l.cursor.Add(1) - 1
				q := l.inst.at(qr, idx)
				t0 := time.Now()
				res := l.op(l.ids.take(), q, false)
				perWorker[g] = append(perWorker[g], sample{
					idx: idx, latMs: msSince(t0), rows: res.rows, shipped: res.shipped,
					assignMs: res.assignMs, err: res.err,
				})
			}
		}(g)
	}
	wg.Wait()
	elapsed := time.Since(start)
	var out []sample
	for _, s := range perWorker {
		out = append(out, s...)
	}
	return out, elapsed
}

// poissonSchedule pre-computes the open loop's due times (offsets from
// the start): a Poisson process of `rate` arrivals per second over
// `window`, conditioned on its expected number of arrivals — that many
// uniform draws, sorted. The gaps are as irregular as a Poisson
// stream's; the count is not left to chance, because an open loop's
// throughput *is* its arrival count and a free count would move qps by
// +-5% between seeds with nothing in the program to blame.
func poissonSchedule(seed int64, rate float64, window time.Duration) []time.Duration {
	rng := rand.New(rand.NewSource(seed ^ 0x5eed5c4ed))
	due := make([]time.Duration, int(math.Round(rate*window.Seconds())))
	for i := range due {
		due[i] = time.Duration(rng.Float64() * float64(window))
	}
	sort.Slice(due, func(i, j int) bool { return due[i] < due[j] })
	return due
}

// drainTimeout bounds the wait for open-loop stragglers after the last
// due time; a query still running then counts as failed.
const drainTimeout = 30 * time.Second

var errStraggler = errors.New("still running at the end of the drain")

// runOpen dispatches the next query at start+due[k] whether or not
// earlier queries have completed, and times each from its due time: a
// stall — in the federation or in this generator — shows up in the
// latency of every query scheduled behind it instead of silently
// lowering the offered load. After the last due time it drains;
// stragglers are attempted queries like any other. onMark, when set,
// runs on the dispatcher just before query number mark goes out: the
// boundary between a warm-up prefix and the measured window.
func (l loop) runOpen(due []time.Duration, mark int, onMark func()) []sample {
	start := time.Now()
	samples := make([]sample, len(due))
	done := make([]atomic.Bool, len(due))
	var wg sync.WaitGroup
	qr := newQueryRand(l.seed)
	for k, d := range due {
		if k == mark && onMark != nil {
			onMark()
		}
		dueAt := start.Add(d)
		if wait := time.Until(dueAt); wait > 0 {
			time.Sleep(wait)
		}
		idx := l.cursor.Add(1) - 1
		q := l.inst.at(qr, idx)
		id := l.ids.take()
		late := msSince(dueAt)
		wg.Add(1)
		go func(k int) {
			defer wg.Done()
			res := l.op(id, q, false)
			samples[k] = sample{
				idx: idx, latMs: msSince(dueAt), lateMs: late, rows: res.rows, shipped: res.shipped,
				assignMs: res.assignMs, err: res.err,
			}
			done[k].Store(true)
		}(k)
	}
	finished := make(chan struct{})
	go func() { wg.Wait(); close(finished) }()
	select {
	case <-finished:
	case <-time.After(drainTimeout):
	}
	out := make([]sample, len(due))
	for k := range due {
		if done[k].Load() {
			out[k] = samples[k]
		} else {
			out[k] = sample{idx: -1, err: errStraggler}
		}
	}
	return out
}
