package main

import (
	"fmt"
	"math/rand"
	"time"

	"github.com/qamarket/qamarket/internal/cluster"
	"github.com/qamarket/qamarket/internal/market"
	"github.com/qamarket/qamarket/internal/sqldb"
)

// opKind is the client entry point a workload drives.
type opKind int

const (
	opFetchEach opKind = iota // Client.FetchEach: rows streamed back
	opRun                     // Client.Run: execute-only
	opDist                    // Distributor.Run: fragments + local join
)

// workload is one federation shape and traffic mix. Everything a run
// does derives from (workload, seed, quick): the data, the templates,
// the literals and, for the open loop, the schedule.
type workload struct {
	name string
	why  string
	op   opKind
	// nodes is the federation size; workers the closed-loop client
	// count; rate, when positive, makes the loop open at that many
	// Poisson arrivals per second instead.
	nodes   int
	workers int
	rate    float64
	// sloMs is the latency limit behind slo_share.
	sloMs float64
	// execsPerQuery is the at-most-once audit's expectation: how many
	// node executions one completed query costs.
	execsPerQuery int
	// tracedQueries caps a closed loop's sequential traced pass (the open
	// loop's is bounded by its schedule).
	tracedQueries int
	// warmup is how long the workload's own loop runs before the
	// measured window (prices, EMA history and the heap settle).
	warmup time.Duration
	// periodMs is the market period of nodes and client.
	periodMs int64
	// staticView keeps the client on its seed addresses with no bid
	// cache: the paper's plain call-for-proposals protocol.
	staticView bool
	// node fills the per-node heterogeneity of a NodeConfig.
	node func(i int, cfg *cluster.NodeConfig)
	// build generates the data and the query source from the seed.
	build func(seed int64, quick bool) (*instance, error)
}

// instance is one seed's materialised workload.
type instance struct {
	// nodeDBs is the data each node serves.
	nodeDBs []*sqldb.DB
	// oracleDB returns the reference row database able to answer q: a
	// copy of the data built apart from what the nodes serve.
	oracleDB func(q query) *sqldb.DB
	// at renders query i of the workload's seeded list.
	at func(r *queryRand, i int64) query
}

// query is one instantiation.
type query struct {
	SQL string
	// Canon is the oracle's memo key and the SQL it runs: equal to SQL
	// except where a literal carries result-neutral jitter that keeps
	// every statement's text distinct.
	Canon string
	// Tmpl is the template the query was drawn from.
	Tmpl int
}

// queryRand is a splitmix64 source behind a math/rand.Rand, reseeded per
// query index: query i of a seed is the same whichever worker renders
// it, without paying math/rand's 607-word seeding for every query.
type queryRand struct {
	state uint64
	seed  int64
	rng   *rand.Rand
	// cycle and perm cache the template order of the cycle last drawn
	// from (see slot).
	cycle int64
	perm  []int
}

func newQueryRand(seed int64) *queryRand {
	q := &queryRand{seed: seed, cycle: -1}
	q.rng = rand.New(q)
	return q
}

func (q *queryRand) Uint64() uint64 {
	q.state += 0x9e3779b97f4a7c15
	z := q.state
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

func (q *queryRand) Int63() int64 { return int64(q.Uint64() >> 1) }

// Seed implements rand.Source; the harness only ever calls at.
func (q *queryRand) Seed(s int64) { q.state = uint64(s) }

// at positions the stream at query i.
func (q *queryRand) at(i int64) *rand.Rand {
	q.state = uint64(q.seed)*0x9e3779b97f4a7c15 ^ uint64(i+1)*0xd1342543de82ef95
	return q.rng
}

// slot picks query i's place in a cycle of n slots: every run of n
// consecutive queries is a seeded permutation of all n. Drawing
// templates independently would let a 12 s window's mix drift (105 +- 9
// of 420 queries on a four-template workload), and with it every
// throughput and percentile, for no reason a change could be blamed for.
func (q *queryRand) slot(i int64, n int) int {
	if cycle := i / int64(n); cycle != q.cycle || len(q.perm) != n {
		q.perm = q.at(-1 - cycle).Perm(n) // negative positions: the cycles' own streams
		q.cycle = cycle
	}
	return q.perm[i%int64(n)]
}

func closedLoopNode(_ int, cfg *cluster.NodeConfig) {
	// MsPerCostUnit stretches execution with time.Sleep and validate()
	// turns <=0 into 1, so "no stretch" is a tiny positive value: the
	// closed loops measure real engine work.
	cfg.MsPerCostUnit = 1e-9
	cfg.Slowdown = 1
}

// fig7 is the paper's Section 5.2 heterogeneity: per-node I/O and CPU
// factors that give query classes different relative costs.
var fig7 = struct{ slow, io, cpu []float64 }{
	slow: []float64{1, 2, 4, 8, 14},
	io:   []float64{1, 6, 2, 3, 14},
	cpu:  []float64{1, 2, 6, 8, 3},
}

var workloads = []*workload{
	{
		name: wSmall,
		why:  "8 nodes, 8-row results, 2 closed-loop workers: per-message overhead (CFP fan-out, Prepare on every bidder, JSON and frames, locks); the engine is about a tenth of a query",
		op:   opFetchEach, nodes: 8, workers: 2, sloMs: 5, execsPerQuery: 1, tracedQueries: 2000,
		warmup: time.Second, periodMs: 500, node: closedLoopNode,
		build: func(seed int64, quick bool) (*instance, error) {
			p := cluster.DatasetParams{Nodes: 8, Tables: 12, Views: 16, RowsPerTable: 50, MinCopies: 2, MaxCopies: 3}
			return buildStar(p, []int{12, 12})
		},
	},
	{
		name: wBulk,
		why:  "2 nodes stream 100k-row unfiltered results that alias storage: frame encode, wire and decode are nearly all the work, on the fetch path small-fetch uses for 8-row replies",
		op:   opFetchEach, nodes: 2, workers: 1, sloMs: 25, execsPerQuery: 1, tracedQueries: 300,
		warmup: time.Second, periodMs: 500, node: closedLoopNode,
		build: func(seed int64, quick bool) (*instance, error) {
			return buildBig(100_000, 2, false, seed, quick, func(bigRows int) []bigTemplate {
				return []bigTemplate{
					{format: "SELECT a, b, c, d FROM big"},
					{format: "SELECT a, b FROM big"},
					{format: "SELECT c FROM big"},
				}
			})
		},
	},
	{
		name: wScan,
		why:  "2 nodes, 200k-row scans, aggregates and a star join run execute-only one at a time: the vectorized engine is nearly all the work, so intra-query parallelism shows as latency",
		op:   opRun, nodes: 2, workers: 1, sloMs: 250, execsPerQuery: 1, tracedQueries: 200,
		warmup: time.Second, periodMs: 500, node: closedLoopNode,
		build: func(seed int64, quick bool) (*instance, error) {
			return buildBig(200_000, 2, false, seed, quick, func(bigRows int) []bigTemplate {
				// b spans [0, bigRows/2); thresholds near the middle keep
				// half the table.
				mid := float64(bigRows) / 4
				step := mid / 100
				bases := []float64{mid - step, mid, mid + step, mid + 2*step}
				// The shapes cost about 7, 10, 25 and 55 ms: four separate
				// modes. At equal weights the median of the mix is the gap
				// between the second mode and the third, and reads 14 or
				// 24 ms by which side of it one sample falls (a quarter of
				// the median between ten-seed sets). The weights put the
				// median a sixth of the way into the GROUP BY's mode, its
				// floor, where the cheaper shapes have no mass and a slow
				// spell of the host moves it least (the middle of a mode
				// moved by a third), and the 90th percentile in the middle
				// of the star join's.
				return []bigTemplate{
					{format: "SELECT a, b FROM big WHERE b < %s", bases: bases, weight: 3},
					{format: "SELECT COUNT(*), SUM(b) FROM big WHERE b < %s", bases: bases, weight: 3},
					{format: "SELECT a, COUNT(*), SUM(b) FROM big WHERE b < %s GROUP BY a", bases: bases, weight: 4},
					{format: "SELECT dim.name, COUNT(*), SUM(big.b) FROM big JOIN dim ON big.a = dim.k WHERE big.b < %s GROUP BY dim.name", bases: bases, weight: 3},
				}
			})
		},
	},
	{
		name: wDist,
		why:  "4 nodes, big on two and dim on the other two, so no node can answer the join: fragments travel as INSERT text into a scratch row database that joins them, most of the query is client-side",
		op:   opDist, nodes: 4, workers: 1, sloMs: 250, execsPerQuery: 2, tracedQueries: 150,
		warmup: time.Second, periodMs: 500, node: closedLoopNode,
		build: func(seed int64, quick bool) (*instance, error) {
			return buildBig(200_000, 4, true, seed, quick, func(bigRows int) []bigTemplate {
				// A range a tenth of b's span wide: a 20k-row fragment of
				// the 200k-row table.
				width := float64(bigRows) / 20
				var bases []float64
				for lo := 0.0; lo+width <= float64(bigRows)/2; lo += width / 2 {
					bases = append(bases, lo)
				}
				return []bigTemplate{{
					format: "SELECT dim.name, COUNT(*), SUM(big.b) FROM big JOIN dim ON big.a = dim.k WHERE big.b >= %s AND big.b < %s GROUP BY dim.name",
					bases:  bases, width: width,
				}}
			})
		},
	},
	{
		name: wMarket,
		why:  "the paper's Fig. 7 layout in mild overload, open loop at 35 q/s with full CFP fan-out and moving prices: latency is set by where queries go and how long they wait for supply, not by CPU",
		op:   opRun, nodes: 5, rate: 35, sloMs: 500, execsPerQuery: 1,
		warmup: 3 * time.Second, periodMs: 100, staticView: true,
		node: func(i int, cfg *cluster.NodeConfig) {
			cfg.Slowdown, cfg.IOSlowdown, cfg.CPUSlowdown = fig7.slow[i], fig7.io[i], fig7.cpu[i]
			cfg.MsPerCostUnit = 0.01
			cfg.ExecNoise = 0
		},
		build: func(seed int64, quick bool) (*instance, error) {
			p := cluster.Figure7Params()
			p.RowsPerTable = 200
			return buildStar(p, []int{4, 4, 4, 4})
		},
	},
}

func findWorkload(name string) *workload {
	for _, w := range workloads {
		if w.name == name {
			return w
		}
	}
	return nil
}

// marketConfig is the paper's Section 5.1 deployment setting: prices
// are always tracked but restrict supply only past the threshold, so a
// lightly loaded node does not refuse work (DefaultConfig's threshold 0
// costs more than one retry per query at light load, each a PeriodMs
// sleep).
func marketConfig() market.Config {
	return market.Config{Lambda: 0.1, InitialPrice: 1, ActivationThreshold: 2}
}

// layoutSeed fixes the star workloads' layout: which node holds which
// relation, the rows, the views and the template shapes. Placement
// decides how many nodes bid on a query and whether a popular relation
// sits on the 14x node, and with it every metric by far more than any
// change to the code could, so a layout drawn from the run's seed would
// bury the program's own behaviour; the seed draws the query order, the
// literals, the arrival schedule and the retry jitter.
const layoutSeed = 20070415

// buildStar generates a cluster.GenerateDataset federation with
// perJoin[j] star-query templates of j joins each.
func buildStar(p cluster.DatasetParams, perJoin []int) (*instance, error) {
	gen := func() (*cluster.Dataset, []cluster.QueryTemplate, error) {
		rng := rand.New(rand.NewSource(layoutSeed))
		ds, err := cluster.GenerateDataset(p, rng)
		if err != nil {
			return nil, nil, err
		}
		var templates []cluster.QueryTemplate
		for joins, count := range perJoin {
			ts, err := ds.GenerateTemplates(count, joins, rng)
			if err != nil {
				return nil, nil, err
			}
			templates = append(templates, ts...)
		}
		return ds, templates, nil
	}
	ds, templates, err := gen()
	if err != nil {
		return nil, err
	}
	// The oracle's copy: a second generation yields identical databases,
	// held apart from the ones the nodes serve.
	var ref *cluster.Dataset
	// home[t] is a node holding every relation of template t.
	home := make([]int, len(templates))
	for t, tmpl := range templates {
		home[t] = -1
		for node := range ds.DBs {
			all := true
			for _, rel := range tmpl.Relations {
				all = all && ds.DBs[node].HasRelation(rel)
			}
			if all {
				home[t] = node
				break
			}
		}
		if home[t] < 0 {
			return nil, fmt.Errorf("template %d has no home node", t)
		}
	}
	return &instance{
		nodeDBs: ds.DBs,
		oracleDB: func(q query) *sqldb.DB {
			if ref == nil {
				if ref, _, err = gen(); err != nil {
					panic(err) // the first generation succeeded
				}
			}
			return ref.DBs[home[q.Tmpl]]
		},
		at: func(r *queryRand, i int64) query {
			t := r.slot(i, len(templates))
			sql := templates[t].Instantiate(r.at(i))
			return query{SQL: sql, Canon: sql, Tmpl: t}
		},
	}, nil
}

// bigTemplate is one query shape over the big/dim schema. Each %s takes
// a threshold on big.b: a base from bases plus a jitter below b's 0.5
// grid, so every statement's text is distinct (no text-keyed cache can
// hide work) while the result depends on the base alone. A positive
// width makes the shape a [base, base+width) range with two literals.
type bigTemplate struct {
	format string
	bases  []float64
	width  float64
	// weight is how many of a cycle's slots the shape takes (0 means 1).
	weight int
}

func (t bigTemplate) render(base, jitter float64) string {
	switch {
	case len(t.bases) == 0:
		return t.format
	case t.width > 0:
		return fmt.Sprintf(t.format, lit(base+jitter), lit(base+t.width+jitter))
	default:
		return fmt.Sprintf(t.format, lit(base+jitter))
	}
}

func lit(x float64) string { return fmt.Sprintf("%.3f", x) }

// canonJitter is the jitter the oracle's canonical statement carries.
const canonJitter = 0.25

const dimRows = 100

// buildBig generates the big(a INT, b FLOAT, c TEXT, d BOOL) fact table
// and the 100-row dim(k INT, name TEXT) dimension. b is 0.5 times a
// seeded permutation of the row numbers, so a threshold on b selects
// the same number of rows under every seed while the rows themselves
// differ. split places big on the first half of the nodes and dim on
// the second half; otherwise every node holds both.
func buildBig(bigRows, nodes int, split bool, seed int64, quick bool, templatesFor func(bigRows int) []bigTemplate) (*instance, error) {
	if quick {
		bigRows = 10_000
	}
	load := func(withBig, withDim bool) (*sqldb.DB, error) {
		rng := rand.New(rand.NewSource(seed))
		db := sqldb.Open()
		names := rng.Perm(dimRows)
		perm := rng.Perm(bigRows)
		if withDim {
			if _, _, err := db.Exec("CREATE TABLE dim (k INT, name TEXT)"); err != nil {
				return nil, err
			}
			rows := make([]sqldb.Row, dimRows)
			for i := range rows {
				rows[i] = sqldb.Row{sqldb.NewInt(int64(i)), sqldb.NewText(fmt.Sprintf("d%02d", names[i]))}
			}
			if err := db.AppendTableRows("dim", rows); err != nil {
				return nil, err
			}
		}
		if withBig {
			if _, _, err := db.Exec("CREATE TABLE big (a INT, b FLOAT, c TEXT, d BOOL)"); err != nil {
				return nil, err
			}
			words := make([]string, 997)
			for i := range words {
				words[i] = fmt.Sprintf("t%03d", i)
			}
			const chunk = 10_000
			rows := make([]sqldb.Row, 0, chunk)
			for i := 0; i < bigRows; i++ {
				rows = append(rows, sqldb.Row{
					sqldb.NewInt(int64(rng.Intn(dimRows))),
					sqldb.NewFloat(0.5 * float64(perm[i])),
					sqldb.NewText(words[rng.Intn(len(words))]),
					sqldb.NewBool(rng.Intn(2) == 0),
				})
				if len(rows) == chunk || i == bigRows-1 {
					if err := db.AppendTableRows("big", rows); err != nil {
						return nil, err
					}
					rows = rows[:0]
				}
			}
		}
		return db, nil
	}
	// Nodes with equal content share one source database: each node's
	// vector driver copies it into its own columnar storage.
	inst := &instance{nodeDBs: make([]*sqldb.DB, nodes)}
	var err error
	if split {
		var bigDB, dimDB *sqldb.DB
		if bigDB, err = load(true, false); err != nil {
			return nil, err
		}
		if dimDB, err = load(false, true); err != nil {
			return nil, err
		}
		for i := range inst.nodeDBs {
			inst.nodeDBs[i] = dimDB
			if i < nodes/2 {
				inst.nodeDBs[i] = bigDB
			}
		}
	} else {
		var both *sqldb.DB
		if both, err = load(true, true); err != nil {
			return nil, err
		}
		for i := range inst.nodeDBs {
			inst.nodeDBs[i] = both
		}
	}
	var ref *sqldb.DB
	inst.oracleDB = func(query) *sqldb.DB {
		if ref == nil {
			if ref, err = load(true, true); err != nil {
				panic(err) // the same load just succeeded for the nodes
			}
		}
		return ref
	}
	templates := templatesFor(bigRows)
	// slots lists every template once per unit of its weight; one cycle
	// of the query list is a seeded permutation of the slots.
	var slots []int
	for t, tmpl := range templates {
		for k := 0; k < max(tmpl.weight, 1); k++ {
			slots = append(slots, t)
		}
	}
	inst.at = func(r *queryRand, i int64) query {
		t := slots[r.slot(i, len(slots))]
		rng := r.at(i)
		tmpl := templates[t]
		if len(tmpl.bases) == 0 {
			return query{SQL: tmpl.format, Canon: tmpl.format, Tmpl: t}
		}
		base := tmpl.bases[rng.Intn(len(tmpl.bases))]
		// Jitter in (0, 0.5) on a 0.001 grid never crosses one of b's
		// multiples of 0.5.
		jitter := float64(1+rng.Intn(498)) / 1000
		return query{SQL: tmpl.render(base, jitter), Canon: tmpl.render(base, canonJitter), Tmpl: t}
	}
	return inst, nil
}
