// Command qaload is the federation load generator: it drives a set of
// qanode servers (or a self-hosted in-process federation) with a
// seeded query mix and reports throughput plus latency histograms.
//
// Closed mode (default) keeps -clients workers each running one query
// at a time until -queries complete: the classic closed-loop benchmark
// where concurrency is the controlled variable. Open mode fires
// queries at a fixed -rate for -duration regardless of completions,
// measuring behavior under offered load.
//
// Examples:
//
//	qaload -selfnodes 3 -clients 8 -queries 200
//	qaload -selfnodes 3 -mode open -rate 50 -duration 10s -mechanism qa-nt
//	qaload -nodes 127.0.0.1:7001,127.0.0.1:7002 -sql "SELECT COUNT(*) FROM t00" -queries 500 -json
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"math/rand"
	"os"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"github.com/qamarket/qamarket/internal/cluster"
	"github.com/qamarket/qamarket/internal/market"
	"github.com/qamarket/qamarket/internal/metrics"
	"github.com/qamarket/qamarket/internal/trace"
)

type options struct {
	nodes       string
	selfNodes   int
	mechanism   string
	poolSize    int
	clients     int
	queries     int
	mode        string
	rate        float64
	duration    time.Duration
	mix         int
	joins       int
	seed        int64
	period      int64
	msPerCost   float64
	sql         string
	jsonOut     bool
	trace       bool
	deadline    time.Duration
	retryBudget float64
	maxInflight int
	maxQueue    int
	tables      int
	views       int
	rows        int
	join        bool
	settle      time.Duration
	refresh     time.Duration
	batch       time.Duration
	bidCache    time.Duration
	noShard     bool
	fetch       bool
	fetchBatch  int
}

// loadReport is qaload's result, printed as text or JSON (-json).
type loadReport struct {
	Mode      string `json:"mode"`
	Mechanism string `json:"mechanism"`
	Clients   int    `json:"clients"`
	Completed int64  `json:"completed"`
	Failed    int64  `json:"failed"`
	// Shed counts queries every node refused with typed overload
	// replies until the retry limit — the federation protecting itself,
	// not failing. Expired counts queries whose deadline (-deadline)
	// ran out, client-side or via typed expired sheds. Neither is
	// folded into Failed, so overload experiments can tell refusal
	// from breakage.
	Shed      int64                          `json:"shed"`
	Expired   int64                          `json:"expired"`
	Retries   int64                          `json:"retries"`
	ElapsedMs float64                        `json:"elapsed_ms"`
	QPS       float64                        `json:"qps"`
	TotalMs   metrics.HistSummary            `json:"total_ms"`
	AssignMs  metrics.HistSummary            `json:"assign_ms"`
	RPC       map[string]metrics.HistSummary `json:"rpc"`
	// RPCCounts is the absolute number of RPC attempts per op (failures
	// included); RPCPerQuery divides each by Completed — the
	// amortization metric. Unbatched, uncached negotiation costs ≈ one
	// negotiate RPC per view member per query; batching, the bid cache,
	// and shard probing drive the per-query figure toward O(1).
	RPCCounts   map[string]int64   `json:"rpc_counts"`
	RPCPerQuery map[string]float64 `json:"rpc_per_query"`
	// Amortization carries the client's batching/caching/sharding
	// counters (bid cache hits, misses, invalidations; batch windows and
	// coalesced riders; shard skips), present when any are non-zero.
	Amortization map[string]float64 `json:"amortization,omitempty"`
	// Phases breaks query latency down by lifecycle span name
	// (run/negotiate/execute), aggregated from the client-side tracer
	// when -trace is on.
	Phases map[string]metrics.HistSummary `json:"phases,omitempty"`
	// Wire accounting, counted at the socket by the client transport:
	// everything read from and written to the federation, framing
	// included. BytesPerQuery divides the total by Completed.
	RPCBytesIn    int64   `json:"rpc_bytes_in"`
	RPCBytesOut   int64   `json:"rpc_bytes_out"`
	BytesPerQuery float64 `json:"bytes_per_query,omitempty"`
	// RowsFetched counts the rows shipped back in fetch mode (-fetch).
	RowsFetched int64 `json:"rows_fetched,omitempty"`
}

func main() {
	var o options
	flag.StringVar(&o.nodes, "nodes", "", "comma-separated server addresses (empty: self-host)")
	flag.IntVar(&o.selfNodes, "selfnodes", 3, "nodes to self-host in-process when -nodes is empty")
	flag.StringVar(&o.mechanism, "mechanism", "greedy", "allocation mechanism: greedy | qa-nt")
	flag.IntVar(&o.poolSize, "poolsize", 0, "connections per node per lane (0: default)")
	flag.IntVar(&o.clients, "clients", 8, "concurrent workers (closed mode)")
	flag.IntVar(&o.queries, "queries", 200, "total queries to run (closed mode)")
	flag.StringVar(&o.mode, "mode", "closed", "load mode: closed | open")
	flag.Float64Var(&o.rate, "rate", 20, "arrival rate in queries/sec (open mode)")
	flag.DurationVar(&o.duration, "duration", 5*time.Second, "how long to offer load (open mode)")
	flag.IntVar(&o.mix, "mix", 6, "distinct query templates in the workload mix")
	flag.IntVar(&o.joins, "joins", 2, "joins per generated template")
	flag.Int64Var(&o.seed, "seed", 17, "workload seed")
	flag.Int64Var(&o.period, "period", 50, "market period / resubmission base in ms")
	flag.Float64Var(&o.msPerCost, "mspercost", 0.002, "self-hosted node speed (ms per plan cost unit)")
	flag.StringVar(&o.sql, "sql", "", "fixed query instead of a generated mix (required with -nodes)")
	flag.BoolVar(&o.jsonOut, "json", false, "emit the report as JSON")
	flag.BoolVar(&o.trace, "trace", false, "record client-side lifecycle spans and report a per-phase latency breakdown")
	flag.DurationVar(&o.deadline, "deadline", 0, "end-to-end budget per query, propagated as deadline_ms so nodes shed late work (0 = none)")
	flag.Float64Var(&o.retryBudget, "retry-budget", 0, "client-wide retry tokens per second; retries beyond the budget fail fast (0 = unlimited)")
	flag.IntVar(&o.maxInflight, "max-inflight", 0, "self-hosted nodes: max concurrent work requests before typed overload (0 = default)")
	flag.IntVar(&o.maxQueue, "max-queue", 0, "self-hosted nodes: executor queue depth before typed overload (0 = default)")
	flag.IntVar(&o.tables, "tables", 6, "self-hosted dataset: base tables to generate")
	flag.IntVar(&o.views, "views", 8, "self-hosted dataset: views to generate")
	flag.IntVar(&o.rows, "rows", 40, "self-hosted dataset: rows per base table")
	flag.BoolVar(&o.join, "join", false, "self-hosted nodes: gossip-join them into one federation (node 0 seeds the rest), so catalog filters and market epochs propagate")
	flag.DurationVar(&o.settle, "settle", 0, "wait this long after startup for gossip to converge before offering load (with -join)")
	flag.DurationVar(&o.refresh, "refresh", 0, "client membership view refresh interval; needed to learn gossiped filters/epochs (0 = static view)")
	flag.DurationVar(&o.batch, "batch", 0, "coalesce same-class negotiations arriving within this window into one batched CFP per node (0 = off)")
	flag.DurationVar(&o.bidCache, "bidcache", 0, "winning-bid cache TTL; epoch-stamped ladders admit same-class queries without renegotiating (0 = off)")
	flag.BoolVar(&o.noShard, "noshard", false, "disable per-class shard probing (fan CFPs to every member regardless of gossiped filters)")
	flag.BoolVar(&o.fetch, "fetch", false, "ship results back (client.Fetch) instead of execute-only (client.Run)")
	flag.IntVar(&o.fetchBatch, "fetch-batch", 0, "max rows per streamed fetch batch to request (0: server default)")
	flag.Parse()

	rep, err := run(&o)
	if err != nil {
		fmt.Fprintln(os.Stderr, "qaload:", err)
		os.Exit(1)
	}
	if o.jsonOut {
		data, err := json.MarshalIndent(rep, "", "  ")
		if err != nil {
			fmt.Fprintln(os.Stderr, "qaload:", err)
			os.Exit(1)
		}
		fmt.Println(string(data))
		return
	}
	printReport(rep)
}

func run(o *options) (*loadReport, error) {
	rng := rand.New(rand.NewSource(o.seed))

	// Resolve the target federation: external addresses, or a
	// self-hosted one over a generated dataset.
	var addrs []string
	var sqls func(workerRng *rand.Rand) string
	if o.nodes != "" {
		if o.sql == "" {
			return nil, fmt.Errorf("-nodes needs -sql (no dataset to generate a mix from)")
		}
		addrs = strings.Split(o.nodes, ",")
		sqls = func(*rand.Rand) string { return o.sql }
	} else {
		if o.selfNodes < 1 {
			return nil, fmt.Errorf("-selfnodes must be >= 1")
		}
		maxCopies := 3
		if maxCopies > o.selfNodes {
			maxCopies = o.selfNodes
		}
		minCopies := 2
		if minCopies > maxCopies {
			minCopies = maxCopies
		}
		ds, err := cluster.GenerateDataset(cluster.DatasetParams{
			Nodes: o.selfNodes, Tables: o.tables, Views: o.views, RowsPerTable: o.rows,
			MinCopies: minCopies, MaxCopies: maxCopies,
		}, rng)
		if err != nil {
			return nil, err
		}
		for i := 0; i < o.selfNodes; i++ {
			// Heterogeneous speeds like the paper's PCs: the slowest node is
			// ~14x the fastest regardless of federation size, instead of
			// growing linearly with the node index.
			spread := 0.0
			if o.selfNodes > 1 {
				spread = float64(i) / float64(o.selfNodes-1)
			}
			cfg := cluster.NodeConfig{
				DB:            ds.DBs[i],
				Slowdown:      1 + 13*spread,
				MsPerCostUnit: o.msPerCost,
				PeriodMs:      o.period,
				MaxInflight:   o.maxInflight,
				MaxQueue:      o.maxQueue,
				Market:        market.DefaultConfig(1),
			}
			if o.join {
				// One federation: node 0 seeds, the rest announce to it, and
				// gossip spreads catalog filters + market epochs to everyone.
				cfg.NodeID = fmt.Sprintf("load-%03d", i)
				if i > 0 {
					cfg.Seeds = []string{addrs[0]}
				}
			}
			n, err := cluster.StartNode("127.0.0.1:0", cfg)
			if err != nil {
				return nil, err
			}
			defer n.Close()
			addrs = append(addrs, n.Addr())
		}
		if o.sql != "" {
			sqls = func(*rand.Rand) string { return o.sql }
		} else {
			templates, err := ds.GenerateTemplates(o.mix, o.joins, rng)
			if err != nil {
				return nil, err
			}
			sqls = func(workerRng *rand.Rand) string {
				return templates[workerRng.Intn(len(templates))].Instantiate(workerRng)
			}
		}
	}

	var tracer *trace.Recorder
	if o.trace {
		// Every query gets a unique ID, so spans group cleanly by name;
		// size the ring for a few spans per query so closed runs keep
		// them all.
		capacity := 8 * o.queries
		if capacity < trace.DefaultCapacity {
			capacity = trace.DefaultCapacity
		}
		tracer = trace.NewRecorder("client", capacity, nil)
	}
	ccfg := cluster.ClientConfig{
		Addrs:          addrs,
		Mechanism:      cluster.Mechanism(o.mechanism),
		PeriodMs:       o.period,
		Timeout:        30 * time.Second,
		PoolSize:       o.poolSize,
		Tracer:         tracer,
		QueryTimeout:   o.deadline,
		RetryBudget:    o.retryBudget,
		ViewRefresh:    o.refresh,
		BatchWindow:    o.batch,
		BidCacheTTL:    o.bidCache,
		NoShardProbe:   o.noShard,
		FetchBatchRows: o.fetchBatch,
	}
	client, err := cluster.NewClient(ccfg)
	if err != nil {
		return nil, err
	}
	defer client.Close()
	if o.settle > 0 {
		// Let gossip converge and the client's view refresher pick up the
		// full membership (with filters and epochs) before measuring.
		time.Sleep(o.settle)
	}

	rep := &loadReport{
		Mode: o.mode, Mechanism: o.mechanism, Clients: o.clients,
	}
	totalHist := metrics.NewHistogram()
	assignHist := metrics.NewHistogram()
	shedHist := metrics.NewHistogram()
	expiredHist := metrics.NewHistogram()
	var completed, failed, shed, expired, retries, rowsFetched atomic.Int64
	runOne := func(id int64, workerRng *rand.Rand) {
		var out cluster.Outcome
		if o.fetch {
			// Result-shipping mode: stream the rows back in bounded batches,
			// counting them without retaining anything.
			out = client.FetchEach(id, sqls(workerRng), func(*cluster.ColBlock) error { return nil })
			rowsFetched.Add(int64(out.Rows))
		} else {
			out = client.Run(id, sqls(workerRng))
		}
		retries.Add(int64(out.Retries))
		switch {
		case out.Err == nil:
			completed.Add(1)
			totalHist.Observe(out.TotalMs)
			assignHist.Observe(out.AssignMs)
		case errors.Is(out.Err, cluster.ErrExpired):
			expired.Add(1)
			expiredHist.Observe(out.TotalMs)
		case errors.Is(out.Err, cluster.ErrOverloaded), errors.Is(out.Err, cluster.ErrRetryBudget):
			// The federation (or our own retry budget) refused the work:
			// shed by protection, not broken.
			shed.Add(1)
			shedHist.Observe(out.TotalMs)
		default:
			failed.Add(1)
		}
	}

	start := time.Now()
	switch o.mode {
	case "closed":
		if o.clients < 1 || o.queries < 1 {
			return nil, fmt.Errorf("closed mode needs -clients and -queries >= 1")
		}
		var next atomic.Int64
		var wg sync.WaitGroup
		for g := 0; g < o.clients; g++ {
			wg.Add(1)
			go func(g int) {
				defer wg.Done()
				workerRng := rand.New(rand.NewSource(o.seed + int64(g) + 1))
				for {
					id := next.Add(1)
					if id > int64(o.queries) {
						return
					}
					runOne(id, workerRng)
				}
			}(g)
		}
		wg.Wait()
	case "open":
		if o.rate <= 0 {
			return nil, fmt.Errorf("open mode needs -rate > 0")
		}
		interval := time.Duration(float64(time.Second) / o.rate)
		deadline := time.Now().Add(o.duration)
		ticker := time.NewTicker(interval)
		defer ticker.Stop()
		var wg sync.WaitGroup
		var id int64
		var seq int64
		for now := range ticker.C {
			if now.After(deadline) {
				break
			}
			id++
			seq++
			wg.Add(1)
			go func(id, seq int64) {
				defer wg.Done()
				runOne(id, rand.New(rand.NewSource(o.seed+seq)))
			}(id, seq)
		}
		wg.Wait()
	default:
		return nil, fmt.Errorf("unknown mode %q", o.mode)
	}

	rep.ElapsedMs = float64(time.Since(start)) / float64(time.Millisecond)
	rep.Completed = completed.Load()
	rep.Failed = failed.Load()
	rep.Shed = shed.Load()
	rep.Expired = expired.Load()
	rep.Retries = retries.Load()
	rep.QPS = float64(rep.Completed) / (rep.ElapsedMs / 1000)
	rep.TotalMs = totalHist.Summary()
	rep.AssignMs = assignHist.Summary()
	rep.RPC = client.OpLatencies()
	rep.RPCCounts = client.RPCCounts()
	rep.RPCBytesIn, rep.RPCBytesOut = client.WireBytes()
	if rep.Completed > 0 {
		rep.BytesPerQuery = float64(rep.RPCBytesIn+rep.RPCBytesOut) / float64(rep.Completed)
	}
	if o.fetch {
		rep.RowsFetched = rowsFetched.Load()
	}
	if rep.Completed > 0 {
		rep.RPCPerQuery = make(map[string]float64, len(rep.RPCCounts))
		for op, n := range rep.RPCCounts {
			rep.RPCPerQuery[op] = float64(n) / float64(rep.Completed)
		}
	}
	amort := make(map[string]float64)
	for _, key := range []string{
		metrics.BidCacheHitsTotal, metrics.BidCacheMissesTotal, metrics.BidCacheInvalidationsTotal,
		metrics.BatchWindowsTotal, metrics.BatchCoalescedTotal, metrics.ShardSkipsTotal,
	} {
		if v := client.Health()[key]; v > 0 {
			amort[key] = v
		}
	}
	if len(amort) > 0 {
		rep.Amortization = amort
	}
	if tracer != nil {
		rep.Phases = phaseBreakdown(tracer.All())
	}
	// Shed/expired time-to-refusal rides the per-phase breakdown as its
	// own categories: how long a query burned before the protection
	// layer gave its typed answer.
	if rep.Shed > 0 || rep.Expired > 0 {
		if rep.Phases == nil {
			rep.Phases = make(map[string]metrics.HistSummary)
		}
		if rep.Shed > 0 {
			rep.Phases["shed"] = shedHist.Summary()
		}
		if rep.Expired > 0 {
			rep.Phases["expired"] = expiredHist.Summary()
		}
	}
	return rep, nil
}

// phaseBreakdown folds recorded lifecycle spans into one latency
// histogram per phase name (run, negotiate, execute, ...), the
// span-level counterpart to the RPC histograms: RPC measures the wire
// call, phases measure the whole lifecycle step including retries and
// local work.
func phaseBreakdown(spans []trace.Span) map[string]metrics.HistSummary {
	hists := make(map[string]*metrics.Histogram)
	for _, s := range spans {
		h := hists[s.Name]
		if h == nil {
			h = metrics.NewHistogram()
			hists[s.Name] = h
		}
		h.Observe(s.DurMs)
	}
	out := make(map[string]metrics.HistSummary, len(hists))
	for name, h := range hists {
		out[name] = h.Summary()
	}
	return out
}

func printReport(r *loadReport) {
	fmt.Printf("%s load, %s: %d completed, %d failed, %d shed, %d expired, %d retries in %.0f ms -> %.1f queries/sec\n",
		r.Mode, r.Mechanism, r.Completed, r.Failed, r.Shed, r.Expired, r.Retries, r.ElapsedMs, r.QPS)
	fmt.Printf("  query total  %s\n", r.TotalMs)
	fmt.Printf("  assignment   %s\n", r.AssignMs)
	if r.RPCBytesIn > 0 || r.RPCBytesOut > 0 {
		fmt.Printf("  wire         %d B in, %d B out (%.0f B/query)\n", r.RPCBytesIn, r.RPCBytesOut, r.BytesPerQuery)
	}
	if r.RowsFetched > 0 {
		fmt.Printf("  fetched      %d rows\n", r.RowsFetched)
	}
	ops := make([]string, 0, len(r.RPC))
	for op := range r.RPC {
		ops = append(ops, op)
	}
	sort.Strings(ops)
	for _, op := range ops {
		fmt.Printf("  rpc %-9s %s\n", op, r.RPC[op])
	}
	counts := make([]string, 0, len(r.RPCPerQuery))
	for op := range r.RPCPerQuery {
		counts = append(counts, op)
	}
	sort.Strings(counts)
	for _, op := range counts {
		fmt.Printf("  rpc/query %-9s %.2f (%d total)\n", op, r.RPCPerQuery[op], r.RPCCounts[op])
	}
	amort := make([]string, 0, len(r.Amortization))
	for k := range r.Amortization {
		amort = append(amort, k)
	}
	sort.Strings(amort)
	for _, k := range amort {
		fmt.Printf("  %-21s %.0f\n", k, r.Amortization[k])
	}
	phases := make([]string, 0, len(r.Phases))
	for ph := range r.Phases {
		phases = append(phases, ph)
	}
	sort.Strings(phases)
	for _, ph := range phases {
		fmt.Printf("  phase %-9s %s\n", ph, r.Phases[ph])
	}
}
