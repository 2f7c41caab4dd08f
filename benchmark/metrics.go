package main

// The benchmark's declared surface: workloads, end-to-end metrics with
// their regression bounds, and per-layer metrics with the end-to-end
// metric each one is expected to move. BENCHMARK.json at the repo root
// repeats the names, units, directions and bounds (its schema has no
// room for layer, source and moves); schema_test.go keeps the two in
// step.

// endToEnd is one metric a user of the federation would see.
type endToEnd struct {
	Name   string
	Unit   string
	Better string  // "lower" or "higher"
	Bound  float64 // share of the parent's median it may worsen by
	Doc    string
}

var endToEndMetrics = []endToEnd{
	{"setup_s", "s", "lower", 0.25, "data build + node start + gossip settle + client connect; median of three set-ups"},
	{"qps", "1/s", "higher", 0.25, "correct completions / time from the window's start to its last completion"},
	{"p50_ms", "ms", "lower", 0.25, "median submit -> last row or ack; open loop: from the intended send time"},
	{"p90_ms", "ms", "lower", 0.25, "90th percentile on the same clock, the highest with ten samples beyond it on every workload"},
	{"slo_share", "share", "higher", 0.05, "attempted queries finishing correctly within the workload's limit; failures and sheds are misses"},
	{"rows_per_s", "rows/s", "higher", 0.25, "result rows reported to the caller per second (fragment rows on dist-join)"},
	{"cpu_ms_per_query", "ms", "lower", 0.25, "process user+sys CPU over the window / completions: client and every node"},
	{"peak_rss_mb", "MB", "lower", 0.25, "peak resident set of the workload's process, sampled over the window"},
	{"wire_bytes_per_query", "B", "lower", 0.25, "client wire bytes in+out over the window / completions"},
}

// move names one end-to-end metric on one workload that a layer metric
// is expected to shift when its layer gets faster or slower.
type move struct{ Metric, Workload string }

// layerMetric is one number about a single layer of the query path.
type layerMetric struct {
	Name   string
	Unit   string
	Better string
	Layer  string // the module the number belongs to
	Source string // counters | trace | replay
	Moves  []move
	Doc    string
}

func mv(metric string, workloads ...string) []move {
	out := make([]move, 0, len(workloads))
	for _, w := range workloads {
		out = append(out, move{metric, w})
	}
	return out
}

func join(ms ...[]move) []move {
	var out []move
	for _, m := range ms {
		out = append(out, m...)
	}
	return out
}

const (
	wSmall  = "small-fetch"
	wBulk   = "bulk-fetch"
	wScan   = "scan-exec"
	wDist   = "dist-join"
	wMarket = "market-open"
)

var allWorkloads = []string{wSmall, wBulk, wScan, wDist, wMarket}

var (
	rpcMoves = join(mv("qps", wSmall), mv("cpu_ms_per_query", wSmall, wMarket), mv("wire_bytes_per_query", wSmall, wMarket))
	// Placement and waiting, not CPU, set market-open's latency.
	marketMoves = join(mv("p50_ms", wMarket), mv("p90_ms", wMarket), mv("slo_share", wMarket))
	wireMoves   = join(mv("wire_bytes_per_query", wBulk, wSmall), mv("rows_per_s", wBulk))
	healthMoves = mv("slo_share", allWorkloads...)
	memMoves    = join(mv("cpu_ms_per_query", wBulk, wDist, wScan), mv("peak_rss_mb", wBulk, wDist, wScan))
)

var layerMetrics = []layerMetric{
	// (a) counters read from the untraced run.
	{"cluster.negotiate_rpcs_per_query", "count", "lower", "cluster", "counters", rpcMoves, "Client.RPCCounts negotiate / completions"},
	{"cluster.execute_rpcs_per_query", "count", "lower", "cluster", "counters", rpcMoves, "Client.RPCCounts execute / completions"},
	{"cluster.fetch_rpcs_per_query", "count", "lower", "cluster", "counters", rpcMoves, "Client.RPCCounts fetch / completions"},
	{"cluster.members_rpcs_per_query", "count", "lower", "cluster", "counters", rpcMoves, "Client.RPCCounts members / completions (view refresh)"},
	{"cluster.negotiate_rpc_p50_ms", "ms", "lower", "cluster", "counters", mv("p50_ms", wSmall), "Client.OpLatencies negotiate p50 (client lifetime, log-bucketed)"},
	{"cluster.execute_rpc_p50_ms", "ms", "lower", "cluster", "counters", mv("p50_ms", wScan, wMarket), "Client.OpLatencies execute p50"},
	{"cluster.fetch_rpc_p50_ms", "ms", "lower", "cluster", "counters", mv("p50_ms", wSmall, wBulk), "Client.OpLatencies fetch p50"},
	{"cluster.assign_p50_ms", "ms", "lower", "cluster", "counters", mv("p50_ms", wSmall), "median Outcome.AssignMs (the paper's time to assign)"},
	{"cluster.retries_per_query", "count", "lower", "cluster", "counters", marketMoves, "Client.Health retries_total / completions; 0 expected on closed loops"},
	{"cluster.backoff_ms_per_query", "ms", "lower", "cluster", "counters", marketMoves, "Client.Health backoff_ms_total / completions"},
	{"cluster.bid_cache_hit_share", "share", "higher", "cluster", "counters", join(mv("qps", wSmall), mv("p50_ms", wDist)), "bid cache hits / (hits+misses); off on market-open"},
	{"cluster.shard_skips_per_query", "count", "higher", "cluster", "counters", join(mv("qps", wSmall), mv("p50_ms", wDist)), "Client.Health shard_skips_total / completions"},
	{"cluster.wire_in_bytes_per_query", "B", "lower", "cluster", "counters", wireMoves, "Client.WireBytes in / completions"},
	{"cluster.wire_out_bytes_per_query", "B", "lower", "cluster", "counters", wireMoves, "Client.WireBytes out / completions"},
	{"cluster.frames_per_fetch", "count", "lower", "cluster", "counters", wireMoves, "node fetch_batches_total / fetch RPCs"},
	{"cluster.frame_bytes_per_row", "B", "lower", "cluster", "counters", wireMoves, "node fetch_bytes_total / rows delivered"},
	{"cluster.executed_per_completed", "ratio", "lower", "cluster", "counters", healthMoves, "sum Node.Executed / completions over the whole process: exactly 1 (2 on dist-join)"},
	{"cluster.sheds", "count", "lower", "cluster", "counters", healthMoves, "node overload_total + expired_total"},
	{"cluster.dedup_hits", "count", "lower", "cluster", "counters", healthMoves, "node dedup_hits_total"},
	{"cluster.failovers", "count", "lower", "cluster", "counters", healthMoves, "client failovers_total"},
	{"cluster.busiest_node_share", "share", "lower", "cluster", "counters", mv("p90_ms", wMarket), "max node Executed / total: placement quality"},
	{"cluster.total_mean_ms", "ms", "lower", "cluster", "counters", mv("p50_ms", allWorkloads...), "mean latency (the paper reports the mean)"},
	{"cluster.total_p95_ms", "ms", "lower", "cluster", "counters", mv("p90_ms", allWorkloads...), "95th percentile, clamped to ten samples beyond"},
	{"cluster.total_p99_ms", "ms", "lower", "cluster", "counters", mv("p90_ms", allWorkloads...), "99th percentile, clamped to ten samples beyond"},
	{"market.offers_per_query", "count", "lower", "market", "counters", marketMoves, "node market offers / completions"},
	{"market.rejects_per_query", "count", "lower", "market", "counters", marketMoves, "node market rejects / completions"},
	{"market.unsold_per_period", "count", "lower", "market", "counters", marketMoves, "unsold supply units per node period"},
	{"market.price_index", "price", "lower", "market", "counters", marketMoves, "mean class price over all nodes at the end of the window"},
	{"market.classes", "count", "lower", "market", "counters", marketMoves, "query classes priced, summed over nodes"},
	{"market.periods", "count", "higher", "market", "counters", marketMoves, "pricer periods elapsed in the window, summed over nodes"},
	{"runtime.alloc_kb_per_query", "KB", "lower", "runtime", "counters", memMoves, "MemStats.TotalAlloc delta / completions"},
	{"runtime.allocs_per_query", "count", "lower", "runtime", "counters", memMoves, "MemStats.Mallocs delta / completions"},
	{"runtime.gc_cycles", "count", "lower", "runtime", "counters", memMoves, "MemStats.NumGC delta"},
	{"runtime.gc_pause_ms", "ms", "lower", "runtime", "counters", memMoves, "MemStats.PauseTotalNs delta"},
	{"runtime.cpu_cores_busy", "cores", "lower", "runtime", "counters", mv("cpu_ms_per_query", allWorkloads...), "process CPU time / wall time over the window"},
	{"loadgen.late_p99_ms", "ms", "lower", "loadgen", "counters", mv("p90_ms", wMarket), "open loop: p99 of dispatch time minus due time; 0 on closed loops"},
	{"loadgen.attempted", "count", "higher", "loadgen", "counters", mv("qps", allWorkloads...), "queries issued in the window"},
	{"loadgen.completed", "count", "higher", "loadgen", "counters", mv("qps", allWorkloads...), "correct completions in the window"},
	{"loadgen.failed", "count", "lower", "loadgen", "counters", healthMoves, "attempted - completed"},
	{"loadgen.fail_share", "share", "lower", "loadgen", "counters", healthMoves, "failed / attempted; any rise is a regression"},
	{"loadgen.shed", "count", "lower", "loadgen", "counters", healthMoves, "failures typed overloaded or retry-budget"},
	{"loadgen.expired", "count", "lower", "loadgen", "counters", healthMoves, "failures typed deadline-exceeded"},
	{"loadgen.samples", "count", "higher", "loadgen", "counters", mv("p90_ms", allWorkloads...), "latency samples behind every percentile"},
	{"membership.settle_ms", "ms", "lower", "membership", "counters", mv("setup_s", allWorkloads...), "last StartNode -> client view lists every node alive"},

	// (b) the traced pass: mean ms per query, and share of the root span.
	{"cluster.client_self_ms", "ms", "lower", "cluster", "trace", join(mv("p50_ms", wDist, wMarket), mv("qps", wDist), mv("cpu_ms_per_query", wDist)), "root minus client negotiate/execute/fetch spans: bookkeeping, back-off, fragment load + local join"},
	{"cluster.negotiate_ms", "ms", "lower", "cluster", "trace", join(mv("p50_ms", wSmall), mv("qps", wSmall)), "client negotiate spans"},
	{"cluster.solve_ms", "ms", "lower", "cluster", "trace", join(mv("p50_ms", wSmall), mv("qps", wSmall)), "slowest server solve span per negotiate round: Prepare + pricer.offer"},
	{"cluster.negotiate_wire_ms", "ms", "lower", "cluster", "trace", join(mv("p50_ms", wSmall), mv("qps", wSmall)), "negotiate minus solve: fan-out, JSON, loopback"},
	{"cluster.queue_ms", "ms", "lower", "cluster", "trace", mv("p90_ms", wMarket), "server queue spans"},
	{"engine.exec_ms", "ms", "lower", "engine", "trace", join(mv("p50_ms", wScan, wDist), mv("qps", wScan)), "server exec spans"},
	{"cluster.ship_ms", "ms", "lower", "cluster", "trace", join(mv("p50_ms", wBulk, wSmall), mv("rows_per_s", wBulk)), "client execute/fetch minus queue and exec: encode, loopback, decode, sink"},
	{"cluster.client_self_share", "share", "lower", "cluster", "trace", mv("p50_ms", wDist), "client_self_ms / root"},
	{"cluster.negotiate_share", "share", "lower", "cluster", "trace", mv("p50_ms", wSmall), "negotiate_ms / root"},
	{"cluster.queue_share", "share", "lower", "cluster", "trace", mv("p90_ms", wMarket), "queue_ms / root"},
	{"engine.exec_share", "share", "lower", "engine", "trace", mv("p50_ms", wScan), "exec_ms / root"},
	{"cluster.ship_share", "share", "lower", "cluster", "trace", mv("p50_ms", wBulk), "ship_ms / root"},
	{"trace.root_vs_wall", "ratio", "higher", "trace", "trace", nil, "sum of root spans / sum of harness stopwatch: must be within 5% of 1"},
	{"trace.overhead_share", "share", "lower", "trace", "trace", mv("p50_ms", wSmall), "(traced - untraced sequential mean) / untraced: cost of always-on tracing"},
	{"trace.queries", "count", "higher", "trace", "trace", nil, "traced queries folded into the layer means"},
	{"trace.incomplete", "count", "lower", "trace", "trace", nil, "traced queries dropped for a missing root or server span"},
	{"trace.negative_self", "count", "lower", "trace", "trace", nil, "spans whose children cover more than the span: must be 0"},

	// (c) single-goroutine replay of the workload's own query list.
	{"sqldb.prepare_us", "us", "lower", "sqldb", "replay", mv("cpu_ms_per_query", wSmall), "driver.NewLegacy(db).Prepare: parse + plan + signature"},
	{"sqldb.exec_ms", "ms", "lower", "sqldb", "replay", mv("p50_ms", wDist), "row-engine Statement.Execute, the scratch-DB join path"},
	{"engine.prepare_us", "us", "lower", "engine", "replay", join(mv("cpu_ms_per_query", wSmall), mv("qps", wSmall)), "vector driver Prepare, paid once per bidder per query"},
	{"engine.replay_exec_ms", "ms", "lower", "engine", "replay", join(mv("qps", wScan), mv("p50_ms", wScan)), "vector driver Statement.Execute"},
	{"engine.ns_per_input_row", "ns", "lower", "engine", "replay", join(mv("qps", wScan), mv("p50_ms", wScan)), "vector Execute time / base-table rows read"},
	{"engine.alloc_bytes_per_output_row", "B", "lower", "engine", "replay", mv("peak_rss_mb", wDist, wScan), "TotalAlloc delta over vector Execute / result rows"},
	{"driver.next_batch_ns_per_row", "ns", "lower", "driver", "replay", mv("rows_per_s", wBulk, wDist), "Block.NextBatch(cur, 4096, out) over a result block"},
	{"driver.append_rows_ns_per_row", "ns", "lower", "driver", "replay", mv("rows_per_s", wBulk, wDist), "Block.AppendRows of a result block"},
	{"market.begin_period_us", "us", "lower", "market", "replay", join(mv("p90_ms", wMarket), mv("p50_ms", wSmall)), "Agent.BeginPeriod: eq. 4 over the workload's classes and measured costs"},
	{"market.offer_accept_ns", "ns", "lower", "market", "replay", join(mv("p90_ms", wMarket), mv("p50_ms", wSmall)), "Agent.Offer + Accept"},
	{"market.end_period_us", "us", "lower", "market", "replay", mv("p90_ms", wMarket), "Agent.EndPeriod"},
	{"trace.span_ns", "ns", "lower", "trace", "replay", mv("p50_ms", wSmall), "Recorder.Start + Annotate + Finish"},
}
