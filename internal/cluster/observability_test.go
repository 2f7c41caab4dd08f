package cluster

import (
	"io"
	"math/rand"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"github.com/qamarket/qamarket/internal/metrics"
	"github.com/qamarket/qamarket/internal/trace"
)

// TestFallbackNodeIDDeterministic pins the fix for the nondeterministic
// fallback NodeID: it used to come from the unseeded global rand, so a
// fixed topology got fresh identities — and fresh membership RNG seeds
// — every run. Now it derives from the listen address plus a
// process-local counter.
func TestFallbackNodeIDDeterministic(t *testing.T) {
	a := fallbackNodeID("10.0.0.7:4001")
	b := fallbackNodeID("10.0.0.7:4001")
	c := fallbackNodeID("10.0.0.8:4001")
	prefix := func(id string) string { return id[:strings.LastIndex(id, "-")] }
	if prefix(a) != prefix(b) {
		t.Errorf("same address, different hash prefix: %s vs %s", a, b)
	}
	if prefix(a) == prefix(c) {
		t.Errorf("different addresses, same hash prefix: %s vs %s", a, c)
	}
	if a == b {
		t.Errorf("process-local counter failed to disambiguate: %s", a)
	}
	for _, id := range []string{a, b, c} {
		if !strings.HasPrefix(id, "n-") {
			t.Errorf("fallback ID %q lost the n- convention", id)
		}
	}
}

func TestStartNodeDerivesStableFallbackID(t *testing.T) {
	_, nodes, _ := startTestFederation(t, []float64{1, 1}, nil)
	if nodes[0].ID() == nodes[1].ID() {
		t.Fatalf("two nodes share fallback ID %s", nodes[0].ID())
	}
	for _, n := range nodes {
		if !strings.HasPrefix(n.ID(), "n-") {
			t.Errorf("node ID %q not derived", n.ID())
		}
	}
}

// TestBackoffJitterSeeded pins the seeded-jitter fix: backoff used the
// global rand.Float64, so retry schedules were unreproducible. Two
// clients sharing a seed must now produce identical delay sequences.
func TestBackoffJitterSeeded(t *testing.T) {
	mk := func(seed int64) *Client {
		c, err := NewClient(ClientConfig{
			network: memWall,
			Addrs:   []string{"127.0.0.1:1"},
			Jitter:  rand.New(rand.NewSource(seed)),
		})
		if err != nil {
			t.Fatalf("NewClient: %v", err)
		}
		t.Cleanup(c.Close)
		return c
	}
	c1, c2, c3 := mk(7), mk(7), mk(8)
	for round := 0; round < 6; round++ {
		d1, d2, d3 := c1.backoffDelay(round), c2.backoffDelay(round), c3.backoffDelay(round)
		if d1 != d2 {
			t.Fatalf("round %d: same seed diverged: %v vs %v", round, d1, d2)
		}
		if round == 0 && d1 == d3 {
			t.Errorf("distinct seeds produced identical first delay %v", d1)
		}
		base := time.Duration(c1.cfg.PeriodMs) * time.Millisecond
		ceil := time.Duration(c1.cfg.maxBackoffMs) * time.Millisecond
		if d1 < base/2 || d1 > ceil {
			t.Fatalf("round %d: delay %v outside [base/2, cap]", round, d1)
		}
	}
}

func TestBackoffJitterDefaultsSeeded(t *testing.T) {
	cfg := ClientConfig{Addrs: []string{"127.0.0.1:1"}}
	if err := cfg.validate(); err != nil {
		t.Fatal(err)
	}
	if cfg.Jitter == nil {
		t.Fatal("validate left Jitter nil")
	}
}

// TestQueryTraceEndToEnd drives one traced query through a two-node
// federation under each mechanism and asserts the assembled
// cross-process span tree: the client's run/negotiate/execute spans plus
// the winning server's solve/queue/exec spans, parented across the wire
// trace context.
func TestQueryTraceEndToEnd(t *testing.T) {
	for _, mech := range []Mechanism{MechGreedy, MechQANT} {
		t.Run(string(mech), func(t *testing.T) {
			ds, nodes, addrs := startTestFederation(t, []float64{1, 4}, nil)
			tracer := trace.NewRecorder("client", 0, nil)
			client, err := NewClient(ClientConfig{
				network:   memWall,
				Addrs:     addrs,
				Mechanism: mech,
				PeriodMs:  50,
				Tracer:    tracer,
				Jitter:    rand.New(rand.NewSource(1)),
			})
			if err != nil {
				t.Fatalf("NewClient: %v", err)
			}
			defer client.Close()

			sql := "SELECT * FROM " + ds.Relations[0]
			const qid = 42
			out := client.Run(qid, sql)
			if out.Err != nil {
				t.Fatalf("Run: %v", out.Err)
			}

			spans := client.TraceSpans(qid)
			byName := map[string][]trace.Span{}
			for _, s := range spans {
				if s.TraceID != qid {
					t.Fatalf("span %s carries trace %d, want %d", s.ID, s.TraceID, qid)
				}
				byName[s.Name] = append(byName[s.Name], s)
			}
			for _, name := range []string{"run", "negotiate", "execute", "solve", "queue", "exec"} {
				if len(byName[name]) == 0 {
					t.Errorf("no %q span in trace: %v", name, byName)
				}
			}
			// Both nodes answered the call-for-proposals, so both solved.
			if len(byName["solve"]) != 2 {
				t.Errorf("want one solve span per node, got %d", len(byName["solve"]))
			}
			// Server spans parent under client spans across the wire.
			ids := map[string]trace.Span{}
			for _, s := range spans {
				ids[s.ID] = s
			}
			for _, s := range byName["solve"] {
				p, ok := ids[s.Parent]
				if !ok || p.Name != "negotiate" || p.Origin != "client" {
					t.Errorf("solve span parents under %+v, want client negotiate", p)
				}
			}
			for _, s := range byName["exec"] {
				if p := ids[s.Parent]; p.Name != "execute" {
					t.Errorf("exec span parents under %q, want execute", p.Name)
				}
			}

			rendered := trace.RenderTree(spans)
			for _, want := range []string{"run", "negotiate", "solve", "exec", "[client]"} {
				if !strings.Contains(rendered, want) {
					t.Errorf("rendered tree missing %q:\n%s", want, rendered)
				}
			}

			// Untraced clients leave no server-side spans: the trace field is
			// omitted and id-less requests still execute (old-client interop).
			plain, err := NewClient(ClientConfig{network: memWall, Addrs: addrs, Mechanism: mech, PeriodMs: 50})
			if err != nil {
				t.Fatalf("NewClient: %v", err)
			}
			defer plain.Close()
			before := len(nodes[0].tracer.All()) + len(nodes[1].tracer.All())
			if out := plain.Run(43, sql); out.Err != nil {
				t.Fatalf("untraced Run: %v", out.Err)
			}
			after := len(nodes[0].tracer.All()) + len(nodes[1].tracer.All())
			if after != before {
				t.Errorf("untraced query grew server span rings: %d -> %d", before, after)
			}
			if got := plain.TraceSpans(43); len(got) != 0 {
				t.Errorf("untraced query produced %d spans", len(got))
			}
		})
	}
}

func TestMetricsHandlerExposition(t *testing.T) {
	ds, nodes, addrs := startTestFederation(t, []float64{1}, nil)
	client, err := NewClient(ClientConfig{network: memWall, Addrs: addrs, Mechanism: MechQANT, PeriodMs: 50})
	if err != nil {
		t.Fatalf("NewClient: %v", err)
	}
	defer client.Close()
	sql := "SELECT * FROM " + ds.Relations[0]
	if out := client.Run(1, sql); out.Err != nil {
		t.Fatalf("Run: %v", out.Err)
	}

	srv := httptest.NewServer(nodes[0].MetricsHandler())
	defer srv.Close()
	resp, err := srv.Client().Get(srv.URL + "/metrics")
	if err != nil {
		t.Fatalf("GET: %v", err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	text := string(body)
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Errorf("content type = %q", ct)
	}
	for _, want := range []string{
		"# TYPE qa_queries_executed_total counter",
		"qa_queries_executed_total{node=",
		"# TYPE qa_op_handle_ms histogram",
		`qa_op_handle_ms_bucket{le="+Inf"`,
		`op="negotiate"`,
		`op="execute"`,
		"# TYPE qa_market_price gauge",
		"qa_market_price{class=",
		"qa_market_offers_total",
		"qa_market_rejects_total",
		"qa_market_epoch",
		"# TYPE qa_dedup_entries gauge",
		"qa_dedup_retained_bytes{node=",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("exposition missing %q", want)
		}
	}
	// Deterministic rendering: a second scrape with no traffic in
	// between orders families and labels identically (only gauge values
	// like checkpoint age may differ, so compare structure).
	resp2, err := srv.Client().Get(srv.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp2.Body.Close()
	body2, _ := io.ReadAll(resp2.Body)
	strip := func(s string) []string {
		var names []string
		for _, line := range strings.Split(s, "\n") {
			if f := strings.Fields(line); len(f) > 0 {
				names = append(names, f[0])
			}
		}
		return names
	}
	n1, n2 := strip(text), strip(string(body2))
	if len(n1) != len(n2) {
		t.Fatalf("scrape shape changed: %d vs %d lines", len(n1), len(n2))
	}
	for i := range n1 {
		if n1[i] != n2[i] {
			t.Fatalf("scrape order differs at line %d: %q vs %q", i, n1[i], n2[i])
		}
	}
}

// TestBatchedWindowTracesEveryQuery: a batched round enters through the
// negotiator like an unbatched one, so every traced query of a window
// gets its own negotiate span, and the node's solve spans for the whole
// window parent under the lead's.
func TestBatchedWindowTracesEveryQuery(t *testing.T) {
	node := startSingleNode(t, nil)
	clk := newFakeClock()
	tracer := trace.NewRecorder("client", 0, clk.now)
	c, err := NewClient(ClientConfig{
		network: newMemNet(clk),
		Addrs:   []string{node.Addr()}, Mechanism: MechGreedy, Tracer: tracer,
		BatchWindow: 200 * time.Millisecond, batchLimit: 2, clock: clk,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	outs := make([]Outcome, 2)
	var wg sync.WaitGroup
	for i, sql := range []string{"SELECT a FROM t WHERE a > 1", "SELECT a FROM t WHERE a > 2"} {
		wg.Add(1)
		go func(i int, sql string) {
			defer wg.Done()
			outs[i] = c.Run(int64(i+1), sql)
		}(i, sql)
		if i == 0 {
			clk.blockUntil(1) // query 1 leads an open window; query 2 rides and seals it
		}
	}
	wg.Wait()
	for i, out := range outs {
		if out.Err != nil {
			t.Fatalf("query %d: %v", i+1, out.Err)
		}
	}
	if got := c.RPCCounts()["negotiate"]; got != 1 {
		t.Fatalf("window of 2 cost %d negotiate RPCs, want one batched CFP", got)
	}
	negotiate := map[int64][]trace.Span{}
	for id := int64(1); id <= 2; id++ {
		for _, s := range tracer.Spans(id) {
			if s.Name == "negotiate" {
				negotiate[id] = append(negotiate[id], s)
			}
		}
		if len(negotiate[id]) != 1 {
			t.Fatalf("query %d has %d negotiate spans, want 1", id, len(negotiate[id]))
		}
	}
	lead := negotiate[1][0]
	var solves int
	for _, s := range node.tracer.All() {
		if s.Name != "solve" {
			continue
		}
		solves++
		if s.TraceID != lead.TraceID || s.Parent != lead.ID {
			t.Errorf("solve span under trace %d span %q, want the lead's negotiate (trace %d span %q)", s.TraceID, s.Parent, lead.TraceID, lead.ID)
		}
	}
	if solves != 2 {
		t.Errorf("the node recorded %d solve spans, want one per query of the window", solves)
	}
}

// TestScrapeAndStatsAgreeOnGauges: /metrics and the stats op sample the
// scrape-time gauges through one function on the node's clock, so with
// that clock stopped a scrape and a stats reply read the same checkpoint
// age, in-flight work, queue depth and dedup window.
func TestScrapeAndStatsAgreeOnGauges(t *testing.T) {
	clk := newFakeClock()
	// A cost unit this small stretches no execution: queries run without
	// waiting on the stopped clock.
	node := startSingleNode(t, func(cfg *NodeConfig) { cfg.MsPerCostUnit, cfg.clock = 1e-12, clk })
	client, err := NewClient(ClientConfig{network: memWall, Addrs: []string{node.Addr()}, Mechanism: MechGreedy})
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()
	if out := client.Run(1, "SELECT COUNT(*) FROM t"); out.Err != nil {
		t.Fatal(out.Err)
	}
	node.noteCheckpoint()
	clk.advance(1500 * time.Millisecond)

	st, err := client.Stats(node.Addr())
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(node.MetricsHandler())
	defer srv.Close()
	resp, err := srv.Client().Get(srv.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	scraped := map[string]float64{}
	for _, line := range strings.Split(string(body), "\n") {
		if f := strings.Fields(line); len(f) == 2 && strings.HasPrefix(f[0], "qa_") {
			v, err := strconv.ParseFloat(f[1], 64)
			if err != nil {
				t.Fatalf("scrape line %q: %v", line, err)
			}
			scraped[f[0][:strings.IndexByte(f[0]+"{", '{')]] = v
		}
	}
	for _, name := range []string{metrics.CheckpointAgeMs, metrics.InflightWork, metrics.QueueDepth, metrics.DedupEntries, metrics.DedupRetainedBytes} {
		stat, ok := st.Health[name]
		scrape, scrapedOK := scraped["qa_"+metrics.SanitizeMetricName(name)]
		if !ok || !scrapedOK || stat != scrape {
			t.Errorf("%s: stats %v (present %v), scrape %v (present %v)", name, stat, ok, scrape, scrapedOK)
		}
	}
	if age := st.Health[metrics.CheckpointAgeMs]; age != 1500 {
		t.Errorf("checkpoint age %vms on a clock moved 1500ms since the checkpoint", age)
	}
	if st.Health[metrics.DedupEntries] != 1 || st.Health[metrics.DedupRetainedBytes] == 0 {
		t.Errorf("dedup gauges %v entries, %v bytes; want the executed query's outcome",
			st.Health[metrics.DedupEntries], st.Health[metrics.DedupRetainedBytes])
	}
}
