package cluster

import (
	"net/http"
	"sort"

	"github.com/qamarket/qamarket/internal/metrics"
)

// MetricsHandler serves the node's observable state in the Prometheus
// plain-text exposition format: the health counter/gauge registry,
// server-side per-op handling-latency histograms, and the per-period
// market telemetry (per-class prices, supply vectors, trading-failure
// counters, epoch). Rendering is deterministic — names and label
// values are sorted — so scrapes diff cleanly.
func (n *Node) MetricsHandler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		p := metrics.NewPromWriter(w)
		node := metrics.Labels{"node": n.cfg.NodeID}

		// Health registry: counters and gauges keep their distinct
		// Prometheus types (the kind split the registration panics
		// guarantee).
		health := n.health.Counters()
		names := make([]string, 0, len(health))
		for name := range health {
			names = append(names, name)
		}
		sort.Strings(names)
		for _, name := range names {
			p.Counter("qa_"+metrics.SanitizeMetricName(name), node, float64(health[name]))
		}
		gauges := n.health.Gauges()
		n.sampleGauges(gauges)
		names = names[:0]
		for name := range gauges {
			names = append(names, name)
		}
		sort.Strings(names)
		for _, name := range names {
			p.Gauge("qa_"+metrics.SanitizeMetricName(name), node, gauges[name])
		}

		n.mu.Lock()
		executed := n.executed
		backlog := n.backlogMs
		n.mu.Unlock()
		p.Counter("qa_queries_executed_total", node, float64(executed))
		p.Gauge("qa_backlog_ms", node, backlog)
		p.Gauge("qa_inflight", node, float64(n.inflight.Load()))

		// Server-side handling latency per op.
		hists := n.opLatencyBuckets()
		ops := make([]string, 0, len(hists))
		for op := range hists {
			ops = append(ops, op)
		}
		sort.Strings(ops)
		for _, op := range ops {
			p.Histogram("qa_op_handle_ms", metrics.Labels{"node": n.cfg.NodeID, "op": op}, hists[op])
		}

		// Per-period market telemetry. Class labels are the node's
		// private plan signatures, sanitized for the label charset by %q
		// escaping inside the renderer.
		tel := n.MarketTelemetry()
		p.Gauge("qa_market_epoch", node, float64(tel.Epoch))
		active := 0.0
		if tel.Active {
			active = 1
		}
		p.Gauge("qa_market_active", node, active)
		p.Gauge("qa_market_carry_ms", node, tel.CarryMs)
		p.Counter("qa_market_periods_total", node, float64(tel.Stats.Periods))
		p.Counter("qa_market_offers_total", node, float64(tel.Stats.Offers))
		p.Counter("qa_market_accepts_total", node, float64(tel.Stats.Accepts))
		p.Counter("qa_market_rejects_total", node, float64(tel.Stats.Rejects))
		p.Counter("qa_market_unsold_total", node, float64(tel.Stats.Unsold))
		p.Counter("qa_market_price_ups_total", node, float64(tel.Stats.PriceUps))
		p.Counter("qa_market_price_downs_total", node, float64(tel.Stats.PriceDns))
		for _, cl := range tel.Classes {
			l := metrics.Labels{"node": n.cfg.NodeID, "class": cl.Signature}
			p.Gauge("qa_market_price", l, cl.Price)
			p.Gauge("qa_market_cost_ms", l, cl.CostMs)
			p.Gauge("qa_market_supply_planned", l, float64(cl.Planned))
			p.Gauge("qa_market_supply_remaining", l, float64(cl.Remaining))
			p.Gauge("qa_market_accepted", l, float64(cl.Accepted))
		}
	})
}
