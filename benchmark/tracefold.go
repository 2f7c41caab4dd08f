package main

import (
	"sort"

	"github.com/qamarket/qamarket/internal/trace"
)

// layerTimes is one traced query folded into the layers it crossed, in
// milliseconds. root = clientSelf + negotiate + queue + exec + ship when
// the client's spans do not overlap; negotiate = solve + negotiateWire.
type layerTimes struct {
	root       float64 // the client's run / fetch-run span
	clientSelf float64 // root minus what its negotiate/execute/fetch children cover
	negotiate  float64 // client negotiate spans
	solve      float64 // slowest server solve span of each negotiate round
	queue      float64 // server queue spans
	exec       float64 // server exec spans
	ship       float64 // client execute/fetch spans minus their queue and exec
	// negative counts spans whose children cover more than the span
	// itself: a clock or parenting fault that would make a self time
	// negative.
	negative int
	// complete is false when the root span or a server exec span is
	// missing (a ring overwrote it, or a node did not answer the spans
	// op): such a query must not enter the layer means.
	complete bool
}

// selfTolMs absorbs the rounding of DurMs against StartNs, and the
// microseconds by which a span's wall-clock start (StartNs) can disagree
// with its monotonic duration while the host disciplines the clock.
const selfTolMs = 0.02

type interval struct{ lo, hi float64 } // ms on the shared process clock

func spanInterval(s trace.Span) interval {
	lo := float64(s.StartNs) / 1e6
	return interval{lo, lo + s.DurMs}
}

// covered is the length of the union of the children's intervals,
// clipped to the parent: overlapping children are not counted twice.
func covered(parent interval, children []interval) float64 {
	sort.Slice(children, func(i, j int) bool { return children[i].lo < children[j].lo })
	total, end := 0.0, parent.lo
	for _, c := range children {
		lo, hi := max(c.lo, end), min(c.hi, parent.hi)
		if hi > lo {
			total += hi - lo
			end = hi
		}
	}
	return total
}

// foldTrace attributes one query's spans to layers. wantExec is how many
// server exec spans a completed query of the workload must have.
func foldTrace(spans []trace.Span, wantExec int) layerTimes {
	var lt layerTimes
	children := make(map[string][]trace.Span, len(spans))
	var root *trace.Span
	for i, s := range spans {
		if s.Parent == "" && (s.Name == "run" || s.Name == "fetch-run") {
			root = &spans[i]
			continue
		}
		children[s.Parent] = append(children[s.Parent], s)
	}
	if root == nil {
		return lt
	}
	lt.root = root.DurMs
	var cover []interval
	execs := 0
	for _, c := range children[root.ID] {
		switch c.Name {
		case "negotiate":
			lt.negotiate += c.DurMs
			slowest := 0.0
			for _, sv := range children[c.ID] {
				if sv.Name == "solve" {
					slowest = max(slowest, sv.DurMs)
				}
			}
			if slowest > c.DurMs+selfTolMs {
				lt.negative++
				slowest = c.DurMs
			}
			lt.solve += slowest
		case "execute", "fetch":
			var q, e float64
			for _, sv := range children[c.ID] {
				switch sv.Name {
				case "queue":
					q += sv.DurMs
				case "exec":
					e += sv.DurMs
					execs++
				}
			}
			ship := c.DurMs - q - e
			if ship < -selfTolMs {
				lt.negative++
			}
			lt.queue += q
			lt.exec += e
			lt.ship += max(ship, 0)
		default:
			continue
		}
		cover = append(cover, spanInterval(c))
	}
	rootIv := spanInterval(*root)
	for _, c := range cover {
		if c.lo < rootIv.lo-selfTolMs || c.hi > rootIv.hi+selfTolMs {
			lt.negative++ // a child outside its parent
		}
	}
	lt.clientSelf = root.DurMs - covered(rootIv, cover)
	lt.complete = execs >= wantExec
	return lt
}

// layerSums accumulates folded queries.
type layerSums struct {
	layerTimes
	queries    int
	incomplete int
	wallMs     float64 // harness stopwatch over the same queries
}

func (ls *layerSums) add(lt layerTimes, wallMs float64) {
	ls.negative += lt.negative
	if !lt.complete {
		ls.incomplete++
		return
	}
	ls.queries++
	ls.wallMs += wallMs
	ls.root += lt.root
	ls.clientSelf += lt.clientSelf
	ls.negotiate += lt.negotiate
	ls.solve += lt.solve
	ls.queue += lt.queue
	ls.exec += lt.exec
	ls.ship += lt.ship
}

// values reports each layer as mean ms per query and as a share of the
// root span.
func (ls *layerSums) values(out map[string]float64) {
	n := float64(max(ls.queries, 1))
	root := ls.root
	if root == 0 {
		root = 1
	}
	out["cluster.client_self_ms"] = ls.clientSelf / n
	out["cluster.negotiate_ms"] = ls.negotiate / n
	out["cluster.solve_ms"] = ls.solve / n
	out["cluster.negotiate_wire_ms"] = (ls.negotiate - ls.solve) / n
	out["cluster.queue_ms"] = ls.queue / n
	out["engine.exec_ms"] = ls.exec / n
	out["cluster.ship_ms"] = ls.ship / n
	out["cluster.client_self_share"] = ls.clientSelf / root
	out["cluster.negotiate_share"] = ls.negotiate / root
	out["cluster.queue_share"] = ls.queue / root
	out["engine.exec_share"] = ls.exec / root
	out["cluster.ship_share"] = ls.ship / root
	out["trace.root_vs_wall"] = 0
	if ls.wallMs > 0 {
		out["trace.root_vs_wall"] = ls.root / ls.wallMs
	}
	out["trace.queries"] = float64(ls.queries)
	out["trace.incomplete"] = float64(ls.incomplete)
	out["trace.negative_self"] = float64(ls.negative)
}
