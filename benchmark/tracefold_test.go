package main

import (
	"math"
	"testing"

	"github.com/qamarket/qamarket/internal/trace"
)

// sp builds a span on a millisecond grid.
func sp(id, parent, name string, startMs, durMs float64) trace.Span {
	return trace.Span{TraceID: 1, ID: id, Parent: parent, Name: name, StartNs: int64(startMs * 1e6), DurMs: durMs}
}

func near(a, b float64) bool { return math.Abs(a-b) < 1e-6 }

func TestFoldTraceSequentialQuery(t *testing.T) {
	// run 10 ms: negotiate 0-3 (solves 1 and 2 ms), execute 3.5-9.5 with
	// queue 0.5 and exec 4.
	lt := foldTrace([]trace.Span{
		sp("c-1", "", "run", 0, 10),
		sp("c-2", "c-1", "negotiate", 0, 3),
		sp("n0-1", "c-2", "solve", 0.5, 1),
		sp("n1-1", "c-2", "solve", 0.5, 2),
		sp("c-3", "c-1", "execute", 3.5, 6),
		sp("n1-2", "c-3", "queue", 4, 0.5),
		sp("n1-3", "c-3", "exec", 4.5, 4),
	}, 1)
	if !lt.complete || lt.negative != 0 {
		t.Fatalf("complete %t, negative %d", lt.complete, lt.negative)
	}
	want := layerTimes{root: 10, clientSelf: 1, negotiate: 3, solve: 2, queue: 0.5, exec: 4, ship: 1.5}
	if !near(lt.root, want.root) || !near(lt.clientSelf, want.clientSelf) || !near(lt.negotiate, want.negotiate) ||
		!near(lt.solve, want.solve) || !near(lt.queue, want.queue) || !near(lt.exec, want.exec) || !near(lt.ship, want.ship) {
		t.Fatalf("got %+v, want %+v", lt, want)
	}
	if sum := lt.clientSelf + lt.negotiate + lt.queue + lt.exec + lt.ship; !near(sum, lt.root) {
		t.Fatalf("layers sum to %g, root is %g", sum, lt.root)
	}
}

func TestFoldTraceOverlappingChildren(t *testing.T) {
	// Two fetches overlap for 2 ms: the union covers 0-8, not 5+5.
	lt := foldTrace([]trace.Span{
		sp("c-1", "", "fetch-run", 0, 10),
		sp("c-2", "c-1", "fetch", 0, 5),
		sp("n0-1", "c-2", "exec", 1, 1),
		sp("c-3", "c-1", "fetch", 3, 5),
		sp("n1-1", "c-3", "exec", 4, 1),
	}, 2)
	if !lt.complete || lt.negative != 0 {
		t.Fatalf("complete %t, negative %d", lt.complete, lt.negative)
	}
	if !near(lt.clientSelf, 2) {
		t.Fatalf("client self %g, want 2 (root minus the union of its children)", lt.clientSelf)
	}
}

func TestFoldTraceMissingSpans(t *testing.T) {
	// The server's ring lost the exec span: the query must not be folded.
	lt := foldTrace([]trace.Span{
		sp("c-1", "", "run", 0, 10),
		sp("c-2", "c-1", "negotiate", 0, 3),
		sp("c-3", "c-1", "execute", 3, 7),
	}, 1)
	if lt.complete {
		t.Fatal("a trace without its exec span folded as complete")
	}
	// No root at all (the client ring wrapped).
	if lt := foldTrace([]trace.Span{sp("c-3", "c-1", "execute", 3, 7)}, 1); lt.complete || lt.root != 0 {
		t.Fatalf("rootless trace folded: %+v", lt)
	}
	var sums layerSums
	sums.add(lt, 10)
	if sums.queries != 0 || sums.incomplete != 1 {
		t.Fatalf("incomplete trace entered the means: %+v", sums)
	}
}

func TestFoldTraceNegativeSelfFlagged(t *testing.T) {
	// Server spans longer than the client span that caused them.
	lt := foldTrace([]trace.Span{
		sp("c-1", "", "run", 0, 10),
		sp("c-2", "c-1", "execute", 1, 4),
		sp("n0-1", "c-2", "queue", 1, 2),
		sp("n0-2", "c-2", "exec", 3, 5),
	}, 1)
	if lt.negative != 1 {
		t.Fatalf("negative = %d, want 1 (queue+exec exceed execute)", lt.negative)
	}
	if lt.ship != 0 {
		t.Fatalf("ship %g, want it clamped to 0", lt.ship)
	}
	// A child that ends after its parent.
	lt = foldTrace([]trace.Span{
		sp("c-1", "", "run", 0, 10),
		sp("c-2", "c-1", "execute", 8, 5),
		sp("n0-1", "c-2", "exec", 8, 1),
	}, 1)
	if lt.negative != 1 {
		t.Fatalf("negative = %d, want 1 (child outside its parent)", lt.negative)
	}
	// A solve longer than its negotiate round.
	lt = foldTrace([]trace.Span{
		sp("c-1", "", "run", 0, 10),
		sp("c-2", "c-1", "negotiate", 0, 1),
		sp("n0-1", "c-2", "solve", 0, 3),
		sp("c-3", "c-1", "execute", 1, 5),
		sp("n0-2", "c-3", "exec", 1, 5),
	}, 1)
	if lt.negative != 1 || !near(lt.solve, 1) {
		t.Fatalf("negative = %d, solve = %g; want 1 and the solve clamped to its round", lt.negative, lt.solve)
	}
}

func TestLayerSumsShares(t *testing.T) {
	var sums layerSums
	sums.add(layerTimes{root: 10, clientSelf: 1, negotiate: 3, solve: 2, queue: 0.5, exec: 4, ship: 1.5, complete: true}, 10.1)
	sums.add(layerTimes{root: 30, clientSelf: 3, negotiate: 9, solve: 6, queue: 1.5, exec: 12, ship: 4.5, complete: true}, 30.1)
	out := make(map[string]float64)
	sums.values(out)
	if !near(out["engine.exec_ms"], 8) || !near(out["engine.exec_share"], 0.4) {
		t.Fatalf("exec %g ms, share %g", out["engine.exec_ms"], out["engine.exec_share"])
	}
	if !near(out["cluster.negotiate_wire_ms"], 2) {
		t.Fatalf("negotiate wire %g, want negotiate minus solve", out["cluster.negotiate_wire_ms"])
	}
	if !near(out["trace.root_vs_wall"], 40/40.2) {
		t.Fatalf("root vs wall %g", out["trace.root_vs_wall"])
	}
	share := out["cluster.client_self_share"] + out["cluster.negotiate_share"] + out["cluster.queue_share"] +
		out["engine.exec_share"] + out["cluster.ship_share"]
	if !near(share, 1) {
		t.Fatalf("shares sum to %g", share)
	}
}
