package trace

import (
	"strings"
	"sync"
	"testing"
	"time"
)

// manualClock is a deterministic clock the tests advance by hand.
type manualClock struct {
	mu  sync.Mutex
	now time.Time
}

func newManualClock() *manualClock {
	return &manualClock{now: time.Unix(1000, 0)}
}

func (c *manualClock) Now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.now
}

func (c *manualClock) Advance(d time.Duration) {
	c.mu.Lock()
	c.now = c.now.Add(d)
	c.mu.Unlock()
}

func TestRecorderDeterministicSpans(t *testing.T) {
	clk := newManualClock()
	r := NewRecorder("n-1", 16, clk.Now)
	root := r.Start(7, "", "run")
	clk.Advance(5 * time.Millisecond)
	child := r.Start(7, root.ID(), "negotiate")
	clk.Advance(3 * time.Millisecond)
	child.Finish()
	clk.Advance(2 * time.Millisecond)
	root.Annotate("node %s", "n-2")
	root.Finish()

	spans := r.Spans(7)
	if len(spans) != 2 {
		t.Fatalf("got %d spans, want 2", len(spans))
	}
	// The child finished first, so it commits first.
	if spans[0].Name != "negotiate" || spans[0].ID != "n-1-2" || spans[0].Parent != "n-1-1" {
		t.Fatalf("child span = %+v", spans[0])
	}
	if spans[0].DurMs != 3 {
		t.Fatalf("child duration = %v, want 3 (manual clock)", spans[0].DurMs)
	}
	if spans[1].Name != "run" || spans[1].ID != "n-1-1" || spans[1].DurMs != 10 {
		t.Fatalf("root span = %+v", spans[1])
	}
	if spans[1].Note != "node n-2" {
		t.Fatalf("root note = %q", spans[1].Note)
	}
	if got := r.Spans(8); got != nil {
		t.Fatalf("trace 8 spans = %v, want none", got)
	}
}

func TestRecorderRingOverwritesOldest(t *testing.T) {
	clk := newManualClock()
	r := NewRecorder("c", 4, clk.Now)
	if cap(r.buf) != 0 {
		t.Fatalf("an unused recorder holds a %d-span ring", cap(r.buf))
	}
	for i := int64(1); i <= 6; i++ {
		r.Record(i, "", "op", clk.Now(), 1, "")
		clk.Advance(time.Millisecond)
	}
	if r.Len() != 4 || cap(r.buf) != 4 {
		t.Fatalf("ring holds %d in %d slots, want 4 in 4", r.Len(), cap(r.buf))
	}
	all := r.All()
	if len(all) != 4 {
		t.Fatalf("All() = %d spans", len(all))
	}
	// Traces 1 and 2 were overwritten; 3..6 remain, oldest first.
	for i, want := range []int64{3, 4, 5, 6} {
		if all[i].TraceID != want {
			t.Fatalf("slot %d holds trace %d, want %d (order %v)", i, all[i].TraceID, want, all)
		}
	}
	if r.Spans(1) != nil {
		t.Fatal("overwritten trace still readable")
	}

	// A ring that grows in steps wraps the same way.
	r = NewRecorder("c", 40, clk.Now)
	for i := int64(1); i <= 100; i++ {
		r.Record(i, "", "op", clk.Now(), 1, "")
	}
	all = r.All()
	if len(all) != 40 || cap(r.buf) != 40 || all[0].TraceID != 61 || all[39].TraceID != 100 {
		t.Fatalf("40-span ring after 100 spans: %d spans in %d slots, %d..%d", len(all), cap(r.buf), all[0].TraceID, all[len(all)-1].TraceID)
	}
}

func TestNilRecorderIsDisabled(t *testing.T) {
	var r *Recorder
	a := r.Start(1, "", "run")
	if a != nil {
		t.Fatal("nil recorder returned a live span")
	}
	a.Annotate("ignored")
	a.Finish() // must not panic
	if a.ID() != "" {
		t.Fatalf("nil active ID = %q", a.ID())
	}
	if r.Record(1, "", "x", time.Now(), 1, "") != "" {
		t.Fatal("nil recorder recorded")
	}
	if r.Spans(1) != nil || r.All() != nil || r.Len() != 0 || r.Origin() != "" {
		t.Fatal("nil recorder leaked state")
	}
}

func TestRenderTreeCrossOrigin(t *testing.T) {
	clk := newManualClock()
	client := NewRecorder("client", 16, clk.Now)
	server := NewRecorder("n-a", 16, clk.Now)

	root := client.Start(42, "", "run")
	neg := client.Start(42, root.ID(), "negotiate")
	clk.Advance(time.Millisecond)
	server.Record(42, neg.ID(), "solve", clk.Now(), 0.2, "class q1")
	clk.Advance(time.Millisecond)
	neg.Finish()
	exec := client.Start(42, root.ID(), "execute")
	clk.Advance(time.Millisecond)
	server.Record(42, exec.ID(), "queue", clk.Now(), 0.5, "")
	server.Record(42, exec.ID(), "exec", clk.Now(), 2.5, "7 rows")
	clk.Advance(3 * time.Millisecond)
	exec.Finish()
	root.Finish()

	spans := append(client.Spans(42), server.Spans(42)...)
	out := RenderTree(spans)
	if !strings.Contains(out, "trace 42 (6 spans)") {
		t.Fatalf("missing header:\n%s", out)
	}
	for _, want := range []string{"run", "negotiate", "solve", "queue", "exec", "[client]", "[n-a]", "class q1", "7 rows"} {
		if !strings.Contains(out, want) {
			t.Fatalf("rendering missing %q:\n%s", want, out)
		}
	}
	// The server's solve span must be indented under the client's
	// negotiate span: cross-origin parenting survived assembly.
	lines := strings.Split(out, "\n")
	negIdx, solveIdx := -1, -1
	for i, l := range lines {
		if strings.Contains(l, "negotiate") {
			negIdx = i
		}
		if strings.Contains(l, "solve") {
			solveIdx = i
		}
	}
	if solveIdx != negIdx+1 {
		t.Fatalf("solve not rendered under negotiate:\n%s", out)
	}
	// Deterministic: the same spans render identically.
	if again := RenderTree(spans); again != out {
		t.Fatalf("rendering not deterministic:\n%s\nvs\n%s", out, again)
	}
}

func TestRenderTreeOrphanSpansBecomeRoots(t *testing.T) {
	clk := newManualClock()
	r := NewRecorder("n-b", 8, clk.Now)
	r.Record(5, "client-99", "exec", clk.Now(), 1, "") // parent was never collected
	out := RenderTree(r.Spans(5))
	if !strings.Contains(out, "exec") {
		t.Fatalf("orphan span dropped:\n%s", out)
	}
	if RenderTree(nil) != "(no spans)\n" {
		t.Fatal("empty render")
	}
}

// TestSpanAllocationBudget guards the recorder's low-overhead claim at
// the unit level: one Start/Finish pair stays within a handful of
// allocations (the ID string and the handle), so tracing a query adds
// noise-level cost to a dispatch that allocates hundreds of times.
func TestSpanAllocationBudget(t *testing.T) {
	clk := newManualClock()
	r := NewRecorder("n-c", 1024, clk.Now)
	allocs := testing.AllocsPerRun(200, func() {
		r.Start(1, "", "op").Finish()
	})
	if allocs > 6 {
		t.Fatalf("Start/Finish allocates %.1f times per span, want <= 6", allocs)
	}
}

func BenchmarkSpanRecord(b *testing.B) {
	r := NewRecorder("bench", 4096, nil)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		r.Start(int64(i), "", "op").Finish()
	}
}
