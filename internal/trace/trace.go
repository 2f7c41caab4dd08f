// Package trace is the federation's query-lifecycle tracer: a
// low-overhead, deterministic span recorder that follows one query
// through negotiate -> allocate -> execute -> fetch across client and
// server processes.
//
// Spans are recorded into a ring buffer that grows on use up to a fixed
// capacity and then overwrites the oldest, the clock is injected like
// everywhere else in the repo (tests drive it by hand for byte-identical
// output), and span identity is a recorder-local counter qualified by
// the recorder's origin — no global randomness, no allocation beyond the
// buffer slot.
// The cluster package carries trace context on the wire (a
// version-negotiated request field, like the fetch-row encoding) so
// server-side spans parent correctly under the client's, and
// AssembleTree/RenderTree rebuild the cross-node tree for qactl -trace.
package trace

import (
	"fmt"
	"sort"
	"strings"
	"sync"
	"time"
)

// Span is one timed operation in a query's lifecycle. IDs are unique
// across the federation because every recorder qualifies its local
// counter with its origin (node ID or "client").
type Span struct {
	TraceID int64   `json:"trace_id"`         // the query being followed
	ID      string  `json:"id"`               // "<origin>-<seq>"
	Parent  string  `json:"parent,omitempty"` // parent span ID ("" = root)
	Name    string  `json:"name"`             // run, negotiate, execute, fetch, solve, queue, exec
	Origin  string  `json:"origin"`           // recorder that produced the span
	StartNs int64   `json:"start_ns"`         // clock reading at span start (unix ns)
	DurMs   float64 `json:"dur_ms"`           // measured duration
	Note    string  `json:"note,omitempty"`   // free-form detail (winner, rows, error)
}

// Clock yields the current time. Production recorders use time.Now;
// tests inject a manual clock for deterministic spans.
type Clock func() time.Time

// DefaultCapacity is the span ring size used when NewRecorder is given
// a non-positive capacity: enough for thousands of queries' lifecycles
// while bounding a long-lived node's trace memory to a few hundred KB.
// The ring grows as spans arrive, so a recorder nobody traces through
// holds none of it.
const DefaultCapacity = 4096

// Recorder collects spans into a ring buffer. All methods are
// concurrency-safe. A nil *Recorder is a valid disabled recorder:
// Start returns a nil *Active whose methods no-op, so call sites pay a
// single nil check when tracing is off.
type Recorder struct {
	origin string
	clock  Clock

	mu   sync.Mutex
	seq  uint64
	buf  []Span
	size int  // the ring's capacity; buf grows up to it
	next int  // next slot to overwrite
	full bool // buf has wrapped at least once
}

// NewRecorder builds a recorder stamping spans with the given origin.
// capacity <= 0 uses DefaultCapacity; a nil clock uses time.Now.
func NewRecorder(origin string, capacity int, clock Clock) *Recorder {
	if capacity <= 0 {
		capacity = DefaultCapacity
	}
	if clock == nil {
		clock = time.Now
	}
	return &Recorder{origin: origin, clock: clock, size: capacity}
}

// Origin returns the identity the recorder stamps on its spans.
func (r *Recorder) Origin() string {
	if r == nil {
		return ""
	}
	return r.origin
}

// Active is an in-flight span handle returned by Start. Finish records
// it. The zero of a disabled recorder is a nil *Active; its methods
// no-op and its ID is "".
type Active struct {
	r     *Recorder
	start time.Time
	span  Span
}

// Start opens a span. The span is not visible until Finish.
func (r *Recorder) Start(traceID int64, parent, name string) *Active {
	if r == nil {
		return nil
	}
	now := r.clock()
	r.mu.Lock()
	r.seq++
	id := fmt.Sprintf("%s-%d", r.origin, r.seq)
	r.mu.Unlock()
	return &Active{r: r, start: now, span: Span{
		TraceID: traceID,
		ID:      id,
		Parent:  parent,
		Name:    name,
		Origin:  r.origin,
		StartNs: now.UnixNano(),
	}}
}

// ID returns the span's federation-unique identity, for parenting
// child spans (including remote ones via the wire trace context).
func (a *Active) ID() string {
	if a == nil {
		return ""
	}
	return a.span.ID
}

// Annotate attaches a free-form note; the last one wins.
func (a *Active) Annotate(format string, args ...any) {
	if a == nil {
		return
	}
	a.span.Note = fmt.Sprintf(format, args...)
}

// Finish measures the span against the recorder's clock and commits it
// to the ring. Finishing twice records twice; don't.
func (a *Active) Finish() {
	if a == nil {
		return
	}
	a.span.DurMs = float64(a.r.clock().Sub(a.start)) / float64(time.Millisecond)
	a.r.commit(a.span)
}

// Record commits a span measured by the caller (the server's queue
// span, whose bounds are only known after the executor picked the job
// up). It returns the span's ID so children can parent under it.
func (r *Recorder) Record(traceID int64, parent, name string, start time.Time, durMs float64, note string) string {
	if r == nil {
		return ""
	}
	r.mu.Lock()
	r.seq++
	id := fmt.Sprintf("%s-%d", r.origin, r.seq)
	r.mu.Unlock()
	r.commit(Span{
		TraceID: traceID,
		ID:      id,
		Parent:  parent,
		Name:    name,
		Origin:  r.origin,
		StartNs: start.UnixNano(),
		DurMs:   durMs,
		Note:    note,
	})
	return id
}

func (r *Recorder) commit(s Span) {
	r.mu.Lock()
	if len(r.buf) < r.size {
		if len(r.buf) == cap(r.buf) {
			grown := make([]Span, len(r.buf), min(max(2*len(r.buf), 16), r.size))
			copy(grown, r.buf)
			r.buf = grown
		}
		r.buf = append(r.buf, s)
	} else {
		r.buf[r.next] = s
		r.full = true
	}
	r.next = (r.next + 1) % r.size
	r.mu.Unlock()
}

// Spans returns the recorded spans for one trace, oldest first. A nil
// recorder returns nil.
func (r *Recorder) Spans(traceID int64) []Span {
	if r == nil {
		return nil
	}
	var out []Span
	r.each(func(s Span) {
		if s.TraceID == traceID {
			out = append(out, s)
		}
	})
	return out
}

// All returns every buffered span, oldest first.
func (r *Recorder) All() []Span {
	if r == nil {
		return nil
	}
	out := make([]Span, 0, len(r.buf))
	r.each(func(s Span) { out = append(out, s) })
	return out
}

// Len reports how many spans the ring currently holds.
func (r *Recorder) Len() int {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return len(r.buf)
}

// each visits buffered spans oldest-first under the lock. Before the
// ring wraps, next == len(buf) and the second loop covers everything;
// after it wraps, the oldest span sits at next.
func (r *Recorder) each(fn func(Span)) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.full {
		for i := r.next; i < len(r.buf); i++ {
			fn(r.buf[i])
		}
	}
	for i := 0; i < r.next; i++ {
		fn(r.buf[i])
	}
}

// node is one assembled tree position.
type node struct {
	span     Span
	children []*node
}

// AssembleTree links spans (from any mix of recorders) into their
// parent/child forest. Spans whose parent is absent from the set — a
// node's ring overwrote it, or the query was partially traced — become
// roots, so a lossy collection still renders. Siblings are ordered by
// start time, then ID, so the rendering is deterministic for a fixed
// span set.
func assembleTree(spans []Span) []*node {
	byID := make(map[string]*node, len(spans))
	for _, s := range spans {
		// Duplicate IDs (the same span fetched from two overlapping
		// collections) collapse to one.
		if _, ok := byID[s.ID]; !ok {
			byID[s.ID] = &node{span: s}
		}
	}
	var roots []*node
	for _, n := range byID {
		if p, ok := byID[n.span.Parent]; ok && p != n {
			p.children = append(p.children, n)
		} else {
			roots = append(roots, n)
		}
	}
	order := func(ns []*node) {
		sort.Slice(ns, func(i, j int) bool {
			if ns[i].span.StartNs != ns[j].span.StartNs {
				return ns[i].span.StartNs < ns[j].span.StartNs
			}
			return ns[i].span.ID < ns[j].span.ID
		})
	}
	order(roots)
	for _, n := range byID {
		order(n.children)
	}
	return roots
}

// RenderTree renders the assembled span forest as an indented tree,
// one span per line: name, duration, origin, note. Empty input renders
// to "(no spans)".
func RenderTree(spans []Span) string {
	if len(spans) == 0 {
		return "(no spans)\n"
	}
	var b strings.Builder
	var walk func(n *node, prefix string, last bool)
	walk = func(n *node, prefix string, last bool) {
		branch, childPrefix := "├─ ", prefix+"│  "
		if last {
			branch, childPrefix = "└─ ", prefix+"   "
		}
		fmt.Fprintf(&b, "%s%s%-10s %8.2fms  [%s]", prefix, branch, n.span.Name, n.span.DurMs, n.span.Origin)
		if n.span.Note != "" {
			fmt.Fprintf(&b, "  %s", n.span.Note)
		}
		b.WriteByte('\n')
		for i, c := range n.children {
			walk(c, childPrefix, i == len(n.children)-1)
		}
	}
	roots := assembleTree(spans)
	fmt.Fprintf(&b, "trace %d (%d spans)\n", roots[0].span.TraceID, len(spans))
	for i, r := range roots {
		walk(r, "", i == len(roots)-1)
	}
	return b.String()
}
