// Package membership is the federation's gossip-based registry: every
// node carries a table of members (ID, address, incarnation, heartbeat,
// catalog digest, market epoch) and anti-entropy pushes it to a few
// random peers per gossip period. Crashed nodes are suspected after
// their heartbeat stops progressing and evicted a few rounds later;
// nodes that leave gracefully tombstone themselves so clients prune
// their supply before the failure detector would. The design follows
// SWIM-style epidemic membership (incarnation numbers refute stale
// suspicion) with a heartbeat failure detector, which keeps the whole
// protocol deterministic under an injected RNG: time is modeled as
// explicit Tick rounds, never wall-clock.
package membership

import (
	"errors"
	"fmt"
	"hash/fnv"
	"math/rand"
	"sort"
	"sync"
)

// State is a member's lifecycle position.
type State uint8

// Member lifecycle states, in gossip-priority order: for equal
// incarnations a higher state wins a merge, so suspicion, death, and
// graceful departure each propagate monotonically until the subject
// refutes them with a higher incarnation.
const (
	// StateAlive is a member whose heartbeat is progressing.
	StateAlive State = iota
	// StateSuspect is a member whose heartbeat stalled for
	// SuspectAfter rounds; it may still refute.
	StateSuspect
	// StateDead is a suspect whose heartbeat stayed stalled for
	// EvictAfter further rounds: evicted from the live view.
	StateDead
	// StateLeft is a member that announced a graceful departure. It
	// outranks Dead so a clean goodbye is never rewritten as a crash.
	StateLeft
)

// String renders the state for wire payloads and operator tools.
func (s State) String() string {
	switch s {
	case StateAlive:
		return "alive"
	case StateSuspect:
		return "suspect"
	case StateDead:
		return "dead"
	case StateLeft:
		return "left"
	}
	return fmt.Sprintf("state(%d)", uint8(s))
}

// ParseState inverts String; unknown strings map to StateDead so a
// newer peer's future state at least removes the member from the live
// view instead of faking liveness.
func ParseState(s string) State {
	switch s {
	case "alive":
		return StateAlive
	case "suspect":
		return StateSuspect
	case "left":
		return StateLeft
	default:
		return StateDead
	}
}

// Live reports whether the state keeps the member in the live view
// (alive or suspect — a suspect may still refute).
func (s State) Live() bool { return s == StateAlive || s == StateSuspect }

// Member is one row of the membership table.
type Member struct {
	// ID is the node's stable identity, constant across address
	// changes and restarts.
	ID string
	// Addr is the node's current TCP listen address.
	Addr string
	// Incarnation orders claims about this member: a member refutes
	// stale suspicion by bumping its own incarnation above the claim.
	Incarnation uint64
	// Heartbeat is the member's own round counter; progress observed
	// anywhere resets suspicion timers everywhere.
	Heartbeat uint64
	// State is the member's lifecycle position.
	State State
	// CatalogDigest summarizes which relations the node hosts, so
	// peers learn data placement along with liveness.
	CatalogDigest string
	// CatalogFilter is the hex-encoded relation-name Bloom filter
	// (catalog.RelationFilter) behind the digest: enough placement
	// detail for clients to test per-class feasibility without
	// shipping schemas. Empty on old nodes; consumers must then treat
	// the member as feasible for everything.
	CatalogFilter string
	// Epoch is the member's market age in pricer periods — how long
	// its QA-NT agent has been adjusting prices.
	Epoch uint64
}

// Config parameterizes a Registry.
type Config struct {
	// Self seeds the registry's own row. ID and Addr are required;
	// Incarnation defaults to 1 and State is forced to alive.
	Self Member
	// Fanout is how many random live peers each gossip round pushes
	// to (default 2).
	Fanout int
	// SuspectAfter is how many rounds without heartbeat progress move
	// an alive member to suspect (default 3).
	SuspectAfter int
	// EvictAfter is how many further stalled rounds move a suspect to
	// dead (default 3).
	EvictAfter int
	// TombstoneAfter is how many rounds a dead/left row is retained
	// before it is forgotten (default 24). Tombstones keep slower
	// peers' stale "alive" claims from resurrecting a departed member.
	TombstoneAfter int
	// Rand drives target selection. Defaults to a source seeded from
	// the member ID, so a fixed topology gossips deterministically.
	Rand *rand.Rand
}

// entry is a member row plus the local failure-detector bookkeeping.
type entry struct {
	m Member
	// stalled counts rounds since the member's heartbeat or
	// incarnation last progressed.
	stalled int
	// buried counts rounds the row has spent dead or left.
	buried int
}

// Registry is one node's membership table. All methods are safe for
// concurrent use.
type Registry struct {
	mu             sync.Mutex
	self           string
	fanout         int
	suspectAfter   int
	evictAfter     int
	tombstoneAfter int
	rng            *rand.Rand
	members        map[string]*entry
	left           bool
	version        uint64
	changed        chan struct{}
}

// TickSummary reports what one failure-detector round changed.
type TickSummary struct {
	// Suspected is how many members moved alive -> suspect.
	Suspected int
	// Evicted is how many members moved suspect -> dead.
	Evicted int
}

// New builds a registry containing only Self.
func New(cfg Config) (*Registry, error) {
	if cfg.Self.ID == "" {
		return nil, errors.New("membership: Config.Self.ID is empty")
	}
	if cfg.Self.Addr == "" {
		return nil, errors.New("membership: Config.Self.Addr is empty")
	}
	if cfg.Fanout <= 0 {
		cfg.Fanout = 2
	}
	if cfg.SuspectAfter <= 0 {
		cfg.SuspectAfter = 3
	}
	if cfg.EvictAfter <= 0 {
		cfg.EvictAfter = 3
	}
	if cfg.TombstoneAfter <= 0 {
		cfg.TombstoneAfter = 24
	}
	if cfg.Rand == nil {
		h := fnv.New64a()
		h.Write([]byte(cfg.Self.ID))
		cfg.Rand = rand.New(rand.NewSource(int64(h.Sum64())))
	}
	self := cfg.Self
	if self.Incarnation == 0 {
		self.Incarnation = 1
	}
	self.State = StateAlive
	r := &Registry{
		self:           self.ID,
		fanout:         cfg.Fanout,
		suspectAfter:   cfg.SuspectAfter,
		evictAfter:     cfg.EvictAfter,
		tombstoneAfter: cfg.TombstoneAfter,
		rng:            cfg.Rand,
		members:        map[string]*entry{self.ID: {m: self}},
		changed:        make(chan struct{}, 1),
	}
	return r, nil
}

// bump records a visible table change. Callers hold r.mu.
func (r *Registry) bump() {
	r.version++
	select {
	case r.changed <- struct{}{}:
	default:
	}
}

// Version counts visible table changes; pollers compare it cheaply.
func (r *Registry) Version() uint64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.version
}

// Changed signals (coalesced) whenever the table changes.
func (r *Registry) Changed() <-chan struct{} { return r.changed }

// Self returns the registry's own row.
func (r *Registry) Self() Member {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.members[r.self].m
}

// SetEpoch advertises the local market's age in pricer periods.
func (r *Registry) SetEpoch(epoch uint64) {
	r.mu.Lock()
	defer r.mu.Unlock()
	e := r.members[r.self]
	if e.m.Epoch != epoch {
		e.m.Epoch = epoch
	}
}

// SetIncarnation installs a restored incarnation (checkpoint rejoin).
// The rejoining node re-announces at exactly the persisted incarnation;
// if peers hold a left/dead tombstone at that incarnation, their gossip
// triggers the usual self-refutation bump, which then outranks it.
func (r *Registry) SetIncarnation(inc uint64) {
	if inc == 0 {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	e := r.members[r.self]
	if e.m.Incarnation != inc {
		e.m.Incarnation = inc
		r.bump()
	}
}

// Members snapshots the whole table (tombstones included), sorted by ID.
func (r *Registry) Members() []Member {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]Member, 0, len(r.members))
	for _, e := range r.members {
		out = append(out, e.m)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

// Live snapshots the live view (alive + suspect), sorted by ID.
func (r *Registry) Live() []Member {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]Member, 0, len(r.members))
	for _, e := range r.members {
		if e.m.State.Live() {
			out = append(out, e.m)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

// Targets picks up to Fanout random live peers (never self) to gossip
// with this round. Suspects are included so they get the chance to
// refute before eviction.
func (r *Registry) Targets() []Member {
	r.mu.Lock()
	defer r.mu.Unlock()
	cands := make([]Member, 0, len(r.members))
	for id, e := range r.members {
		if id != r.self && e.m.State.Live() {
			cands = append(cands, e.m)
		}
	}
	sort.Slice(cands, func(i, j int) bool { return cands[i].ID < cands[j].ID })
	r.rng.Shuffle(len(cands), func(i, j int) { cands[i], cands[j] = cands[j], cands[i] })
	if len(cands) > r.fanout {
		cands = cands[:r.fanout]
	}
	return cands
}

// Tick advances one gossip round: the local heartbeat increments and
// every other member's failure-detector clock advances. Time exists
// only through Tick, so a seeded registry behaves identically across
// runs.
func (r *Registry) Tick() TickSummary {
	r.mu.Lock()
	defer r.mu.Unlock()
	var sum TickSummary
	changed := false
	if !r.left {
		r.members[r.self].m.Heartbeat++
		changed = true
	}
	for id, e := range r.members {
		if id == r.self {
			continue
		}
		switch e.m.State {
		case StateAlive:
			e.stalled++
			if e.stalled >= r.suspectAfter {
				e.m.State = StateSuspect
				sum.Suspected++
				changed = true
			}
		case StateSuspect:
			e.stalled++
			if e.stalled >= r.suspectAfter+r.evictAfter {
				e.m.State = StateDead
				e.buried = 0
				sum.Evicted++
				changed = true
			}
		case StateDead, StateLeft:
			e.buried++
			if e.buried >= r.tombstoneAfter {
				delete(r.members, id)
				changed = true
			}
		}
	}
	if changed {
		r.bump()
	}
	return sum
}

// Merge folds a remote table into the local one and reports whether
// anything changed. Per member, a higher incarnation wins outright; at
// equal incarnations heartbeat progress refreshes the failure detector
// and the higher-priority state propagates. Claims about self that are
// not "alive" are refuted by bumping our incarnation above them —
// unless we have left, which is final.
func (r *Registry) Merge(remote []Member) bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	changed := false
	for _, rm := range remote {
		if rm.ID == "" {
			continue
		}
		if rm.ID == r.self {
			if r.mergeSelf(rm) {
				changed = true
			}
			continue
		}
		e, ok := r.members[rm.ID]
		if !ok {
			cp := rm
			r.members[rm.ID] = &entry{m: cp}
			changed = true
			continue
		}
		if mergeEntry(e, rm) {
			changed = true
		}
	}
	if changed {
		r.bump()
	}
	return changed
}

// mergeSelf handles remote claims about the local member. Callers hold
// r.mu.
func (r *Registry) mergeSelf(rm Member) bool {
	e := r.members[r.self]
	if r.left {
		// Departure is final; nothing to refute.
		return false
	}
	switch {
	case rm.Incarnation >= e.m.Incarnation && rm.State != StateAlive:
		// Someone thinks we are suspect/dead/left at our incarnation
		// (or later): refute by outbidding the claim.
		e.m.Incarnation = rm.Incarnation + 1
		e.m.State = StateAlive
		return true
	case rm.Incarnation > e.m.Incarnation:
		// An alive claim newer than our own view of ourselves (a
		// pre-crash ghost): adopt the incarnation so our future claims
		// stay the freshest.
		e.m.Incarnation = rm.Incarnation
		return true
	}
	return false
}

// mergeEntry folds one remote row into a local entry.
func mergeEntry(e *entry, rm Member) bool {
	switch {
	case rm.Incarnation > e.m.Incarnation:
		// A higher incarnation supersedes everything we knew.
		e.m = rm
		e.stalled, e.buried = 0, 0
		return true
	case rm.Incarnation < e.m.Incarnation:
		return false
	}
	changed := false
	if rm.Heartbeat > e.m.Heartbeat {
		e.m.Heartbeat = rm.Heartbeat
		e.m.Addr = rm.Addr
		e.m.CatalogDigest = rm.CatalogDigest
		e.m.CatalogFilter = rm.CatalogFilter
		if rm.Epoch > e.m.Epoch {
			e.m.Epoch = rm.Epoch
		}
		e.stalled = 0
		if e.m.State == StateSuspect && rm.State == StateAlive {
			// The reporter saw a newer heartbeat and believes the
			// member alive: our suspicion was stale.
			e.m.State = StateAlive
		}
		changed = true
	}
	if rm.State > e.m.State {
		e.m.State = rm.State
		e.buried = 0
		changed = true
	}
	return changed
}

// Leave tombstones the local member. Final: later merges never revive
// it, and Tick stops advancing its heartbeat.
func (r *Registry) Leave() {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.left {
		return
	}
	r.left = true
	r.members[r.self].m.State = StateLeft
	r.bump()
}

// Left reports whether Leave was called.
func (r *Registry) Left() bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.left
}
