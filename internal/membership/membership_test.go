package membership

import (
	"math/rand"
	"testing"
)

func newTestReg(t *testing.T, id string, seed int64) *Registry {
	t.Helper()
	r, err := New(Config{
		Self: Member{ID: id, Addr: "127.0.0.1:" + id},
		Rand: rand.New(rand.NewSource(seed)),
	})
	if err != nil {
		t.Fatal(err)
	}
	return r
}

func find(ms []Member, id string) (Member, bool) {
	for _, m := range ms {
		if m.ID == id {
			return m, true
		}
	}
	return Member{}, false
}

func TestNewDefaultsAndSelfRow(t *testing.T) {
	r := newTestReg(t, "a", 1)
	self := r.Self()
	if self.Incarnation != 1 || self.State != StateAlive {
		t.Fatalf("self row %+v", self)
	}
	if _, err := New(Config{Self: Member{Addr: "x"}}); err == nil {
		t.Fatal("empty ID accepted")
	}
	if _, err := New(Config{Self: Member{ID: "x"}}); err == nil {
		t.Fatal("empty Addr accepted")
	}
}

func TestMergeAddsAndOrdersByIncarnation(t *testing.T) {
	r := newTestReg(t, "a", 1)
	r.Merge([]Member{{ID: "b", Addr: "addr-b", Incarnation: 2, Heartbeat: 5}})
	b, ok := find(r.Members(), "b")
	if !ok || b.Incarnation != 2 || b.Heartbeat != 5 {
		t.Fatalf("merged b: %+v ok=%v", b, ok)
	}
	// A lower incarnation never regresses the row.
	r.Merge([]Member{{ID: "b", Addr: "old", Incarnation: 1, Heartbeat: 99}})
	if b, _ = find(r.Members(), "b"); b.Heartbeat != 5 || b.Addr != "addr-b" {
		t.Fatalf("stale incarnation applied: %+v", b)
	}
	// A higher incarnation supersedes everything.
	r.Merge([]Member{{ID: "b", Addr: "new", Incarnation: 3, Heartbeat: 1}})
	if b, _ = find(r.Members(), "b"); b.Incarnation != 3 || b.Addr != "new" || b.Heartbeat != 1 {
		t.Fatalf("higher incarnation not adopted: %+v", b)
	}
}

func TestSuspectThenEvictAfterConfiguredRounds(t *testing.T) {
	r := newTestReg(t, "a", 1)
	r.Merge([]Member{{ID: "b", Addr: "x", Incarnation: 1, State: StateAlive}})
	// suspectAfter=3: two quiet rounds keep it alive...
	r.Tick()
	r.Tick()
	if b, _ := find(r.Members(), "b"); b.State != StateAlive {
		t.Fatalf("suspected early: %+v", b)
	}
	// ...the third round suspects it.
	if sum := r.Tick(); sum.Suspected != 1 {
		t.Fatalf("round 3 summary: %+v", sum)
	}
	if b, _ := find(r.Members(), "b"); b.State != StateSuspect {
		t.Fatalf("not suspect: %+v", b)
	}
	// evictAfter=3 more stalled rounds mark it dead.
	r.Tick()
	r.Tick()
	if sum := r.Tick(); sum.Evicted != 1 {
		t.Fatalf("eviction summary: %+v", sum)
	}
	if b, _ := find(r.Members(), "b"); b.State != StateDead {
		t.Fatalf("not dead: %+v", b)
	}
	if _, ok := find(r.Live(), "b"); ok {
		t.Fatal("dead member still in live view")
	}
}

func TestHeartbeatProgressClearsSuspicion(t *testing.T) {
	r := newTestReg(t, "a", 1)
	r.Merge([]Member{{ID: "b", Addr: "x", Incarnation: 1, Heartbeat: 1}})
	r.Tick()
	r.Tick()
	r.Tick() // suspect now
	r.Merge([]Member{{ID: "b", Addr: "x", Incarnation: 1, Heartbeat: 2, State: StateAlive}})
	if b, _ := find(r.Members(), "b"); b.State != StateAlive {
		t.Fatalf("progress did not clear suspicion: %+v", b)
	}
	// The failure-detector clock restarted: two more quiet rounds stay
	// alive.
	r.Tick()
	r.Tick()
	if b, _ := find(r.Members(), "b"); b.State != StateAlive {
		t.Fatalf("clock not reset: %+v", b)
	}
}

func TestSelfRefutationOutbidsSuspicion(t *testing.T) {
	r := newTestReg(t, "a", 1)
	r.Merge([]Member{{ID: "a", Addr: "x", Incarnation: 1, State: StateSuspect}})
	if self := r.Self(); self.Incarnation != 2 || self.State != StateAlive {
		t.Fatalf("no refutation: %+v", self)
	}
	// A dead claim at the bumped incarnation is outbid again.
	r.Merge([]Member{{ID: "a", Addr: "x", Incarnation: 2, State: StateDead}})
	if self := r.Self(); self.Incarnation != 3 || self.State != StateAlive {
		t.Fatalf("no second refutation: %+v", self)
	}
}

func TestLeaveIsFinal(t *testing.T) {
	r := newTestReg(t, "a", 1)
	r.Leave()
	if self := r.Self(); self.State != StateLeft {
		t.Fatalf("not left: %+v", self)
	}
	hb := r.Self().Heartbeat
	r.Tick()
	if r.Self().Heartbeat != hb {
		t.Fatal("left member still heartbeating")
	}
	// Even a dead claim above our incarnation is not refuted.
	r.Merge([]Member{{ID: "a", Addr: "x", Incarnation: 9, State: StateDead}})
	if self := r.Self(); self.State != StateLeft {
		t.Fatalf("left overridden: %+v", self)
	}
}

func TestLeftOutranksDeadAtSameIncarnation(t *testing.T) {
	r := newTestReg(t, "a", 1)
	r.Merge([]Member{{ID: "b", Addr: "x", Incarnation: 1, State: StateLeft}})
	r.Merge([]Member{{ID: "b", Addr: "x", Incarnation: 1, State: StateDead}})
	if b, _ := find(r.Members(), "b"); b.State != StateLeft {
		t.Fatalf("clean goodbye rewritten as crash: %+v", b)
	}
}

func TestTombstonesExpire(t *testing.T) {
	r := newTestReg(t, "a", 1)
	r.Merge([]Member{{ID: "b", Addr: "x", Incarnation: 1, State: StateLeft}})
	for i := 1; i < tombstoneAfter; i++ {
		r.Tick()
	}
	if _, ok := find(r.Members(), "b"); !ok {
		t.Fatal("tombstone expired early")
	}
	r.Tick()
	if _, ok := find(r.Members(), "b"); ok {
		t.Fatal("tombstone retained past tombstoneAfter")
	}
}

func TestTargetsDeterministicUnderSeed(t *testing.T) {
	mk := func() *Registry {
		r := newTestReg(t, "a", 42)
		r.Merge([]Member{
			{ID: "b", Addr: "x", Incarnation: 1},
			{ID: "c", Addr: "x", Incarnation: 1},
			{ID: "d", Addr: "x", Incarnation: 1},
			{ID: "e", Addr: "x", Incarnation: 1, State: StateDead},
		})
		return r
	}
	r1, r2 := mk(), mk()
	for round := 0; round < 5; round++ {
		t1, t2 := r1.Targets(), r2.Targets()
		if len(t1) != 2 {
			t.Fatalf("fanout: got %d targets", len(t1))
		}
		for i := range t1 {
			if t1[i].ID != t2[i].ID {
				t.Fatalf("round %d diverged: %v vs %v", round, t1, t2)
			}
			if t1[i].ID == "e" || t1[i].ID == "a" {
				t.Fatalf("target %q should be excluded", t1[i].ID)
			}
		}
	}
}

func TestRejoinAfterRestoreRefutesTombstone(t *testing.T) {
	// Peer holds a "left" tombstone at incarnation 3; the node rejoins
	// from a checkpoint carrying exactly incarnation 3. Gossip from the
	// peer triggers self-refutation to 4, which then wins at the peer.
	peer := newTestReg(t, "p", 1)
	peer.Merge([]Member{{ID: "a", Addr: "x", Incarnation: 3, State: StateLeft}})
	rejoined := newTestReg(t, "a", 2)
	rejoined.SetIncarnation(3)
	rejoined.Merge(peer.Members())
	if self := rejoined.Self(); self.Incarnation != 4 || self.State != StateAlive {
		t.Fatalf("rejoin refutation failed: %+v", self)
	}
	peer.Merge(rejoined.Members())
	if a, _ := find(peer.Live(), "a"); a.Incarnation != 4 || a.State != StateAlive {
		t.Fatalf("peer kept tombstone: %+v", a)
	}
}

func TestSimulateConvergenceDeterministicAndBounded(t *testing.T) {
	c1, err := simulateConvergence(8, 7)
	if err != nil {
		t.Fatal(err)
	}
	c2, err := simulateConvergence(8, 7)
	if err != nil {
		t.Fatal(err)
	}
	if c1 != c2 {
		t.Fatalf("not deterministic: %+v vs %+v", c1, c2)
	}
	// Join spreads epidemically: well under the simulator's cap.
	if c1.JoinRounds <= 0 || c1.JoinRounds > 32 {
		t.Fatalf("join rounds %d out of expected range", c1.JoinRounds)
	}
	// Eviction needs at least suspectAfter+evictAfter quiet rounds.
	if c1.EvictRounds < suspectAfter+evictAfter || c1.EvictRounds > 64 {
		t.Fatalf("evict rounds %d out of expected range", c1.EvictRounds)
	}
}

func TestParseStateRoundTrip(t *testing.T) {
	for _, s := range []State{StateAlive, StateSuspect, StateDead, StateLeft} {
		if ParseState(s.String()) != s {
			t.Fatalf("round trip %v", s)
		}
	}
	if ParseState("from-the-future") != StateDead {
		t.Fatal("unknown state should map to dead")
	}
}

// BenchmarkMembershipConvergence reports rounds-to-agreement for join
// and eviction in a 16-node mesh as custom metrics, alongside the wall
// cost of simulating it.
func BenchmarkMembershipConvergence(b *testing.B) {
	var last Convergence
	for i := 0; i < b.N; i++ {
		c, err := simulateConvergence(16, 11)
		if err != nil {
			b.Fatal(err)
		}
		last = c
	}
	b.ReportMetric(float64(last.JoinRounds), "join-rounds")
	b.ReportMetric(float64(last.EvictRounds), "evict-rounds")
}
