package autoscale

import (
	"math"
	"math/rand"
	"testing"
	"time"

	"github.com/qamarket/qamarket/internal/cluster"
	"github.com/qamarket/qamarket/internal/engine"
	"github.com/qamarket/qamarket/internal/market"
)

// tel builds one member's telemetry snapshot from lifetime counters.
func tel(periods, offers, accepts, rejects, unsold int, classes ...cluster.ClassTelemetry) cluster.MarketTelemetry {
	return cluster.MarketTelemetry{
		Active: true,
		Stats: market.Stats{
			Periods: periods, Offers: offers, Accepts: accepts,
			Rejects: rejects, Unsold: unsold,
		},
		Classes: classes,
	}
}

// class builds one class row.
func class(sig string, costMs, price float64, accepted int) cluster.ClassTelemetry {
	return cluster.ClassTelemetry{Signature: sig, CostMs: costMs, Price: price, Accepted: accepted}
}

// scriptSource replays a fixed sequence of polls; past the end it
// repeats the last one.
type scriptSource struct {
	polls [][]Sample
	i     int
}

func (s *scriptSource) Sample() []Sample {
	idx := s.i
	if idx >= len(s.polls) {
		idx = len(s.polls) - 1
	}
	s.i++
	return append([]Sample(nil), s.polls[idx]...)
}

// countingActuator records every action.
type countingActuator struct {
	launches, drains []int
}

func (a *countingActuator) Launch(n int) error { a.launches = append(a.launches, n); return nil }
func (a *countingActuator) Drain(n int) error  { a.drains = append(a.drains, n); return nil }

func fixedClock() Clock {
	t := time.Unix(5000, 0)
	return func() time.Time { return t }
}

// checkFinite fails the test if any signal in the decision is NaN or
// infinite.
func checkFinite(t *testing.T, d Decision) {
	t.Helper()
	s := d.Signals
	for name, v := range map[string]float64{
		"reject_rate": s.RejectRate, "unsold_rate": s.UnsoldRate,
		"price_index": s.PriceIndex, "demand_ms": s.DemandMs,
		"smoothed_reject_rate": s.SmoothedRejectRate,
		"smoothed_unsold_rate": s.SmoothedUnsoldRate,
		"smoothed_price_index": s.SmoothedPriceIndex,
		"smoothed_demand_ms":   s.SmoothedDemandMs,
	} {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			t.Fatalf("tick %d: signal %s is %v", d.Tick, name, v)
		}
	}
}

// TestAggregationUnderChurn is the satellite coverage test: the
// federation-wide smoothed signals must stay stable — finite, with
// non-negative deltas, cooldown respected — while members join, leave,
// drain, and restart mid-poll.
func TestAggregationUnderChurn(t *testing.T) {
	a := func(off, acc, rej, uns, periods int) Sample {
		return Sample{ID: "a", Telemetry: tel(periods, off, acc, rej, uns, class("q1", 20, 1.5, 2))}
	}
	b := func(off, acc, rej, uns, periods int) Sample {
		return Sample{ID: "b", Telemetry: tel(periods, off, acc, rej, uns, class("q1", 20, 1.2, 1))}
	}
	cases := []struct {
		name  string
		polls [][]Sample
	}{
		{
			name: "member joins mid-poll",
			polls: [][]Sample{
				{a(10, 8, 2, 1, 1)},
				{a(20, 16, 4, 2, 2)},
				{a(30, 24, 6, 3, 3), b(5, 4, 1, 0, 1)}, // b's first sight: baseline only
				{a(40, 32, 8, 4, 4), b(10, 8, 2, 0, 2)},
			},
		},
		{
			name: "member leaves mid-poll",
			polls: [][]Sample{
				{a(10, 8, 2, 1, 1), b(10, 9, 1, 1, 1)},
				{a(20, 16, 4, 2, 2), b(20, 18, 2, 2, 2)},
				{a(30, 24, 6, 3, 3)}, // b gone: skipped, no contribution
				{a(40, 32, 8, 4, 4)},
			},
		},
		{
			name: "member restarts with regressed counters",
			polls: [][]Sample{
				{a(10, 8, 2, 1, 5)},
				{a(20, 16, 4, 2, 6)},
				{a(3, 2, 1, 0, 1)}, // restart: lifetime counters regressed
				{a(6, 4, 2, 0, 2)},
			},
		},
		{
			name: "empty poll freezes the smoothed series",
			polls: [][]Sample{
				{a(10, 8, 2, 1, 1)},
				{a(20, 16, 4, 2, 2)},
				{}, // nobody answered
				{a(30, 24, 6, 3, 3)},
			},
		},
		{
			name: "zero-cost classes stay NaN-free",
			polls: [][]Sample{
				{Sample{ID: "z", Telemetry: tel(1, 4, 0, 4, 0, class("free", 0, 1, 0))}},
				{Sample{ID: "z", Telemetry: tel(2, 8, 0, 8, 0, class("free", 0, 1, 0))}},
				{Sample{ID: "z", Telemetry: tel(3, 12, 0, 12, 0, class("free", 0, 1, 0))}},
			},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			act := &countingActuator{}
			ctl, err := New(Config{
				Min: 1, Max: 4, CapacityMs: 100, Cooldown: 2, MaxStep: 1,
				Warmup: 1, Clock: fixedClock(),
			}, &scriptSource{polls: tc.polls}, act)
			if err != nil {
				t.Fatal(err)
			}
			lastAction := -10
			for i := 0; i < len(tc.polls)+2; i++ {
				d := ctl.Tick()
				checkFinite(t, d)
				if d.Signals.Offers < 0 || d.Signals.Accepts < 0 || d.Signals.Rejects < 0 || d.Signals.Unsold < 0 {
					t.Fatalf("tick %d: negative delta in signals %+v", d.Tick, d.Signals)
				}
				if d.Action != 0 {
					if d.Tick-lastAction < 2 {
						t.Fatalf("cooldown violated: actions at ticks %d and %d", lastAction, d.Tick)
					}
					lastAction = d.Tick
				}
			}
		})
	}
}

// TestScaleUpBoundedByMaxStepAndCooldown drives sustained rejection
// pressure with demand worth many replicas and checks every launch is
// clamped to MaxStep with at least Cooldown ticks between actions.
func TestScaleUpBoundedByMaxStepAndCooldown(t *testing.T) {
	// One member, each tick +40 offers / +10 accepts / +30 rejects over
	// one period at 50ms per query: demand ≈ 2000ms/period against
	// 100ms replica bins → raw target ~20, clamped to Max.
	var polls [][]Sample
	for i := 1; i <= 12; i++ {
		polls = append(polls, []Sample{{
			ID:        "a",
			Telemetry: tel(i, 10*i+30*i, 10*i, 30*i, 0, class("q1", 50, 3, 5)),
		}})
	}
	act := &countingActuator{}
	ctl, err := New(Config{
		Min: 1, Max: 8, CapacityMs: 100, Alpha: 0.5, Warmup: 1,
		Cooldown: 3, MaxStep: 2, Clock: fixedClock(),
	}, &scriptSource{polls: polls}, act)
	if err != nil {
		t.Fatal(err)
	}
	var actionTicks []int
	for i := 0; i < 12; i++ {
		d := ctl.Tick()
		checkFinite(t, d)
		if d.Action < 0 {
			t.Fatalf("tick %d: drained under pressure: %+v", d.Tick, d)
		}
		if d.Action > 2 {
			t.Fatalf("tick %d: action %d exceeds MaxStep 2", d.Tick, d.Action)
		}
		if d.Action != 0 {
			actionTicks = append(actionTicks, d.Tick)
		}
	}
	if len(act.launches) == 0 {
		t.Fatalf("sustained pressure never launched a replica")
	}
	for i := 1; i < len(actionTicks); i++ {
		if actionTicks[i]-actionTicks[i-1] < 3 {
			t.Fatalf("actions at ticks %v violate cooldown 3", actionTicks)
		}
	}
	if len(act.drains) != 0 {
		t.Fatalf("unexpected drains under pressure: %v", act.drains)
	}
}

// TestGlutDrainsTowardMin drives a three-member federation whose
// supply goes entirely unsold and checks the controller drains —
// bounded by MaxStep — but never below Min.
func TestGlutDrainsTowardMin(t *testing.T) {
	mk := func(i int) []Sample {
		var out []Sample
		for _, id := range []string{"a", "b", "c"} {
			// Supply planned every period, nothing sells: unsold grows,
			// rejects stay zero.
			out = append(out, Sample{ID: id, Telemetry: tel(i, 0, 0, 0, 5*i, class("q1", 20, 0.5, 0))})
		}
		return out
	}
	var polls [][]Sample
	for i := 1; i <= 14; i++ {
		polls = append(polls, mk(i))
	}
	act := &countingActuator{}
	ctl, err := New(Config{
		Min: 1, Max: 4, CapacityMs: 100, Alpha: 0.5, Warmup: 1,
		Cooldown: 2, MaxStep: 1, Clock: fixedClock(),
	}, &scriptSource{polls: polls}, act)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 14; i++ {
		d := ctl.Tick()
		checkFinite(t, d)
		if d.Action > 0 {
			t.Fatalf("tick %d: launched during glut: %+v", d.Tick, d)
		}
		if d.Action < -1 {
			t.Fatalf("tick %d: drain %d exceeds MaxStep 1", d.Tick, -d.Action)
		}
		if d.Current+d.Action < 1 {
			t.Fatalf("tick %d: decision takes fleet below Min: %+v", d.Tick, d)
		}
	}
	if len(act.drains) == 0 {
		t.Fatalf("sustained glut never drained a replica")
	}
}

// TestDryRunWithholdsActions checks dry-run records the would-be
// action but never calls an actuator.
func TestDryRunWithholdsActions(t *testing.T) {
	var polls [][]Sample
	for i := 1; i <= 8; i++ {
		polls = append(polls, []Sample{{
			ID:        "a",
			Telemetry: tel(i, 40*i, 10*i, 30*i, 0, class("q1", 50, 3, 5)),
		}})
	}
	ctl, err := New(Config{
		Min: 1, Max: 8, CapacityMs: 100, Alpha: 0.5, Warmup: 1,
		Cooldown: 2, MaxStep: 1, DryRun: true, Clock: fixedClock(),
	}, &scriptSource{polls: polls}, nil)
	if err != nil {
		t.Fatal(err)
	}
	sawAction := false
	for i := 0; i < 8; i++ {
		d := ctl.Tick()
		if d.Action != 0 {
			sawAction = true
			if d.Applied {
				t.Fatalf("tick %d: dry-run applied an action: %+v", d.Tick, d)
			}
		}
	}
	if !sawAction {
		t.Fatalf("dry-run under pressure recorded no would-be action")
	}
	if launched, drained := ctl.Totals(); launched != 0 || drained != 0 {
		t.Fatalf("dry-run counted applied actions: launched=%d drained=%d", launched, drained)
	}
}

// TestWaterfillDeterministic pins the water-filling arithmetic: demand
// split over sorted class signatures into CapacityMs bins.
func TestWaterfillDeterministic(t *testing.T) {
	ctl, err := New(Config{Min: 1, Max: 100, CapacityMs: 100, Clock: fixedClock()},
		&scriptSource{polls: [][]Sample{{}}}, &countingActuator{})
	if err != nil {
		t.Fatal(err)
	}
	samples := []Sample{
		{ID: "a", Telemetry: tel(1, 0, 0, 0, 0,
			class("q1", 20, 1, 3), // weight 60
			class("q2", 10, 1, 4), // weight 40
		)},
	}
	cases := []struct {
		demand float64
		want   int
	}{
		{0, 0},
		{50, 1},
		{100, 1},
		{101, 2},
		{250, 3},
		{1000, 10},
	}
	for _, tc := range cases {
		if got := ctl.waterfillLocked(samples, tc.demand); got != tc.want {
			t.Fatalf("waterfill(%v) = %d, want %d", tc.demand, got, tc.want)
		}
		// Same inputs, same output — the fill is deterministic.
		if again := ctl.waterfillLocked(samples, tc.demand); again != ctl.waterfillLocked(samples, tc.demand) {
			t.Fatalf("waterfill(%v) nondeterministic: %d then %d", tc.demand, again, ctl.waterfillLocked(samples, tc.demand))
		}
	}
	// With no attributable class weight the demand still fills bins
	// through the pseudo-class.
	if got := ctl.waterfillLocked(nil, 350); got != 4 {
		t.Fatalf("unattributed waterfill(350) = %d, want 4", got)
	}
}

// TestBelowMinScalesUpWithoutPressure: the Min floor is a guarantee,
// not a suggestion — an undersized fleet grows even with quiet
// signals.
func TestBelowMinScalesUpWithoutPressure(t *testing.T) {
	polls := [][]Sample{
		{{ID: "a", Telemetry: tel(1, 4, 4, 0, 0, class("q1", 20, 1, 1))}},
		{{ID: "a", Telemetry: tel(2, 8, 8, 0, 0, class("q1", 20, 1, 1))}},
		{{ID: "a", Telemetry: tel(3, 12, 12, 0, 0, class("q1", 20, 1, 1))}},
		{{ID: "a", Telemetry: tel(4, 16, 16, 0, 0, class("q1", 20, 1, 1))}},
	}
	act := &countingActuator{}
	ctl, err := New(Config{
		Min: 3, Max: 6, CapacityMs: 100, Warmup: 1, Cooldown: 1, MaxStep: 1,
		Clock: fixedClock(),
	}, &scriptSource{polls: polls}, act)
	if err != nil {
		t.Fatal(err)
	}
	var up int
	for i := 0; i < 4; i++ {
		d := ctl.Tick()
		if d.Action > 0 {
			up += d.Action
		}
	}
	if up == 0 {
		t.Fatalf("fleet below Min never scaled up")
	}
}

// nodeSource samples one live node the way ClientSource would, minus
// the RPC.
type nodeSource struct{ node *cluster.Node }

func (s nodeSource) Sample() []Sample {
	return []Sample{{ID: "n", Telemetry: s.node.MarketTelemetry()}}
}

// TestClassArrivalIsNotARestart runs the controller against a real
// node's telemetry across a class arrival. The node's pricer used to
// replace its market agent whenever a new plan signature showed up,
// zeroing the lifetime counters; regressed() read that as a restart,
// re-baselined the member and dropped its whole sample for the tick —
// so the offers made before the arrival never reached the signals.
func TestClassArrivalIsNotARestart(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	ds, err := cluster.GenerateDataset(cluster.DatasetParams{
		Nodes: 1, Tables: 4, Views: 4, RowsPerTable: 40, MinCopies: 1, MaxCopies: 1,
	}, rng)
	if err != nil {
		t.Fatal(err)
	}
	// A period far longer than the test: no tick interleaves, and the
	// budget covers every query below.
	node, err := cluster.StartNode("127.0.0.1:0", cluster.NodeConfig{
		Driver: engine.FromDB(ds.DBs[0]), MsPerCostUnit: 0.02, PeriodMs: 600_000, Market: market.DefaultConfig(1),
	})
	if err != nil {
		t.Fatal(err)
	}
	defer node.Close()
	client, err := cluster.NewClient(cluster.ClientConfig{
		Addrs: []string{node.Addr()}, Mechanism: cluster.MechQANT, PeriodMs: 50, Timeout: 5 * time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()
	templates, err := ds.GenerateTemplates(6, 1, rng)
	if err != nil {
		t.Fatal(err)
	}
	var qid int64
	run := func(tpl int) {
		t.Helper()
		qid++
		if out := client.Run(qid, templates[tpl].Instantiate(rng)); out.Err != nil {
			t.Fatalf("query %d: %v", qid, out.Err)
		}
	}

	ctl, err := New(Config{Min: 1, Max: 4, CapacityMs: 100, Warmup: 1, Clock: fixedClock()},
		nodeSource{node}, &countingActuator{})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		run(0)
	}
	ctl.Tick() // baseline
	classes := len(node.MarketTelemetry().Classes)
	for i := 0; i < 4; i++ {
		run(0)
	}
	for tpl := 1; len(node.MarketTelemetry().Classes) == classes; tpl++ {
		if tpl == len(templates) {
			t.Fatal("no template produced a second plan signature")
		}
		run(tpl) // the class arrival
	}
	d := ctl.Tick()
	if d.Signals.Offers < 5 || d.Signals.Accepts < 5 {
		t.Fatalf("class arrival dropped the member's sample: signals %+v", d.Signals)
	}
}
