package market

import (
	"encoding/json"
	"math"
	"testing"

	"github.com/qamarket/qamarket/internal/vector"
)

func newTestSeller(t *testing.T, cfg Config, periodMs float64, costs ...float64) *Seller {
	t.Helper()
	s, err := NewSeller(cfg, periodMs, costs)
	if err != nil {
		t.Fatalf("NewSeller: %v", err)
	}
	s.BeginPeriod()
	return s
}

// sell offers and accepts n queries of class k, failing the test when
// the seller refuses.
func sell(t *testing.T, s *Seller, k, n int) {
	t.Helper()
	for i := 0; i < n; i++ {
		if !s.Offer(k) {
			t.Fatalf("offer %d of class %d refused with supply available", i, k)
		}
		if err := s.Accept(k); err != nil {
			t.Fatalf("accept %d of class %d: %v", i, k, err)
		}
	}
}

// TestSellerCarrySurvivesMidPeriodReplan is the ledger half of
// cluster's TestCarrySurvivesMidPeriodRebuild: the carry settled at the
// period boundary must be identical whether or not a class arrived or a
// cost drifted mid-period, and drift must charge the work already
// accepted at the estimate it was accepted under.
func TestSellerCarrySurvivesMidPeriodReplan(t *testing.T) {
	drive := func(change func(s *Seller)) float64 {
		s := newTestSeller(t, DefaultConfig(1), 100, 20)
		sell(t, s, 0, 3)
		if change != nil {
			change(s)
		}
		s.EndPeriod()
		s.BeginPeriod()
		return s.Carry()
	}
	base := drive(nil) // 3×20ms accepted: carry = 100 − 60 = 40
	if base != 40 {
		t.Fatalf("undisturbed carry %.1f, want 40", base)
	}
	for name, change := range map[string]func(s *Seller){
		"class arrival": func(s *Seller) { s.AddClass(10) },
		"cost drift":    func(s *Seller) { s.Recost(0, 40) },
		"both, twice": func(s *Seller) {
			s.AddClass(10)
			s.Recost(0, 40)
			s.Recost(0, 20)
			s.AddClass(5)
		},
	} {
		if got := drive(change); got != base {
			t.Errorf("mid-period %s changed carry: %.1f, want %.1f", name, got, base)
		}
	}
}

// TestSellerReplansRemainingCapacity: a mid-period re-plan may plan
// only the capacity still unspent this period, not a fresh full budget
// on top of work already accepted.
func TestSellerReplansRemainingCapacity(t *testing.T) {
	s := newTestSeller(t, DefaultConfig(1), 100, 20)
	sell(t, s, 0, 3)
	s.AddClass(10) // re-plan with 60ms already spent
	plannedMs := 0.0
	for c, n := range s.PlannedSupply() {
		plannedMs += float64(n) * s.Cost(c)
	}
	if plannedMs > 40+1e-9 {
		t.Fatalf("re-plan offered %.1fms with only 40ms of the period left", plannedMs)
	}
	if plannedMs < 40-1e-9 {
		t.Fatalf("re-plan offered %.1fms, leaving part of the 40ms unspent budget unplanned", plannedMs)
	}
}

// TestSellerTelemetrySurvivesReplan: a class arrival or a cost drift
// re-plans the rest of the period but must not forget what the period
// has already sold — Telemetry().Accepted feeds qa_market_accepted and
// the autoscaler's accepted-weighted cost and price.
func TestSellerTelemetrySurvivesReplan(t *testing.T) {
	for name, change := range map[string]func(s *Seller){
		"class arrival": func(s *Seller) { s.AddClass(50) },
		"cost drift":    func(s *Seller) { s.Recost(0, 40); s.AddClass(50) },
	} {
		s := newTestSeller(t, DefaultConfig(1), 100, 20)
		sell(t, s, 0, 2)
		change(s)
		if got := s.Telemetry().Accepted; !vector.Quantity(got).Equal(vector.Quantity{2, 0}) {
			t.Errorf("%s: the period's sales read %v afterwards, want [2 0]", name, got)
		}
		s.EndPeriod()
		s.BeginPeriod()
		if got := s.Accepted(); !got.IsZero() {
			t.Errorf("%s: sales %v carried into the next period", name, got)
		}
	}
}

// TestActivationThreshold is the Section 5.1 regime on the one account:
// below the threshold the seller offers anything that still fits what
// is left, above it what eq. (4) planned out of what is left, and
// crossing mid-period changes only which of the two it does.
func TestActivationThreshold(t *testing.T) {
	cfg := DefaultConfig(2)
	cfg.ActivationThreshold = 5
	s := newTestSeller(t, cfg, 500, 400, 100)
	if s.Active() {
		t.Fatal("seller active below threshold")
	}
	// Inactive: class 0 is on offer although the plan, (0, 5) at equal
	// prices, excludes it. Selling it re-plans the 100 ms left.
	sell(t, s, 0, 1)
	if want := (vector.Quantity{0, 1}); !s.supply.Equal(want) {
		t.Fatalf("after an off-plan sale %v is on offer, want %v", s.supply, want)
	}
	if s.Offer(0) {
		t.Error("inactive seller offered 400 ms with 100 ms left")
	}
	if !s.Offer(1) {
		t.Error("inactive seller refused a query that fits")
	}
	// Force a price over the threshold: pricing activates, and exactly
	// the re-planned remainder is on offer — not the period's first plan.
	s.prices[0] = 10
	if !s.Active() {
		t.Fatal("seller inactive above threshold")
	}
	if want := (vector.Quantity{0, 1}); !s.supply.Equal(want) {
		t.Fatalf("crossing the threshold put %v on offer, want %v", s.supply, want)
	}
	sell(t, s, 1, 1)
	if s.Offer(0) || s.Offer(1) {
		t.Error("active seller offered with the period's budget spent")
	}
	if err := s.Accept(1); err == nil {
		t.Error("accept with nothing on offer did not error")
	}
	s.EndPeriod()
	if s.Carry() != 0 {
		t.Errorf("the period sold 500 of 500 ms yet settled carry %g", s.Carry())
	}
}

// TestThresholdFlipNeverOversells is FuzzSellerLedger's first finding
// (testdata/fuzz/FuzzSellerLedger/threshold-flip-oversell) as a named
// regression: work taken off-plan while inactive used not to be
// deducted from the plan the agent started enforcing once a refusal
// pushed a price over the threshold, so the period's budget sold twice.
func TestThresholdFlipNeverOversells(t *testing.T) {
	for _, tc := range []struct {
		name   string
		carry  float64
		period float64
		costs  []float64
		first  int // the class sold off-plan while inactive
	}{
		{name: "greedy", period: 500, costs: []float64{400, 100}},
		{name: "with savings", carry: 300, period: 500, costs: []float64{700, 100}},
		{name: "the fuzzer's", period: 500, costs: []float64{144, 144}, first: 1},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cfg := DefaultConfig(0)
			cfg.Lambda = 0.42
			cfg.ActivationThreshold = 1.5
			s, err := NewSeller(cfg, tc.period, nil)
			if err != nil {
				t.Fatal(err)
			}
			// Restore is how a seller comes by savings without living
			// through the periods that earned them.
			if err := s.Restore(Snapshot{Costs: tc.costs, Carry: tc.carry}); err != nil {
				t.Fatal(err)
			}
			budget, spent := tc.period+tc.carry, 0.0
			buy := func(k int) bool {
				if !s.Offer(k) {
					return false
				}
				if err := s.Accept(k); err != nil {
					t.Fatalf("accept after offer: %v", err)
				}
				spent += tc.costs[k]
				if spent > budget {
					t.Fatalf("sold %gms of a %gms budget (active: %t)", spent, budget, s.Active())
				}
				return true
			}
			if s.Active() {
				t.Fatal("seller starts active")
			}
			if !buy(tc.first) {
				t.Fatalf("inactive seller refused class %d with the whole budget left", tc.first)
			}
			// Demand for everything until refusals push a price over the
			// threshold, then keep buying whatever is still offered.
			for round := 0; round < 50; round++ {
				for k := range tc.costs {
					buy(k)
				}
			}
			if !s.Active() {
				t.Fatal("refusals never activated pricing; the flip was not exercised")
			}
			s.EndPeriod()
			if want := math.Min(budget-spent, s.period); math.Abs(s.Carry()-want) > 1e-9 {
				t.Errorf("carry %g after selling %g of %g, want %g", s.Carry(), spent, budget, want)
			}
		})
	}
}

// TestSellerGrowthKeepsAgentState pins what replacing the agent (the
// prices and counters a seller once kept in a separate object) on a
// class arrival or a cost drift used to lose: lifetime counters and
// learned prices.
func TestSellerGrowthKeepsAgentState(t *testing.T) {
	cfg := DefaultConfig(1)
	s := newTestSeller(t, cfg, 100, 50)
	sell(t, s, 0, 2)
	raised := func(p float64) float64 { return p + cfg.Lambda*p }
	price := 1.0
	for i := 0; i < 3; i++ {
		if s.Offer(0) {
			t.Fatal("offer beyond the period's supply")
		}
		price = raised(price)
	}
	// Every refusal raises the price: 1 → 1.1 → 1.21 → 1.331.
	before := s.Stats()
	if got := s.Prices()[0]; got != price || before.Offers != 2 || before.Rejects != 3 || before.PriceUps != 3 {
		t.Fatalf("setup: price %g (want %g), stats %+v", got, price, before)
	}
	for name, change := range map[string]func(){
		"class arrival": func() { s.AddClass(10) },
		"cost drift":    func() { s.Recost(0, 500) },
	} {
		change()
		if got := s.Stats(); got != before {
			t.Errorf("%s changed lifetime stats: %+v, want %+v", name, got, before)
		}
		if s.Offer(0) {
			t.Fatalf("%s: class 0 offered with the budget spent", name)
		}
		before.Rejects++
		before.PriceUps++
		price = raised(price)
		if got := s.Prices()[0]; got != price {
			t.Errorf("%s lost the learned price: price %g after one more refusal, want %g", name, got, price)
		}
	}
	if got := s.Prices()[1]; got != 1 {
		t.Errorf("new class priced %g, want the initial price", got)
	}
}

// TestSellerIdleWithoutClasses: period boundaries before the first
// class arrives neither count as periods nor bank capacity.
func TestSellerIdleWithoutClasses(t *testing.T) {
	s := newTestSeller(t, DefaultConfig(1), 100)
	for i := 0; i < 3; i++ {
		s.EndPeriod()
		s.BeginPeriod()
	}
	if s.Carry() != 0 || s.Stats().Periods != 0 {
		t.Fatalf("classless seller: carry %g, periods %d", s.Carry(), s.Stats().Periods)
	}
	k := s.AddClass(30)
	if got := s.PlannedSupply()[k]; got != 3 {
		t.Fatalf("first class planned %d, want 3 (one period's budget)", got)
	}
}

func TestNewSellerValidatesConfig(t *testing.T) {
	if _, err := NewSeller(Config{Lambda: 1.5}, 100, nil); err == nil {
		t.Error("lambda above 1 accepted")
	}
	if _, err := NewSeller(Config{Lambda: 0}, 100, nil); err == nil {
		t.Error("zero lambda accepted")
	}
}

func TestSnapshotRoundTrip(t *testing.T) {
	a := newTestSeller(t, DefaultConfig(2), 500, 400, 100)
	// Learn some prices, spend some capacity.
	for period := 0; period < 5; period++ {
		a.Offer(0) // rejected while class 1 is the better plan: raises p0
		sell(t, a, 1, 2)
		a.EndPeriod()
		a.BeginPeriod()
	}
	data, err := json.Marshal(a.Snapshot())
	if err != nil {
		t.Fatal(err)
	}
	var parsed Snapshot
	if err := json.Unmarshal(data, &parsed); err != nil {
		t.Fatal(err)
	}
	b := newTestSeller(t, DefaultConfig(2), 500)
	if err := b.Restore(parsed); err != nil {
		t.Fatalf("Restore: %v", err)
	}
	pa, pb := a.Prices(), b.Prices()
	for i := range pa {
		if pa[i] != pb[i] {
			t.Errorf("price[%d] %g != %g after restore", i, pb[i], pa[i])
		}
	}
	if b.Stats() != a.Stats() {
		t.Errorf("stats not carried: %+v vs %+v", b.Stats(), a.Stats())
	}
	if b.Carry() != a.Carry() || b.Cost(0) != 400 || b.Cost(1) != 100 {
		t.Errorf("ledger not carried: carry %g vs %g, costs %g %g", b.Carry(), a.Carry(), b.Cost(0), b.Cost(1))
	}
	// The restored seller plans the same supply vector.
	if !a.PlannedSupply().Equal(b.PlannedSupply()) {
		t.Errorf("restored supply %v != original %v", b.PlannedSupply(), a.PlannedSupply())
	}
}

func TestRestoreValidation(t *testing.T) {
	good := Snapshot{Costs: []float64{100, 700}, Prices: []float64{2, 3}, Carry: 40, Stats: Stats{Periods: 9}}
	cases := []struct {
		name string
		snap Snapshot
	}{
		{"class-count mismatch", Snapshot{Costs: []float64{100}, Prices: []float64{1, 2}}},
		{"negative price", Snapshot{Costs: []float64{100}, Prices: []float64{-1}}},
		{"NaN price", Snapshot{Costs: []float64{100}, Prices: []float64{math.NaN()}}},
		{"price above the cap", Snapshot{Costs: []float64{100, 200}, Prices: []float64{1e12, 1}}},
		{"price below the floor", Snapshot{Costs: []float64{100, 200}, Prices: []float64{1, 1e-12}}},
		{"negative cost", Snapshot{Costs: []float64{-5}, Prices: []float64{1}}},
		{"NaN cost", Snapshot{Costs: []float64{math.NaN()}, Prices: []float64{1}}},
		{"infinite cost", Snapshot{Costs: []float64{math.Inf(1)}, Prices: []float64{1}}},
		{"NaN carry", Snapshot{Costs: []float64{100}, Prices: []float64{1}, Carry: math.NaN()}},
		{"infinite carry", Snapshot{Costs: []float64{100}, Prices: []float64{1}, Carry: math.Inf(1)}},
		{"infinite debt", Snapshot{Costs: []float64{100}, Prices: []float64{1}, Carry: math.Inf(-1)}},
	}
	for _, tc := range cases {
		s := newTestSeller(t, DefaultConfig(1), 500)
		if err := s.Restore(good); err != nil {
			t.Fatalf("good snapshot refused: %v", err)
		}
		if err := s.Restore(tc.snap); err == nil {
			t.Errorf("%s accepted", tc.name)
		}
		// A refused restore leaves the seller as it was.
		if got, _ := json.Marshal(s.Snapshot()); string(got) != mustJSON(t, good) {
			t.Errorf("%s: refused restore changed the seller: %s", tc.name, got)
		}
	}

	// A carry above what a live period boundary could have produced is
	// capped the same way; debt is legitimate and kept.
	s := newTestSeller(t, DefaultConfig(1), 500)
	for carry, want := range map[float64]float64{1e12: 700, 700: 700, 40: 40, -250: -250} {
		snap := good
		snap.Carry = carry
		if err := s.Restore(snap); err != nil {
			t.Fatalf("carry %g refused: %v", carry, err)
		}
		if s.Carry() != want {
			t.Errorf("restored carry %g became %g, want %g", carry, s.Carry(), want)
		}
	}
	// Legacy price-less snapshot: every class restarts at the initial price.
	if err := s.Restore(Snapshot{Costs: []float64{100, 700}}); err != nil {
		t.Fatalf("price-less snapshot refused: %v", err)
	}
	if p := s.Prices(); p[0] != 1 || p[1] != 1 {
		t.Errorf("price-less snapshot restored prices %v, want initial", p)
	}
}

func mustJSON(t *testing.T, v any) string {
	t.Helper()
	data, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return string(data)
}
