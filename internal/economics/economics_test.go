package economics

import (
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"

	"github.com/qamarket/qamarket/internal/vector"
)

// figure1Sets builds the supply sets of the paper's motivating example
// for one 500 ms period: N1 evaluates q1 in 400 ms and q2 in 100 ms,
// N2 in 450 ms and 500 ms.
func figure1Sets() []TimeBudgetSupplySet {
	return []TimeBudgetSupplySet{
		TimeBudgetSupplySet{Cost: []float64{400, 100}, Budget: 500},
		TimeBudgetSupplySet{Cost: []float64{450, 500}, Budget: 500},
	}
}

func TestThroughputPreference(t *testing.T) {
	a := vector.Quantity{5, 0}
	b := vector.Quantity{2, 2}
	if ThroughputPreference(a, b) != 1 {
		t.Error("5 queries should beat 4")
	}
	if ThroughputPreference(b, a) != -1 {
		t.Error("4 queries should lose to 5")
	}
	if ThroughputPreference(a, vector.Quantity{0, 5}) != 0 {
		t.Error("equal totals should be indifferent")
	}
}

func TestExcessDemand(t *testing.T) {
	// Def. 2 with the paper's example: demand (2,6), supply (2,4) gives
	// z = (0,2).
	d := []vector.Quantity{{1, 6}, {1, 0}}
	s := []vector.Quantity{{0, 4}, {2, 0}}
	z := ExcessDemand(d, s)
	if want := (vector.Quantity{0, 2}); !z.Equal(want) {
		t.Errorf("ExcessDemand = %v, want %v", z, want)
	}
	if InEquilibrium(d, s) {
		t.Error("nonzero excess demand reported as equilibrium")
	}
	if !InEquilibrium(d, []vector.Quantity{{1, 6}, {1, 0}}) {
		t.Error("exact match not reported as equilibrium")
	}
}

func TestAllocationValid(t *testing.T) {
	demand := []vector.Quantity{{1, 6}, {1, 0}}
	ok := Allocation{
		Supply:      []vector.Quantity{{0, 5}, {1, 0}},
		Consumption: []vector.Quantity{{1, 5}, {0, 0}},
	}
	if err := ok.Valid(demand); err != nil {
		t.Errorf("valid allocation rejected: %v", err)
	}
	overconsume := Allocation{
		Supply:      []vector.Quantity{{2, 0}, {0, 0}},
		Consumption: []vector.Quantity{{2, 0}, {0, 0}},
	}
	if err := overconsume.Valid(demand); err == nil {
		t.Error("consumption beyond demand accepted")
	}
	unbalanced := Allocation{
		Supply:      []vector.Quantity{{1, 0}, {0, 0}},
		Consumption: []vector.Quantity{{0, 0}, {0, 0}},
	}
	if err := unbalanced.Valid(demand); err == nil {
		t.Error("supply != consumption accepted")
	}
	negative := Allocation{
		Supply:      []vector.Quantity{{-1, 0}, {1, 0}},
		Consumption: []vector.Quantity{{0, 0}, {0, 0}},
	}
	if err := negative.Valid(demand); err == nil {
		t.Error("negative supply accepted")
	}
}

func TestDominates(t *testing.T) {
	// The paper's Section 2.2 comparison: QA (5,1) dominates LB (2,1).
	lb := Allocation{Consumption: []vector.Quantity{{1, 1}, {1, 0}}}
	qa := Allocation{Consumption: []vector.Quantity{{0, 5}, {1, 0}}}
	if !Dominates(qa, lb) {
		t.Error("QA allocation should dominate LB (Section 2.2)")
	}
	if Dominates(lb, qa) {
		t.Error("LB should not dominate QA")
	}
	if Dominates(qa, qa) {
		t.Error("an allocation must not dominate itself")
	}
}

func TestFigure1LBNotParetoQAPareto(t *testing.T) {
	// Demand of the first 500 ms period: N1 wants 1×q1 + 6×q2, N2 wants
	// 1×q1.
	demand := []vector.Quantity{{1, 6}, {1, 0}}
	sets := figure1Sets()

	// LB consumed (1,1) at N1 and (1,0) at N2 (3 queries total).
	lb := Allocation{
		Supply:      []vector.Quantity{{1, 1}, {1, 0}},
		Consumption: []vector.Quantity{{1, 1}, {1, 0}},
	}
	if err := lb.Valid(demand); err != nil {
		t.Fatalf("LB allocation invalid: %v", err)
	}
	if IsParetoOptimal(lb, demand, sets) {
		t.Error("the paper states the LB allocation is not Pareto optimal")
	}

	// QA had N1 supply only q2 (5 of them fit 500 ms) and N2 supply q1.
	// Per Figure 2, N1 consumes 5 queries and N2 consumes 1.
	qa := Allocation{
		Supply:      []vector.Quantity{{0, 5}, {1, 0}},
		Consumption: []vector.Quantity{{0, 5}, {1, 0}},
	}
	if err := qa.Valid(demand); err != nil {
		t.Fatalf("QA allocation invalid: %v", err)
	}
	if !IsParetoOptimal(qa, demand, sets) {
		t.Error("the QA allocation should be Pareto optimal")
	}
}

func TestTimeBudgetFeasible(t *testing.T) {
	set := TimeBudgetSupplySet{Cost: []float64{400, 100}, Budget: 500}
	cases := []struct {
		s    vector.Quantity
		want bool
	}{
		{vector.Quantity{0, 0}, true},
		{vector.Quantity{1, 1}, true},  // 500 exactly
		{vector.Quantity{0, 5}, true},  // 500 exactly
		{vector.Quantity{1, 2}, false}, // 600
		{vector.Quantity{0, 6}, false},
		{vector.Quantity{-1, 0}, false},
		{vector.Quantity{0}, false}, // wrong dimension
	}
	for _, c := range cases {
		if got := set.Feasible(c.s); got != c.want {
			t.Errorf("Feasible(%v) = %t, want %t", c.s, got, c.want)
		}
	}
	// A class with non-positive cost is not evaluable at all.
	missing := TimeBudgetSupplySet{Cost: []float64{0, 100}, Budget: 500}
	if missing.Feasible(vector.Quantity{1, 0}) {
		t.Error("class with cost 0 should be infeasible")
	}
}

func TestBestResponseFollowsPrices(t *testing.T) {
	set := TimeBudgetSupplySet{Cost: []float64{400, 100}, Budget: 500}
	// Equal prices: q2 has 4x the value density, fill with q2.
	s := set.BestResponse(vector.Prices{1, 1})
	if want := (vector.Quantity{0, 5}); !s.Equal(want) {
		t.Errorf("BestResponse(1,1) = %v, want %v", s, want)
	}
	// Price of q1 high enough to flip the density order.
	s = set.BestResponse(vector.Prices{10, 1})
	if want := (vector.Quantity{1, 1}); !s.Equal(want) {
		t.Errorf("BestResponse(10,1) = %v, want %v", s, want)
	}
}

func TestBestResponseAlwaysFeasible(t *testing.T) {
	f := func(c1, c2, c3 uint8, p1, p2, p3 uint8) bool {
		set := TimeBudgetSupplySet{
			Cost:   []float64{float64(c1), float64(c2), float64(c3)},
			Budget: 500,
		}
		p := vector.Prices{float64(p1) + 1, float64(p2) + 1, float64(p3) + 1}
		return set.Feasible(set.BestResponse(p))
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestTatonnementConvergesSimpleMarket(t *testing.T) {
	// One buyer demands 5×q2 and 1×q1; two sellers as in Figure 1. The
	// system can exactly produce that demand, so equilibrium exists.
	demand := []vector.Quantity{{1, 5}, {0, 0}}
	sets := []TimeBudgetSupplySet{
		TimeBudgetSupplySet{Cost: []float64{400, 100}, Budget: 500},
		TimeBudgetSupplySet{Cost: []float64{450, 500}, Budget: 500},
	}
	res, err := Tatonnement(demand, sets, vector.NewPrices(2, 1), DefaultTatonnement())
	if err != nil {
		t.Fatalf("tâtonnement failed after %d iterations: excess %v", res.Iterations, res.Excess)
	}
	if !res.Excess.IsZero() {
		t.Errorf("converged with nonzero excess %v", res.Excess)
	}
	agg := vector.Sum(res.Supply)
	if want := (vector.Quantity{1, 5}); !agg.Equal(want) {
		t.Errorf("equilibrium supply %v, want %v", agg, want)
	}
}

func TestTatonnementRejectsBadInput(t *testing.T) {
	if _, err := Tatonnement(nil, nil, vector.NewPrices(1, 1), DefaultTatonnement()); err == nil {
		t.Error("empty market accepted")
	}
	demand := []vector.Quantity{{1}}
	sets := []TimeBudgetSupplySet{TimeBudgetSupplySet{Cost: []float64{100}, Budget: 500}}
	cfg := DefaultTatonnement()
	cfg.Lambda = 0
	if _, err := Tatonnement(demand, sets, vector.NewPrices(1, 1), cfg); err == nil {
		t.Error("zero lambda accepted")
	}
}

func TestTatonnementNoConvergence(t *testing.T) {
	// Demand that can never be met (10 queries of a class that fits at
	// most 1 per period in the whole system) cannot reach z=0.
	demand := []vector.Quantity{{10}}
	sets := []TimeBudgetSupplySet{TimeBudgetSupplySet{Cost: []float64{400}, Budget: 500}}
	cfg := DefaultTatonnement()
	cfg.MaxIterations = 50
	_, err := Tatonnement(demand, sets, vector.NewPrices(1, 1), cfg)
	if err != ErrNoConvergence {
		t.Errorf("err = %v, want ErrNoConvergence", err)
	}
}

func TestEnumerateMatchesFeasible(t *testing.T) {
	set := TimeBudgetSupplySet{Cost: []float64{400, 100}, Budget: 500}
	all := set.Enumerate()
	seen := map[string]bool{}
	for _, s := range all {
		if !set.Feasible(s) {
			t.Errorf("enumerated infeasible vector %v", s)
		}
		if seen[s.String()] {
			t.Errorf("duplicate vector %v", s)
		}
		seen[s.String()] = true
	}
	// (1,1), (1,0), (0,0..5): 8 vectors total.
	if len(all) != 8 {
		t.Errorf("enumerated %d vectors, want 8", len(all))
	}
}

// Property: FindDominating never returns an allocation that fails
// Valid or fails to dominate.
func TestQuickFindDominatingSound(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 25; trial++ {
		demand := []vector.Quantity{
			{rng.Intn(3), rng.Intn(6)},
			{rng.Intn(3), rng.Intn(3)},
		}
		sets := []TimeBudgetSupplySet{
			TimeBudgetSupplySet{Cost: []float64{float64(100 + rng.Intn(400)), float64(50 + rng.Intn(200))}, Budget: 500},
			TimeBudgetSupplySet{Cost: []float64{float64(100 + rng.Intn(400)), float64(50 + rng.Intn(200))}, Budget: 500},
		}
		base := Allocation{
			Supply:      []vector.Quantity{{0, 0}, {0, 0}},
			Consumption: []vector.Quantity{{0, 0}, {0, 0}},
		}
		dom := FindDominating(base, demand, sets)
		if dom == nil {
			continue
		}
		if err := dom.Valid(demand); err != nil {
			t.Fatalf("trial %d: dominating allocation invalid: %v", trial, err)
		}
		if !Dominates(*dom, base) {
			t.Fatalf("trial %d: returned allocation does not dominate", trial)
		}
	}
}

// Valid checks the structural feasibility constraints of eq. (3) against
// the given demand vectors: every c_i <= d_i component-wise, every vector
// is in N^K, and aggregate supply equals aggregate consumption.
func (a Allocation) Valid(demand []vector.Quantity) error {
	if len(a.Supply) != len(a.Consumption) {
		return fmt.Errorf("economics: %d supply vs %d consumption vectors", len(a.Supply), len(a.Consumption))
	}
	if len(demand) != len(a.Consumption) {
		return fmt.Errorf("economics: %d demand vs %d consumption vectors", len(demand), len(a.Consumption))
	}
	for i, c := range a.Consumption {
		if !c.IsValid() {
			return fmt.Errorf("economics: node %d consumption %v outside N^K", i, c)
		}
		if !c.LEQ(demand[i]) {
			return fmt.Errorf("economics: node %d consumes %v beyond demand %v", i, c, demand[i])
		}
	}
	for i, s := range a.Supply {
		if !s.IsValid() {
			return fmt.Errorf("economics: node %d supply %v outside N^K", i, s)
		}
	}
	if s, c := a.AggregateSupply(), vector.Sum(a.Consumption); !s.Equal(c) {
		return fmt.Errorf("economics: aggregate supply %v != aggregate consumption %v", s, c)
	}
	return nil
}

// InEquilibrium reports whether the market is in competitive equilibrium
// (Def. 3): excess demand is zero in every class.
func InEquilibrium(demand, supply []vector.Quantity) bool {
	return ExcessDemand(demand, supply).IsZero()
}
