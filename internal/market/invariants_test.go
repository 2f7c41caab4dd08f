package market

import (
	"math"
	"math/rand"
	"testing"

	"github.com/qamarket/qamarket/internal/economics"
	"github.com/qamarket/qamarket/internal/vector"
)

// TestInvariantsUnderRandomTrading drives an agent (NewAgent) with
// random demand sequences for many periods and checks the structural
// invariants the rest of the system relies on:
//
//  1. prices stay within [floor, cap] and remain valid (positive,
//     finite) forever;
//  2. the planned supply vector is always feasible;
//  3. accepted work never exceeds the planned supply, whatever the
//     activation threshold (an agent only ever sells its plan);
//  4. Offer never returns true for a class the node cannot evaluate.
func TestInvariantsUnderRandomTrading(t *testing.T) {
	for _, seed := range []int64{1, 2, 3, 4, 5} {
		rng := rand.New(rand.NewSource(seed))
		k := 2 + rng.Intn(6)
		cost := make([]float64, k)
		for c := range cost {
			if rng.Float64() < 0.2 {
				cost[c] = 0 // unevaluable class
			} else {
				cost[c] = 50 + rng.Float64()*1500
			}
		}
		set := economics.TimeBudgetSupplySet{Cost: cost, Budget: 500}
		cfg := DefaultConfig(k)
		cfg.Lambda = 0.05 + rng.Float64()*0.4
		if rng.Float64() < 0.5 {
			cfg.ActivationThreshold = 0.5 + rng.Float64()*3
		}
		agent, err := NewAgent(set, cfg)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		for period := 0; period < 300; period++ {
			agent.BeginPeriod()
			planned := agent.PlannedSupply()
			if !set.Feasible(planned) {
				t.Fatalf("seed %d period %d: planned supply %v infeasible", seed, period, planned)
			}
			demands := 1 + rng.Intn(20)
			for q := 0; q < demands; q++ {
				class := rng.Intn(k)
				if agent.Offer(class) {
					if cost[class] <= 0 {
						t.Fatalf("seed %d: offered unevaluable class %d", seed, class)
					}
					// Clients accept ~70% of offers.
					if rng.Float64() < 0.7 {
						if err := agent.Accept(class); err != nil {
							t.Fatalf("seed %d period %d: accept after offer: %v", seed, period, err)
						}
					}
				}
			}
			if accepted := agent.Accepted(); !accepted.LEQ(planned) {
				t.Fatalf("seed %d period %d: accepted %v exceeds planned %v",
					seed, period, accepted, planned)
			}
			p := agent.Prices()
			if !p.IsValid() {
				t.Fatalf("seed %d period %d: invalid prices %v", seed, period, p)
			}
			floor, cap := 1e-6, 1e6 // the documented defaults
			for c, v := range p {
				if v < floor-1e-12 || v > cap+1e-12 {
					t.Fatalf("seed %d period %d: price[%d]=%g outside [%g,%g]",
						seed, period, c, v, floor, cap)
				}
			}
			agent.EndPeriod()
		}
		st := agent.Stats()
		if st.Periods != 300 {
			t.Errorf("seed %d: %d periods recorded", seed, st.Periods)
		}
		if st.Accepts > st.Offers {
			t.Errorf("seed %d: accepts %d exceed offers %d", seed, st.Accepts, st.Offers)
		}
	}
}

// TestExcessDemandConvergence is the empirical counterpart of
// Proposition 3.1 on a single node: under a steady demand that is
// expressible as a best response of the supply set (a vertex of the
// knapsack — integer non-convexity makes some demands unreachable, the
// very "rounding error" Section 5.1 discusses), the non-tâtonnement
// process converges to supplying exactly the demand. The paper's agent
// (NewAgent, a fixed supply set) does so even when refused queries are
// lost. A node's seller (NewSeller) banks the time refused demand left
// unsold, so it is checked where its clients put it: refused queries
// come back in the next period, as the paper's clients (§3.3) and
// alloc.QANT resubmit them, and the savings pay off that backlog.
func TestExcessDemandConvergence(t *testing.T) {
	for _, tc := range []struct {
		name     string
		resubmit bool
		build    func() (*Seller, error)
	}{
		{"agent, refused demand lost", false, func() (*Seller, error) {
			return NewAgent(economics.TimeBudgetSupplySet{Cost: []float64{200, 100}, Budget: 500}, DefaultConfig(2))
		}},
		{"seller, refused demand resubmitted", true, func() (*Seller, error) {
			return NewSeller(DefaultConfig(2), 500, []float64{200, 100})
		}},
	} {
		agent, err := tc.build()
		if err != nil {
			t.Fatal(err)
		}
		// Steady demand: 2×class0 + 1×class1 per period — exactly the
		// knapsack vertex the solver picks once p0 >= 2·p1.
		demand := vector.Quantity{2, 1}
		backlog := vector.New(2)
		converged := 0
		for period := 0; period < 400; period++ {
			agent.BeginPeriod()
			want := demand.Add(backlog)
			served := vector.New(2)
			for c, n := range want {
				for q := 0; q < n; q++ {
					if agent.Offer(c) {
						if err := agent.Accept(c); err != nil {
							t.Fatal(err)
						}
						served[c]++
					}
				}
			}
			if tc.resubmit {
				backlog = want.Sub(served)
			}
			if backlog.IsZero() && served.Equal(demand) {
				converged++
			} else {
				converged = 0
			}
			agent.EndPeriod()
		}
		// The market must settle into serving the full demand persistently.
		if converged < 50 {
			t.Errorf("%s: demand served in only the last %d consecutive periods; market did not converge", tc.name, converged)
		}
	}
}

// TestPriceSignalsAreLocal verifies autonomy: one seller's trading never
// touches another seller (no shared state), and a seller's prices are a
// function of its own history alone — feed a second seller the same
// history and it arrives at the same prices.
func TestPriceSignalsAreLocal(t *testing.T) {
	mk := func() *Seller {
		a, err := NewSeller(DefaultConfig(1), 500, []float64{100})
		if err != nil {
			t.Fatal(err)
		}
		return a
	}
	// One period: sell out, then ten refusals raise the price.
	trade := func(a *Seller) {
		a.BeginPeriod()
		for i := 0; i < 10; i++ {
			for a.Offer(0) {
				if err := a.Accept(0); err != nil {
					t.Fatal(err)
				}
			}
		}
		a.EndPeriod()
	}
	a, b := mk(), mk()
	start := b.Prices()[0]
	trade(a)
	if a.Prices()[0] == start {
		t.Fatal("the history moved no price; nothing to check")
	}
	if got := b.Prices()[0]; got != start {
		t.Fatalf("a's trading moved b's price %g → %g", start, got)
	}
	trade(b)
	if a.Prices()[0] != b.Prices()[0] {
		t.Errorf("same history, different prices: %g vs %g", a.Prices()[0], b.Prices()[0])
	}
}

// ledgerStream hands checkSellerLedger its script one byte at a time;
// an exhausted stream yields zeros, so any byte string is a valid one.
type ledgerStream struct{ data []byte }

func (s *ledgerStream) next() int {
	if len(s.data) == 0 {
		return 0
	}
	b := s.data[0]
	s.data = s.data[1:]
	return int(b)
}

// cost decodes a class cost: 0 (the node cannot evaluate the class) or
// 1ms … 1.5× the longest period, so classes dearer than one period —
// the reason carry exists — are common.
func (s *ledgerStream) cost() float64 { return float64(s.next()) * 3 }

// checkSellerLedger drives a Seller through the script in data —
// interleaved offer / accept / new-class / re-cost / period-boundary
// steps, the server's whole repertoire — and after every step checks it
// against an independent model that charges each accepted query once,
// at the cost in force when it was accepted (spent), so that
// left = T + carry − spent. Whether or not pricing is active:
//
//  1. the seller has charged exactly what the model has, no sale cost
//     more than was left at the time, and what is still on offer fits
//     what is left now: Σ remaining·cost ≤ max(left, 0) — nothing is on
//     offer while in debt, which only a mid-period carry cap (a re-cost
//     that cheapens the dearest class) can cause;
//  2. the plan fits the budget it was solved against, that budget is
//     what was left at the solve, and remaining supply stays within
//     [0, planned];
//  3. carry never exceeds max(T, dearest class), and every period
//     boundary settles it to exactly what the model computes;
//  4. prices stay valid and within [PriceFloor, PriceCap], and no class
//     is raised more than MaxAdjustsPerPeriod times in a period however
//     often the period is re-planned;
//  5. lifetime counters never decrease.
//
// TestSellerLedgerUnderRandomTrading feeds it seeded random scripts and
// FuzzSellerLedger whatever the fuzzer invents.
func checkSellerLedger(t *testing.T, data []byte) {
	in := &ledgerStream{data: data}
	cfg := DefaultConfig(0)
	cfg.Lambda = 0.02 + float64(in.next()%48)/100
	cfg.MaxAdjustsPerPeriod = in.next() % 4
	if in.next()%2 == 1 {
		cfg.ActivationThreshold = 1.5
	}
	period := []float64{50, 100, 500}[in.next()%3]
	costs := make([]float64, in.next()%4)
	for c := range costs {
		costs[c] = in.cost()
	}
	s, err := NewSeller(cfg, period, costs)
	if err != nil {
		t.Fatal(err)
	}
	s.BeginPeriod()
	cfg = s.cfg // with the defaults filled in

	// The model.
	const eps = 1e-6
	costs = append([]float64(nil), costs...)
	carry, spent := 0.0, 0.0
	startPrice := s.Prices()
	limit := func() float64 {
		l := period
		for _, c := range costs {
			l = math.Max(l, c)
		}
		return l
	}
	maxRaise := math.Pow(1+cfg.Lambda, float64(cfg.MaxAdjustsPerPeriod))
	last := s.Stats()

	for step := 0; len(in.data) > 0 && step < 2000; step++ {
		op, k := in.next()%16, 0
		if len(costs) > 0 {
			k = in.next() % len(costs)
		}
		// sold is the model's side of an accepted sale.
		sold := func() {
			if costs[k] <= 0 {
				t.Fatalf("step %d: sold class %d, which the node cannot evaluate", step, k)
			}
			if left := period + carry - spent; costs[k] > left+eps {
				t.Fatalf("step %d: sold %gms of class %d with %gms left", step, costs[k], k, left)
			}
			spent += costs[k]
		}
		switch {
		case len(costs) == 0 && op < 13, op == 10 && len(costs) < 10:
			costs = append(costs, in.cost())
			startPrice = append(startPrice, cfg.InitialPrice)
			if got := s.AddClass(costs[len(costs)-1]); got != len(costs)-1 {
				t.Fatalf("step %d: AddClass returned %d, want %d", step, got, len(costs)-1)
			}
		case op < 7: // offer, and the client takes it
			if s.Offer(k) {
				if err := s.Accept(k); err != nil {
					t.Fatalf("step %d: accept after offer: %v", step, err)
				}
				sold()
			}
		case op < 9: // offer, and the client goes elsewhere
			s.Offer(k)
		case op == 9: // accept out of the blue: fine iff it is on offer
			if s.Accept(k) == nil {
				sold()
			}
		case op < 13:
			costs[k] = in.cost()
			s.Recost(k, costs[k])
			carry = math.Min(carry, limit())
		default: // period boundary
			s.EndPeriod()
			if len(costs) > 0 { // a seller with no classes has no market to settle
				carry = math.Min(carry+period-spent, limit())
			}
			spent = 0
			if math.Abs(s.Carry()-carry) > eps {
				t.Fatalf("step %d: boundary settled carry %g, model says %g", step, s.Carry(), carry)
			}
			s.BeginPeriod()
			startPrice = s.Prices()
		}

		budget := s.budget // what the current plan was solved against
		onOfferMs, plannedMs, onPlanMs := 0.0, 0.0, 0.0
		for c := range costs {
			if s.Cost(c) != costs[c] {
				t.Fatalf("step %d: class %d costs %g, model says %g", step, c, s.Cost(c), costs[c])
			}
			if s.supply[c] < 0 || s.supply[c] > s.planned[c] {
				t.Fatalf("step %d: class %d has %d left of %d planned", step, c, s.supply[c], s.planned[c])
			}
			onOfferMs += float64(s.supply[c]) * costs[c]
			plannedMs += float64(s.planned[c]) * costs[c]
			onPlanMs += float64(s.planned[c]-s.supply[c]) * costs[c]
			if s.prices[c] < cfg.PriceFloor || s.prices[c] > cfg.PriceCap || math.IsNaN(s.prices[c]) {
				t.Fatalf("step %d: price[%d] = %g outside [%g, %g]", step, c, s.prices[c], cfg.PriceFloor, cfg.PriceCap)
			}
			if cfg.MaxAdjustsPerPeriod > 0 && s.prices[c] > startPrice[c]*maxRaise*(1+eps) {
				t.Fatalf("step %d: price[%d] rose %g → %g in one period, over %d raises of λ=%g",
					step, c, startPrice[c], s.prices[c], cfg.MaxAdjustsPerPeriod, cfg.Lambda)
			}
		}
		left := period + carry - spent
		if math.Abs(s.used-spent) > eps {
			t.Fatalf("step %d: seller charged %g this period, model says %g", step, s.used, spent)
		}
		if onOfferMs > math.Max(left, 0)+eps {
			t.Fatalf("step %d: %gms still on offer with %gms left (T %g + carry %g − spent %g)",
				step, onOfferMs, left, period, carry, spent)
		}
		// The plan was solved against what was left at that point (every
		// sale since came off the plan: an off-plan sale re-solves), or
		// against nothing if the node was in debt.
		if math.Abs(budget-math.Max(left+onPlanMs, 0)) > eps {
			t.Fatalf("step %d: ledger broken: plan solved against %gms, sold %gms of it, yet %gms left",
				step, budget, onPlanMs, left)
		}
		if plannedMs > budget+eps {
			t.Fatalf("step %d: planned %gms against a budget of %gms", step, plannedMs, budget)
		}
		if s.Carry() > limit()+eps {
			t.Fatalf("step %d: carry %g above its cap %g", step, s.Carry(), limit())
		}
		st := s.Stats()
		if st.Periods < last.Periods || st.Offers < last.Offers || st.Accepts < last.Accepts || st.Rejects < last.Rejects ||
			st.Unsold < last.Unsold || st.PriceUps < last.PriceUps || st.PriceDns < last.PriceDns {
			t.Fatalf("step %d: lifetime counters went backwards: %+v → %+v", step, last, st)
		}
		last = st
	}
}

func TestSellerLedgerUnderRandomTrading(t *testing.T) {
	for seed := int64(1); seed <= 40; seed++ {
		script := make([]byte, 600)
		rand.New(rand.NewSource(seed)).Read(script)
		checkSellerLedger(t, script)
	}
}

// FuzzSellerLedger lets the fuzzer write the script; `make fuzzsmoke`
// runs it for a few seconds on every CI run.
func FuzzSellerLedger(f *testing.F) {
	f.Add([]byte{10, 1, 0, 1, 2, 20, 200, 0, 0, 0, 0, 13, 0, 10, 0, 5, 11, 0, 90, 0, 0, 15, 0})
	f.Add([]byte{40, 0, 1, 0, 0, 10, 0, 7, 0, 0, 9, 0, 12, 0, 0, 14})
	f.Fuzz(checkSellerLedger)
}
