package market

import (
	"math"
	"testing"

	"github.com/qamarket/qamarket/internal/economics"
	"github.com/qamarket/qamarket/internal/vector"
)

func newTestAgent(t *testing.T, cost []float64, budget float64, cfg Config) *Agent {
	t.Helper()
	set := economics.TimeBudgetSupplySet{Cost: cost, Budget: budget}
	a, err := NewAgent(set, cfg)
	if err != nil {
		t.Fatalf("NewAgent: %v", err)
	}
	return a
}

func TestConfigValidation(t *testing.T) {
	set := economics.TimeBudgetSupplySet{Cost: []float64{100}, Budget: 500}
	cases := []struct {
		name string
		cfg  Config
		ok   bool
	}{
		{"valid", Config{Classes: 1, Lambda: 0.1}, true},
		{"zero classes", Config{Classes: 0, Lambda: 0.1}, false},
		{"zero lambda", Config{Classes: 1, Lambda: 0}, false},
		{"lambda one", Config{Classes: 1, Lambda: 1}, false},
		{"floor above cap", Config{Classes: 1, Lambda: 0.1, PriceFloor: 10, PriceCap: 1}, false},
	}
	for _, c := range cases {
		_, err := NewAgent(set, c.cfg)
		if (err == nil) != c.ok {
			t.Errorf("%s: err = %v, want ok=%t", c.name, err, c.ok)
		}
	}
	if _, err := NewAgent(nil, Config{Classes: 1, Lambda: 0.1}); err == nil {
		t.Error("nil supply set accepted")
	}
}

func TestBeginPeriodSolvesEq4(t *testing.T) {
	// Figure 1's N1: with equal prices the best response is 5×q2.
	a := newTestAgent(t, []float64{400, 100}, 500, DefaultConfig(2))
	a.BeginPeriod()
	if want := (vector.Quantity{0, 5}); !a.PlannedSupply().Equal(want) {
		t.Errorf("planned supply %v, want %v", a.PlannedSupply(), want)
	}
}

func TestOfferAcceptConsumesSupply(t *testing.T) {
	a := newTestAgent(t, []float64{400, 100}, 500, DefaultConfig(2))
	a.BeginPeriod()
	for i := 0; i < 5; i++ {
		if !a.Offer(1) {
			t.Fatalf("offer %d refused with supply remaining", i)
		}
		if err := a.Accept(1); err != nil {
			t.Fatalf("accept %d: %v", i, err)
		}
	}
	if a.Offer(1) {
		t.Error("offer granted with exhausted supply")
	}
	if err := a.Accept(1); err == nil {
		t.Error("accept beyond supply did not error")
	}
	st := a.Stats()
	if st.Offers != 5 || st.Accepts != 5 || st.Rejects != 1 {
		t.Errorf("stats = %+v", st)
	}
}

func TestRejectionRaisesPrice(t *testing.T) {
	cfg := DefaultConfig(2)
	a := newTestAgent(t, []float64{400, 100}, 500, cfg)
	a.BeginPeriod()
	p0 := a.Prices()
	// Class 0 is not in the supply vector: the request is refused and
	// its price rises by λ·p.
	if a.Offer(0) {
		t.Fatal("unexpected offer for unsupplied class")
	}
	p1 := a.Prices()
	want := p0[0] * (1 + cfg.Lambda)
	if math.Abs(p1[0]-want) > 1e-12 {
		t.Errorf("price after rejection %g, want %g", p1[0], want)
	}
	if p1[1] != p0[1] {
		t.Errorf("unrelated class price moved: %g -> %g", p0[1], p1[1])
	}
}

func TestUnsoldSupplyCutsPrice(t *testing.T) {
	cfg := DefaultConfig(2)
	a := newTestAgent(t, []float64{400, 100}, 500, cfg)
	a.BeginPeriod() // supply (0,5), nothing sold
	p0 := a.Prices()
	a.EndPeriod()
	p1 := a.Prices()
	want := p0[1] - 5*cfg.Lambda*p0[1] // step 13: p -= s·λ·p
	if math.Abs(p1[1]-want) > 1e-12 {
		t.Errorf("price after unsold period %g, want %g", p1[1], want)
	}
	if p1[0] != p0[0] {
		t.Errorf("class with zero supply should keep its price: %g -> %g", p0[0], p1[0])
	}
	if a.Stats().Unsold != 5 {
		t.Errorf("unsold = %d, want 5", a.Stats().Unsold)
	}
}

func TestPriceFloorAndCap(t *testing.T) {
	cfg := DefaultConfig(1)
	cfg.PriceFloor = 0.5
	cfg.PriceCap = 2
	a := newTestAgent(t, []float64{600}, 500, cfg) // class never fits: always rejected
	a.BeginPeriod()
	for i := 0; i < 100; i++ {
		a.Offer(0)
	}
	if p := a.Prices()[0]; p > cfg.PriceCap {
		t.Errorf("price %g exceeds cap %g", p, cfg.PriceCap)
	}
	// Now drive the price down with unsold periods.
	b := newTestAgent(t, []float64{100}, 500, cfg)
	for i := 0; i < 100; i++ {
		b.BeginPeriod()
		b.EndPeriod()
	}
	if p := b.Prices()[0]; p < cfg.PriceFloor {
		t.Errorf("price %g below floor %g", p, cfg.PriceFloor)
	}
}

func TestMaxAdjustsPerPeriod(t *testing.T) {
	cfg := DefaultConfig(1)
	cfg.MaxAdjustsPerPeriod = 3
	a := newTestAgent(t, []float64{600}, 500, cfg)
	a.BeginPeriod()
	for i := 0; i < 10; i++ {
		a.Offer(0)
	}
	want := 1.0
	for i := 0; i < 3; i++ {
		want *= 1 + cfg.Lambda
	}
	if p := a.Prices()[0]; math.Abs(p-want) > 1e-12 {
		t.Errorf("price %g, want %g (3 adjustments max)", p, want)
	}
	a.EndPeriod()
	a.BeginPeriod()
	a.Offer(0) // the cap resets each period
	if a.Stats().PriceUps != 4 {
		t.Errorf("PriceUps = %d, want 4", a.Stats().PriceUps)
	}
}

func TestMarketDynamicsShiftSupply(t *testing.T) {
	// The Section 3.3 narrative: N1 initially supplies only q2; if q1
	// demand keeps failing, q1's price rises until N1 starts supplying
	// q1 as well.
	a := newTestAgent(t, []float64{400, 100}, 500, DefaultConfig(2))
	for period := 0; period < 100; period++ {
		a.BeginPeriod()
		if a.PlannedSupply()[0] > 0 {
			return // q1 entered the supply vector
		}
		// q1 requests keep arriving and failing; q2 sells out.
		for i := 0; i < 4; i++ {
			a.Offer(0)
		}
		for a.Offer(1) {
			if err := a.Accept(1); err != nil {
				t.Fatalf("accept: %v", err)
			}
		}
		a.EndPeriod()
	}
	t.Fatal("q1 never entered the supply vector after 100 periods of excess demand")
}

func TestOfferPanicsOnBadClass(t *testing.T) {
	a := newTestAgent(t, []float64{100}, 500, DefaultConfig(1))
	a.BeginPeriod()
	defer func() {
		if recover() == nil {
			t.Fatal("out-of-range class did not panic")
		}
	}()
	a.Offer(5)
}
