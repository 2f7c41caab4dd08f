package market

import (
	"math"
	"testing"

	"github.com/qamarket/qamarket/internal/vector"
)

func TestConfigValidation(t *testing.T) {
	cases := []struct {
		name string
		cfg  Config
		ok   bool
	}{
		{"valid", Config{Classes: 1, Lambda: 0.1}, true},
		{"zero classes: the cost table sets K", Config{Classes: 0, Lambda: 0.1}, true},
		{"zero lambda", Config{Classes: 1, Lambda: 0}, false},
		{"lambda one", Config{Classes: 1, Lambda: 1}, false},
		{"floor above cap", Config{Classes: 1, Lambda: 0.1, PriceFloor: 10, PriceCap: 1}, false},
	}
	for _, c := range cases {
		_, err := NewSeller(c.cfg, 500, []float64{100})
		if (err == nil) != c.ok {
			t.Errorf("%s: err = %v, want ok=%t", c.name, err, c.ok)
		}
	}
}

func TestBeginPeriodSolvesEq4(t *testing.T) {
	// Figure 1's N1: with equal prices the best response is 5×q2.
	a, err := NewSeller(DefaultConfig(2), 500, []float64{400, 100})
	if err != nil {
		t.Fatal(err)
	}
	if !a.PlannedSupply().IsZero() {
		t.Fatalf("planned %v before the first period", a.PlannedSupply())
	}
	a.BeginPeriod()
	if want := (vector.Quantity{0, 5}); !a.PlannedSupply().Equal(want) {
		t.Errorf("planned supply %v, want %v", a.PlannedSupply(), want)
	}
}

func TestOfferAcceptConsumesSupply(t *testing.T) {
	a := newTestSeller(t, DefaultConfig(2), 500, 400, 100)
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
	a := newTestSeller(t, cfg, 500, 400, 100)
	p0 := a.Prices()
	// Class 0 is not in the supply vector and pricing is active: the
	// request is refused and its price rises by λ·p.
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
	a := newTestSeller(t, cfg, 500, 400, 100) // supply (0,5), nothing sold
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
	if a.Carry() != 500 {
		t.Errorf("carry = %g, want the unsold 500 ms", a.Carry())
	}
}

func TestPriceFloorAndCap(t *testing.T) {
	cfg := DefaultConfig(1)
	cfg.PriceFloor = 0.5
	cfg.PriceCap = 2
	a := newTestSeller(t, cfg, 500, 600) // class does not fit the first period: always rejected
	for i := 0; i < 100; i++ {
		a.Offer(0)
	}
	if p := a.Prices()[0]; p > cfg.PriceCap {
		t.Errorf("price %g exceeds cap %g", p, cfg.PriceCap)
	}
	// Now drive the price down with unsold periods (savings only make
	// more of them unsold).
	b := newTestSeller(t, cfg, 500, 100)
	for i := 0; i < 100; i++ {
		b.BeginPeriod()
		b.EndPeriod()
	}
	if p := b.Prices()[0]; p < cfg.PriceFloor {
		t.Errorf("price %g below floor %g", p, cfg.PriceFloor)
	}
}

func TestMarketDynamicsShiftSupply(t *testing.T) {
	// The Section 3.3 narrative: N1 initially supplies only q2; if q1
	// demand keeps failing, q1's price rises until N1 starts supplying
	// q1 as well.
	a := newTestSeller(t, DefaultConfig(2), 500, 400, 100)
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
	a := newTestSeller(t, DefaultConfig(1), 500, 100)
	defer func() {
		if recover() == nil {
			t.Fatal("out-of-range class did not panic")
		}
	}()
	a.Offer(5)
}
