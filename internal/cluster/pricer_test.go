package cluster

import (
	"testing"

	"github.com/qamarket/qamarket/internal/market"
)

func newTestPricer(t *testing.T, cfg market.Config, periodMs float64) *pricer {
	t.Helper()
	p, err := newPricer(cfg, periodMs)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// TestCarrySurvivesMidPeriodRebuild is the regression test for the
// carry-accounting bug: a mid-period re-plan (class discovery or cost
// drift) used to forget the work accepted so far — the next tick then
// computed used=0 and credited carry with capacity that was actually
// spent. Carry must be identical whether or not a re-plan happened
// mid-period. (The ledger itself is market.Seller's and is tested
// there; this drives it through offer, the server's only way in.)
func TestCarrySurvivesMidPeriodRebuild(t *testing.T) {
	const periodMs = 100
	drive := func(rebuild func(p *pricer)) float64 {
		p := newTestPricer(t, market.DefaultConfig(1), periodMs)
		for i := 0; i < 3; i++ {
			if !p.offer("classA", 20) {
				t.Fatalf("offer %d refused with supply available", i)
			}
			if !p.accept("classA") {
				t.Fatalf("accept %d failed with supply available", i)
			}
		}
		if rebuild != nil {
			rebuild(p)
		}
		p.tick()
		return p.telemetry().CarryMs
	}
	base := drive(nil) // 3×20ms accepted: carry = 100 − 60 = 40
	cases := []struct {
		name    string
		rebuild func(p *pricer)
	}{
		{"class arrival", func(p *pricer) { p.offer("classB", 10) }},
		// Drift refreshes the estimate, but the work already accepted was
		// priced (and performed) under the old estimate: used must still
		// charge 3×20ms, not 3×40ms and not zero.
		{"cost drift", func(p *pricer) { p.offer("classA", 40) }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			before := drive(tc.rebuild)
			if before != base {
				t.Fatalf("mid-period rebuild (%s) changed carry: %.1f, want %.1f",
					tc.name, before, base)
			}
		})
	}
}

// TestRebuildReplansRemainingCapacity checks the other half of the
// carry fix: the rebuilt agent must plan only the capacity still
// unspent this period, not a fresh full budget on top of work already
// accepted.
func TestRebuildReplansRemainingCapacity(t *testing.T) {
	p := newTestPricer(t, market.DefaultConfig(1), 100)
	for i := 0; i < 3; i++ {
		if !p.offer("classA", 20) || !p.accept("classA") {
			t.Fatalf("warm-up accept %d failed", i)
		}
	}
	p.offer("classB", 10) // rebuild with 60ms already spent
	plannedMs := 0.0
	for _, c := range p.telemetry().Classes {
		plannedMs += float64(c.Planned) * c.CostMs
	}
	if plannedMs > 40+1e-9 {
		t.Fatalf("rebuilt agent planned %.1fms with only 40ms of the period left", plannedMs)
	}
}

// TestDriftFloorZeroCostClass is the regression test for the drift
// threshold: with a stored cost of 0 the pure relative test
// |Δ| > cost·0.25 degenerates to |Δ| > 0, so any nonzero estimate
// re-planned the period on every single request. Sub-floor jitter must
// not re-cost; genuine drift still must.
func TestDriftFloorZeroCostClass(t *testing.T) {
	p := newTestPricer(t, market.DefaultConfig(1), 100)
	p.offer("free", 0)
	for i := 0; i < 8; i++ {
		p.offer("free", 0.2) // estimate jitter below the absolute floor
	}
	if got := p.telemetry().Classes[0].CostMs; got != 0 {
		t.Fatalf("sub-floor cost jitter on a zero-cost class re-costed it to %g", got)
	}
	p.offer("free", 50) // real drift: both floor and relative bands exceeded
	if got := p.telemetry().Classes[0].CostMs; got != 50 {
		t.Fatalf("genuine cost drift left the class at %gms, want 50", got)
	}
}

// TestObserveKeepsStatsMonotoneAndAdjustCap pins the bug the shared
// seller fixes by construction: offer used to replace the agent on a
// class arrival or a cost drift, which zeroed its lifetime Stats (the
// autoscaler read that as a node restart; benchmark window deltas could
// go negative) and its per-period adjustment counts (a second raise
// landed in the same period under MaxAdjustsPerPeriod 1).
func TestObserveKeepsStatsMonotoneAndAdjustCap(t *testing.T) {
	for _, tc := range []struct {
		name   string
		sig    string  // what is requested mid-period
		costMs float64 // and at what cost estimate
		costA  float64 // class a's cost estimate afterwards
	}{
		{"class arrival", "b", 10, 20},
		{"cost drift", "a", 400, 400},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cfg := market.DefaultConfig(1)
			cfg.MaxAdjustsPerPeriod = 1
			p := newTestPricer(t, cfg, 100)
			for i := 0; i < 2; i++ {
				if !p.offer("a", 20) || !p.accept("a") {
					t.Fatalf("warm-up accept %d failed", i)
				}
			}
			p.tick() // a period with unsold supply: Periods, Unsold, PriceDns move
			// 160ms of budget now: 8 sell, 4 are refused.
			for i := 0; i < 12; i++ {
				if p.offer("a", 20) {
					p.accept("a")
				}
			}
			before := p.telemetry()
			if before.Stats.Rejects == 0 || before.Stats.PriceUps != 1 {
				t.Fatalf("setup: want refusals and exactly one raise, got %+v", before.Stats)
			}
			p.offer(tc.sig, tc.costMs)
			if p.offer("a", tc.costA) {
				t.Fatal("class a offered with the period's budget spent")
			}
			after := p.telemetry()
			b, a := before.Stats, after.Stats
			if a.Periods < b.Periods || a.Offers < b.Offers || a.Accepts < b.Accepts ||
				a.Rejects <= b.Rejects || a.Unsold < b.Unsold || a.PriceUps < b.PriceUps || a.PriceDns < b.PriceDns {
				t.Errorf("lifetime stats went backwards:\nbefore %+v\n after %+v", b, a)
			}
			priceOf := func(tel MarketTelemetry) float64 {
				for _, c := range tel.Classes {
					if c.Signature == "a" {
						return c.Price
					}
				}
				t.Fatal("class a missing from telemetry")
				return 0
			}
			if got, want := priceOf(after), priceOf(before); got != want {
				t.Errorf("second raise in one period under MaxAdjustsPerPeriod 1: price %g, want %g", got, want)
			}
		})
	}
}
