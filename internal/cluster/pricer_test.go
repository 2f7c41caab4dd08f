package cluster

import (
	"fmt"
	"testing"
	"time"

	"github.com/qamarket/qamarket/internal/engine"
	"github.com/qamarket/qamarket/internal/market"
	"github.com/qamarket/qamarket/internal/sqldb"
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
// go negative) and its learned prices. Each refusal after the change
// raises the learned price by one step of λ.
func TestObserveKeepsStatsMonotoneAndAdjustCap(t *testing.T) {
	for _, tc := range []struct {
		name   string
		sig    string  // what is requested mid-period
		costMs float64 // and at what cost estimate
		costA  float64 // class a's cost estimate afterwards
		raises int     // refusals of class a from then on
	}{
		{"class arrival", "b", 10, 20, 1},
		{"cost drift", "a", 400, 400, 2},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cfg := market.DefaultConfig(1)
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
			if before.Stats.Rejects == 0 || before.Stats.PriceUps != before.Stats.Rejects {
				t.Fatalf("setup: want refusals and one raise for each, got %+v", before.Stats)
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
			want := priceOf(before)
			for i := 0; i < tc.raises; i++ {
				want += cfg.Lambda * want
			}
			if got := priceOf(after); got != want {
				t.Errorf("class a's price is %g after %d refusals, want %g: the change lost the learned price", got, tc.raises, want)
			}
		})
	}
}

// TestTelemetryKeepsThePeriodsSales: learning a class (or re-costing
// one) mid-period re-plans the seller, which used to zero the period's
// per-class sales — so ClassTelemetry.Accepted, qa_market_accepted and
// the autoscaler's accepted-weighted cost and price lost them on every
// period in which a node met a new signature.
func TestTelemetryKeepsThePeriodsSales(t *testing.T) {
	p := newTestPricer(t, market.DefaultConfig(1), 100)
	for i := 0; i < 2; i++ {
		if !p.offer("a", 20) || !p.accept("a") {
			t.Fatalf("sale %d failed", i)
		}
	}
	p.offer("b", 50) // a new signature: AddClass, then a re-plan
	p.offer("a", 40) // drift: Recost, then a re-plan
	for _, c := range p.telemetry().Classes {
		if want := map[string]int{"a": 2, "b": 0}[c.Signature]; c.Accepted != want {
			t.Errorf("class %s: telemetry reads %d sales this period, want %d", c.Signature, c.Accepted, want)
		}
	}
}

// TestNodeNeverOversellsAcrossActivation checks "supply never oversold
// within a period" on the server path, in the Section 5.1 threshold
// regime the real-federation harnesses run: a real node sells work off
// its plan while its pricing is inactive, refusals push a price over
// the threshold mid-period, and what MarketTelemetry says the period
// sold must still fit the period's budget. (An inactive agent used to
// admit against a second counter, so the plan it enforced after the
// flip sold the off-plan milliseconds again.)
func TestNodeNeverOversellsAcrossActivation(t *testing.T) {
	// The node runs on a fake clock that moves only when a sale's
	// execution needs it to, by exactly the sale's cost. One period
	// outlasts every sale, so the market moves only when the script moves
	// it; the node starts the period restored deep in debt, with leftMs
	// to sell.
	const periodMs, leftMs = 60_000, 256
	db := sqldb.Open()
	for _, q := range []string{"CREATE TABLE t (a INT)", "CREATE TABLE u (a INT)"} {
		if _, _, err := db.Exec(q); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 4+16; i++ {
		tbl := "t" // 4 rows in t, 16 in u
		if i >= 4 {
			tbl = "u"
		}
		if _, _, err := db.Exec(fmt.Sprintf("INSERT INTO %s VALUES (%d)", tbl, i)); err != nil {
			t.Fatal(err)
		}
	}
	const cheap, dear = "SELECT a FROM t", "SELECT a FROM u" // 16 ms and 64 ms at 2 ms a cost unit
	cfg := market.DefaultConfig(1)
	cfg.Lambda, cfg.ActivationThreshold = 0.3, 1.5 // two refusals activate pricing
	clk := newFakeClock()
	n, err := StartNode("127.0.0.1:0", NodeConfig{network: newMemNet(clk), Driver: engine.FromDB(db), MsPerCostUnit: 2, PeriodMs: periodMs, Market: cfg, clock: clk})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { n.CloseNow() })
	if err := n.pricer.restore(PricerState{Snapshot: market.Snapshot{Carry: leftMs - periodMs}}); err != nil {
		t.Fatal(err)
	}
	c, err := NewClient(ClientConfig{
		network: memWall,
		Addrs:   []string{n.Addr()}, Mechanism: MechQANT,
		PeriodMs: 1, MaxRetries: 1, Timeout: 10 * time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(c.Close)

	// cheap is met first and gets the plan; dear is then on offer only
	// because pricing is inactive and it still fits. A sold query parks
	// the executor on the clock beside the period and gossip tickers;
	// advancing its estimate runs it, so its execution history is its
	// plan's cost and no class is ever re-costed.
	id := int64(0)
	buy := func(sql string) bool {
		id++
		fin := make(chan error, 1)
		go func() { fin <- c.Run(id, sql).Err }()
		select {
		case err := <-fin:
			return err == nil
		case <-clk.armed(3):
		}
		_, estMs, _, err := n.estimate(sql)
		if err != nil {
			t.Fatal(err)
		}
		clk.advance(time.Duration(estMs * float64(time.Millisecond)))
		return <-fin == nil
	}
	if !buy(cheap) || !buy(dear) || !buy(dear) {
		t.Fatal("inactive node refused work that fits what is left")
	}
	if n.MarketTelemetry().Active {
		t.Fatal("pricing active before any refusal")
	}
	// Demand for cheap until the node has refused it well past the two
	// refusals that cross the threshold.
	for refused := 0; refused < 4 && id < 200; {
		if !buy(cheap) {
			refused++
		}
	}
	tel := n.MarketTelemetry()
	if !tel.Active {
		t.Fatalf("refusals never activated pricing: %+v", tel)
	}
	soldMs, sales := 0.0, 0
	for _, cl := range tel.Classes {
		soldMs += float64(cl.Accepted) * cl.CostMs
		sales += cl.Accepted
	}
	if sales != int(n.Executed()) || sales < 4 {
		t.Errorf("telemetry counts %d sales this period, the node executed %d", sales, n.Executed())
	}
	if budget := periodMs + tel.CarryMs; soldMs > budget+1e-9 {
		t.Errorf("the period sold %.0f ms of a %.0f ms budget: %+v", soldMs, budget, tel.Classes)
	}
	// A period that sold no more than it had closes without debt.
	n.pricer.tick()
	if carry := n.MarketTelemetry().CarryMs; carry < -1e-9 {
		t.Errorf("the period closed %.0f ms in debt: it sold past its budget", -carry)
	}
}

// TestZeroMsPerCostUnitMeansOne pins MsPerCostUnit's default: left at 0
// it is 1, not "no stretch". The factor also turns a plan's cost into
// the estimate the seller prices, and the seller cannot evaluate a class
// that costs nothing, so at a true 0 a QA-NT node would refuse every
// query and never execute one to learn a history from. Left at 0, a
// QA-NT node offers and sells a one-row query.
func TestZeroMsPerCostUnitMeansOne(t *testing.T) {
	db := sqldb.Open()
	for _, q := range []string{"CREATE TABLE t (a INT)", "INSERT INTO t VALUES (1)"} {
		if _, _, err := db.Exec(q); err != nil {
			t.Fatal(err)
		}
	}
	clk := newFakeClock()
	n, err := StartNode("127.0.0.1:0", NodeConfig{network: newMemNet(clk), Driver: engine.FromDB(db), clock: clk})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { n.CloseNow() })
	if n.cfg.MsPerCostUnit != 1 {
		t.Fatalf("MsPerCostUnit left at 0 became %g, want 1", n.cfg.MsPerCostUnit)
	}
	c, err := NewClient(ClientConfig{network: memWall, Addrs: []string{n.Addr()}, Mechanism: MechQANT, MaxRetries: 1, PeriodMs: 1})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(c.Close)
	const sql = "SELECT a FROM t"
	_, estMs, _, err := n.estimate(sql)
	if err != nil || estMs <= 0 {
		t.Fatalf("estimate %gms (err %v), want a positive cost", estMs, err)
	}
	done := make(chan Outcome, 1)
	go func() { done <- c.Run(1, sql) }()
	select {
	case out := <-done:
		t.Fatalf("the query never reached execution: %v", out.Err)
	case <-clk.armed(3): // the period and gossip tickers, and the execution stretch
	}
	clk.advance(time.Duration(estMs * float64(time.Millisecond)))
	if out := <-done; out.Err != nil || out.Rows != 1 {
		t.Fatalf("rows %d, err %v; want the one row", out.Rows, out.Err)
	}
	if st := n.MarketTelemetry().Stats; st.Offers != 1 || st.Accepts != 1 {
		t.Errorf("market offered %d and sold %d, want 1 and 1", st.Offers, st.Accepts)
	}
}
