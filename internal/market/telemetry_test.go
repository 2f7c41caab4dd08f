package market

import (
	"reflect"
	"testing"
)

func TestAgentTelemetry(t *testing.T) {
	a := newTestSeller(t, Config{Lambda: 0.1}, 300, 100, 100)
	if !a.Offer(0) {
		t.Fatal("offer 0 refused")
	}
	if err := a.Accept(0); err != nil {
		t.Fatalf("Accept: %v", err)
	}
	// Burn class 1's supply, then force a trading failure (price up).
	for a.Offer(1) {
		if err := a.Accept(1); err != nil {
			t.Fatalf("Accept: %v", err)
		}
	}

	tel := a.Telemetry()
	if tel.Classes != 2 || !tel.Active {
		t.Fatalf("telemetry header = %+v", tel)
	}
	if len(tel.Prices) != 2 || len(tel.Planned) != 2 || len(tel.Remaining) != 2 || len(tel.Accepted) != 2 {
		t.Fatalf("telemetry vectors wrong length: %+v", tel)
	}
	if tel.Prices[1] <= tel.Prices[0] {
		t.Fatalf("class 1 failed a trade, its price must exceed class 0: %v", tel.Prices)
	}
	if tel.Accepted[0] != 1 {
		t.Fatalf("accepted[0] = %d, want 1", tel.Accepted[0])
	}
	if tel.Rejects != 1 || tel.PriceUps != 1 {
		t.Fatalf("counters = %+v", tel)
	}
	if tel.Offers != tel.Accepts {
		t.Fatalf("every offer was accepted: %+v", tel)
	}
	for k := range tel.Planned {
		if tel.Remaining[k] != tel.Planned[k]-tel.Accepted[k] {
			t.Fatalf("remaining[%d] inconsistent: %+v", k, tel)
		}
	}

	// The snapshot is a copy: mutating it must not touch the seller.
	tel.Prices[0] = 999
	tel.Remaining[0] = 999
	if a.Prices()[0] == 999 || a.supply[0] == 999 {
		t.Fatal("telemetry mutation leaked into the seller")
	}

	// Telemetry agrees with the accessor API it aggregates.
	tel2 := a.Telemetry()
	if !reflect.DeepEqual(tel2.Prices, []float64(a.Prices())) {
		t.Fatalf("prices diverge: %v vs %v", tel2.Prices, a.Prices())
	}
	if !reflect.DeepEqual(tel2.Remaining, []int(a.supply)) {
		t.Fatalf("remaining diverges: %v vs %v", tel2.Remaining, a.supply)
	}
	if tel2.Stats != a.Stats() {
		t.Fatalf("stats diverge: %+v vs %+v", tel2.Stats, a.Stats())
	}

	a.EndPeriod()
	if got := a.Telemetry().Periods; got != 1 {
		t.Fatalf("periods after EndPeriod = %d, want 1", got)
	}
}
