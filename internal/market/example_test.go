package market_test

import (
	"fmt"

	"github.com/qamarket/qamarket/internal/market"
)

// ExampleSeller walks one full market period of the paper's node N1
// (400 ms q1, 100 ms q2, 500 ms period).
func ExampleSeller() {
	seller, _ := market.NewSeller(market.DefaultConfig(2), 500, []float64{400, 100})

	seller.BeginPeriod()
	fmt.Println("supply:", seller.PlannedSupply())

	// A client asks for one q2: offered and accepted.
	if seller.Offer(1) {
		_ = seller.Accept(1)
	}
	// A client asks for one q1: refused (not in the supply vector), so
	// q1's private price rises by λ·p.
	seller.Offer(0)
	fmt.Println("prices after refusal:", seller.Prices())

	// Period ends with 4 unsold q2: its price falls by 4·λ·p, and the
	// 400 ms left unsold are saved for the next period.
	seller.EndPeriod()
	fmt.Println("prices after settlement:", seller.Prices())
	fmt.Println("carry:", seller.Carry())
	seller.BeginPeriod()
	fmt.Println("next supply:", seller.PlannedSupply())
	// Output:
	// supply: (0, 5)
	// prices after refusal: (1.100, 1.000)
	// prices after settlement: (1.100, 0.600)
	// carry: 400
	// next supply: (0, 9)
}
