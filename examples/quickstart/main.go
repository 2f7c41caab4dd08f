// Quickstart: a minimal QA-NT market on a single node.
//
// It reproduces the paper's Section 3.3 narrative on the Figure 1
// system: node N1 evaluates q1 in 400 ms and q2 in 100 ms per query
// with a 500 ms period. With equal prices N1 supplies only q2 (the
// denser class); when q1 demand keeps failing, q1's price rises until
// N1 starts supplying q1 too.
package main

import (
	"fmt"
	"log"

	"github.com/qamarket/qamarket/internal/market"
)

func main() {
	// N1's seller: every 500 ms period it can sell any mix of q1
	// (400 ms) and q2 (100 ms) queries that fits the period.
	seller, err := market.NewSeller(market.DefaultConfig(2), 500, []float64{400, 100})
	if err != nil {
		log.Fatal(err)
	}

	for period := 1; period <= 12; period++ {
		seller.BeginPeriod()
		supply := seller.PlannedSupply()
		fmt.Printf("period %2d: prices %v supply %v", period, seller.Prices(), supply)
		if supply[0] > 0 {
			fmt.Println("  <- q1 entered the supply vector")
			return
		}
		fmt.Println()

		// Demand this period: four q1 requests (all fail: no q1 supply,
		// so each failure raises q1's price) and buyers for all the q2
		// supply (so q2's price holds).
		for i := 0; i < 4; i++ {
			seller.Offer(0)
		}
		for seller.Offer(1) {
			if err := seller.Accept(1); err != nil {
				log.Fatal(err)
			}
		}
		seller.EndPeriod()
	}
	fmt.Println("q1 never entered the supply vector (unexpected)")
}
