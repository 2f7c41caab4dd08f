// Pricedynamics: trace the non-tâtonnement price process and compare
// it against the centralized tâtonnement reference.
//
// A two-node market (the Figure 1 system) faces a steady demand of one
// q1 and five q2 per period. The umpire-based tâtonnement process of
// eq. (6) finds the equilibrium prices centrally; the decentralized
// QA-NT agents converge to a supply profile with the same aggregate by
// reacting only to their own trading failures (Proposition 3.1). Both
// are the paper's agents (market.NewAgent): each period is the same
// supply set S_i, and nothing is saved from one period to the next.
package main

import (
	"fmt"
	"log"

	"github.com/qamarket/qamarket/internal/economics"
	"github.com/qamarket/qamarket/internal/market"
	"github.com/qamarket/qamarket/internal/vector"
)

func main() {
	costs := [][]float64{
		{400, 100}, // N1
		{450, 500}, // N2
	}
	demand := []vector.Quantity{{1, 5}, {0, 0}} // steady per-period demand

	// Centralized reference: the umpire's tâtonnement.
	sets := []economics.TimeBudgetSupplySet{
		economics.TimeBudgetSupplySet{Cost: costs[0], Budget: 500},
		economics.TimeBudgetSupplySet{Cost: costs[1], Budget: 500},
	}
	res, err := economics.Tatonnement(demand, sets, vector.NewPrices(2, 1), economics.DefaultTatonnement())
	if err != nil {
		log.Fatalf("tâtonnement: %v", err)
	}
	fmt.Printf("tâtonnement equilibrium after %d iterations: prices %v, aggregate supply %v\n\n",
		res.Iterations, res.Prices, vector.Sum(res.Supply))

	// Decentralized QA-NT: each node adjusts only its own prices.
	agents := make([]*market.Seller, 2)
	for i := range agents {
		s, err := market.NewAgent(sets[i], market.DefaultConfig(2))
		if err != nil {
			log.Fatal(err)
		}
		agents[i] = s
	}
	fmt.Println("period |       N1 prices       supply |       N2 prices       supply | unserved")
	const periods = 15
	onlyQ2, withQ1, unserved := 0, 0, 0 // periods N1 planned q2 alone and N2 planned some q1; queries nobody took
	for period := 1; period <= periods; period++ {
		for _, s := range agents {
			s.BeginPeriod()
		}
		// Serve the period's demand: for each query, take the first
		// offering node (clients are indifferent here).
		missed := 0
		for class, want := range []int{1, 5} {
			for q := 0; q < want; q++ {
				served := false
				for _, s := range agents {
					if s.Offer(class) {
						if err := s.Accept(class); err != nil {
							log.Fatal(err)
						}
						served = true
						break
					}
				}
				if !served {
					missed++
				}
			}
		}
		fmt.Printf("%6d | %s %v | %s %v | %8d\n",
			period,
			agents[0].Prices(), agents[0].PlannedSupply(),
			agents[1].Prices(), agents[1].PlannedSupply(),
			missed)
		unserved += missed
		if p := agents[0].PlannedSupply(); p[0] == 0 && p[1] > 0 {
			onlyQ2++
		}
		if agents[1].PlannedSupply()[0] > 0 {
			withQ1++
		}
		for _, s := range agents {
			s.EndPeriod()
		}
	}
	fmt.Printf("\nN1 planned q2 alone in %d of %d periods, N2 planned q1 in %d; %d queries went unserved:\n",
		onlyQ2, periods, withQ1, unserved)
	fmt.Println("both processes steer N1 toward q2 and N2 toward q1 — the")
	fmt.Println("allocation of Figure 1's QA strategy — without exchanging prices.")
}
