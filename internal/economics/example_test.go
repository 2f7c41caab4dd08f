package economics_test

import (
	"fmt"

	"github.com/qamarket/qamarket/internal/economics"
	"github.com/qamarket/qamarket/internal/vector"
)

// ExampleTatonnement finds equilibrium prices for the paper's Figure 1
// two-node market under a steady demand of one q1 and five q2.
func ExampleTatonnement() {
	demand := []vector.Quantity{{1, 5}, {0, 0}}
	sets := []economics.SupplySet{
		economics.TimeBudgetSupplySet{Cost: []float64{400, 100}, Budget: 500}, // N1
		economics.TimeBudgetSupplySet{Cost: []float64{450, 500}, Budget: 500}, // N2
	}
	res, err := economics.Tatonnement(demand, sets, vector.NewPrices(2, 1), economics.DefaultTatonnement())
	if err != nil {
		fmt.Println("no equilibrium:", err)
		return
	}
	fmt.Println("aggregate supply:", vector.Sum(res.Supply))
	fmt.Println("excess demand:", res.Excess)
	// Output:
	// aggregate supply: (1, 5)
	// excess demand: (0, 0)
}

// ExampleDominates verifies the paper's Section 2.2 claim that the QA
// allocation Pareto-dominates the load balancer's.
func ExampleDominates() {
	prefs := []economics.Preference{economics.ThroughputPreference, economics.ThroughputPreference}
	lb := economics.Allocation{Consumption: []vector.Quantity{{1, 1}, {1, 0}}}
	qa := economics.Allocation{Consumption: []vector.Quantity{{0, 5}, {1, 0}}}
	fmt.Println(economics.Dominates(qa, lb, prefs))
	// Output:
	// true
}
