package economics

import (
	"testing"

	"github.com/qamarket/qamarket/internal/vector"
)

// TestTatonnementLambdaTradeoff reproduces the λ trade-off of eq. (6)
// and the convergence caveats of Mukherji [11]: with a small step the
// umpire converges; with an absurdly large one the price recursion
// overshoots and cycles, exhausting the iteration budget.
func TestTatonnementLambdaTradeoff(t *testing.T) {
	demand := []vector.Quantity{{1, 5}, {0, 0}}
	sets := []TimeBudgetSupplySet{
		TimeBudgetSupplySet{Cost: []float64{400, 100}, Budget: 500},
		TimeBudgetSupplySet{Cost: []float64{450, 500}, Budget: 500},
	}
	small := TatonnementConfig{Lambda: 0.05, MaxIterations: 5000, Tolerance: 0}
	resSmall, err := Tatonnement(demand, sets, vector.NewPrices(2, 1), small)
	if err != nil {
		t.Fatalf("small lambda failed to converge: %v (excess %v)", err, resSmall.Excess)
	}

	// Integer supply sets flip between knapsack vertices; a huge step
	// bounces the prices across the flip boundary every iteration.
	huge := TatonnementConfig{Lambda: 64, MaxIterations: 400, Tolerance: 0}
	// Use a demand no vertex matches so the process must balance two
	// classes at once — the regime where overshoot cycles.
	hardDemand := []vector.Quantity{{1, 3}, {0, 0}}
	hardSets := []TimeBudgetSupplySet{TimeBudgetSupplySet{Cost: []float64{200, 100}, Budget: 500}}
	if _, err := Tatonnement(hardDemand, hardSets, vector.NewPrices(2, 1), huge); err == nil {
		t.Error("vertex-incompatible demand with huge lambda should not converge")
	}
	// The same impossible demand also fails with a small step (it is
	// unreachable, not merely unstable) — the paper's rounding-error
	// discussion in Section 5.1.
	if _, err := Tatonnement(hardDemand, hardSets, vector.NewPrices(2, 1), small); err == nil {
		t.Error("vertex-incompatible demand should be unreachable at any lambda")
	}
}

// TestTatonnementIterationCount confirms the monotone part of the
// trade-off: a larger (but still stable) step reaches equilibrium in
// fewer iterations on the Figure 1 market.
func TestTatonnementIterationCount(t *testing.T) {
	demand := []vector.Quantity{{1, 5}, {0, 0}}
	sets := []TimeBudgetSupplySet{
		TimeBudgetSupplySet{Cost: []float64{400, 100}, Budget: 500},
		TimeBudgetSupplySet{Cost: []float64{450, 500}, Budget: 500},
	}
	// Make the starting point far from equilibrium so iterations matter.
	p0 := vector.Prices{8, 0.1}
	iters := func(lambda float64) int {
		cfg := TatonnementConfig{Lambda: lambda, MaxIterations: 100000, Tolerance: 0}
		res, err := Tatonnement(demand, sets, p0, cfg)
		if err != nil {
			t.Fatalf("lambda %g: %v", lambda, err)
		}
		return res.Iterations
	}
	slow := iters(0.01)
	fast := iters(0.2)
	if fast >= slow {
		t.Errorf("larger lambda not faster: %d iterations at 0.2 vs %d at 0.01", fast, slow)
	}
}
