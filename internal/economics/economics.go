// Package economics implements the microeconomic machinery of Section 3
// of the paper: excess demand (Def. 2), market competitive equilibrium
// (Def. 3), the centralized tâtonnement process of eq. (6) and Pareto
// dominance/optimality (Def. 1).
//
// The package is deliberately independent of query processing. It
// speaks the one supply set and the one preference the paper's query
// market has: S_i is what fits a period's time budget at per-class
// costs (TimeBudgetSupplySet), and a node prefers consuming more
// queries (ThroughputPreference). Its properties are tested against
// the paper's textbook examples as well as the query market built on
// top of it by internal/market.
package economics

import (
	"errors"

	"github.com/qamarket/qamarket/internal/vector"
)

// ThroughputPreference is the preference relation >=_i of Section 2.2
// the paper adopts for every node: a node prefers consuming as many
// queries as possible regardless of their class (c >=_i c' iff
// sum(c) >= sum(c')). It returns +1 if a is strictly preferred to b, 0
// if the node is indifferent and -1 if b is strictly preferred to a.
func ThroughputPreference(a, b vector.Quantity) int {
	ta, tb := a.Total(), b.Total()
	switch {
	case ta > tb:
		return 1
	case ta < tb:
		return -1
	default:
		return 0
	}
}

// Allocation is a candidate solution <[s_i],[c_i]> to the QA problem.
type Allocation struct {
	Supply      []vector.Quantity // s_i, one per node
	Consumption []vector.Quantity // c_i, one per node
}

// Clone deep-copies the allocation.
func (a Allocation) Clone() Allocation {
	out := Allocation{
		Supply:      make([]vector.Quantity, len(a.Supply)),
		Consumption: make([]vector.Quantity, len(a.Consumption)),
	}
	for i := range a.Supply {
		out.Supply[i] = a.Supply[i].Clone()
	}
	for i := range a.Consumption {
		out.Consumption[i] = a.Consumption[i].Clone()
	}
	return out
}

// AggregateSupply returns s = sum_i s_i (eq. 1).
func (a Allocation) AggregateSupply() vector.Quantity { return vector.Sum(a.Supply) }

// Dominates implements Def. 1: allocation a Pareto dominates b iff
// every node weakly prefers a's consumption vector under
// ThroughputPreference and at least one strictly prefers it.
func Dominates(a, b Allocation) bool {
	if len(a.Consumption) != len(b.Consumption) {
		return false
	}
	strict := false
	for i := range a.Consumption {
		switch ThroughputPreference(a.Consumption[i], b.Consumption[i]) {
		case -1:
			return false
		case 1:
			strict = true
		}
	}
	return strict
}

// ExcessDemand computes z(p) of Def. 2 given per-node demand and supply
// vectors: z_k = sum_i d_ik - s_ik. Note that prices enter only through
// the supply vectors, which callers obtain from
// TimeBudgetSupplySet.BestResponse.
func ExcessDemand(demand, supply []vector.Quantity) vector.Quantity {
	d := vector.Sum(demand)
	s := vector.Sum(supply)
	return d.Sub(s)
}

// TatonnementConfig controls the centralized umpire iteration of eq. (6).
type TatonnementConfig struct {
	// Lambda is the price-adjustment step λ of eq. (6). Must be > 0.
	Lambda float64
	// MaxIterations bounds the umpire loop.
	MaxIterations int
	// Tolerance stops the loop once every |z_k| <= Tolerance. The classic
	// process demands z = 0 exactly; with integer supply sets a small
	// residual may persist, mirroring the rounding errors Section 5.1
	// discusses.
	Tolerance int
}

// DefaultTatonnement returns the configuration used by the reference
// experiments: λ=0.05, at most 10,000 iterations, exact equilibrium.
func DefaultTatonnement() TatonnementConfig {
	return TatonnementConfig{Lambda: 0.05, MaxIterations: 10000, Tolerance: 0}
}

// ErrNoConvergence is returned by Tatonnement when the iteration budget
// is exhausted before reaching (approximate) equilibrium.
var ErrNoConvergence = errors.New("economics: tâtonnement did not converge")

// TatonnementResult reports the outcome of the umpire process.
type TatonnementResult struct {
	Prices     vector.Prices     // final price vector p*
	Supply     []vector.Quantity // best responses at p*
	Excess     vector.Quantity   // residual excess demand z(p*)
	Iterations int
}

// Tatonnement runs the classical centralized price-adjustment process of
// eq. (6): the umpire announces prices, collects best-response supply
// vectors, and sets p(t+1) = p(t) + λ z(p(t)) until excess demand
// vanishes. It exists as the centralized reference against which the
// decentralized QA-NT agent (internal/market) is validated.
//
// Demanded quantities are capped at demand when computing excess so that
// over-supplied classes push prices down, matching Def. 2 with the
// convention s_ik counts offered capacity.
func Tatonnement(demand []vector.Quantity, sets []TimeBudgetSupplySet, p0 vector.Prices, cfg TatonnementConfig) (TatonnementResult, error) {
	if cfg.Lambda <= 0 {
		return TatonnementResult{}, errors.New("economics: lambda must be positive")
	}
	if len(demand) == 0 || len(sets) == 0 {
		return TatonnementResult{}, errors.New("economics: need at least one node")
	}
	p := p0.Clone()
	k := p.Len()
	var res TatonnementResult
	for it := 0; it < cfg.MaxIterations; it++ {
		supply := make([]vector.Quantity, len(sets))
		for i, s := range sets {
			supply[i] = s.BestResponse(p)
		}
		z := ExcessDemand(demand, supply)
		res = TatonnementResult{Prices: p.Clone(), Supply: supply, Excess: z, Iterations: it + 1}
		if maxAbs(z) <= cfg.Tolerance {
			return res, nil
		}
		for j := 0; j < k; j++ {
			// Multiplicative form of eq. (6): the step is proportional to
			// the current price so prices cannot cross zero.
			p[j] += cfg.Lambda * p[j] * sign(z[j])
			if p[j] < 1e-9 {
				p[j] = 1e-9
			}
		}
		p.Normalize()
	}
	return res, ErrNoConvergence
}

func maxAbs(q vector.Quantity) int {
	m := 0
	for _, v := range q {
		if v < 0 {
			v = -v
		}
		if v > m {
			m = v
		}
	}
	return m
}

func sign(v int) float64 {
	switch {
	case v > 0:
		return 1
	case v < 0:
		return -1
	default:
		return 0
	}
}
