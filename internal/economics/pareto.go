package economics

import (
	"github.com/qamarket/qamarket/internal/vector"
)

// EnumerableSupplySet extends SupplySet with exhaustive enumeration of
// its elements, enabling brute-force Pareto verification on small
// markets (used by tests and by the Figure 1/2 re-enactments).
type EnumerableSupplySet interface {
	SupplySet
	// Enumerate returns every feasible supply vector. The slice must not
	// be mutated by callers.
	Enumerate() []vector.Quantity
}

// IsParetoOptimal reports whether alloc is Pareto optimal (Def. 1) with
// respect to the given demand vectors, enumerable supply sets and
// preference relations, by exhaustively searching for a dominating
// feasible allocation. Exponential in the number of nodes; intended for
// the small instances used in verification.
func IsParetoOptimal(alloc Allocation, demand []vector.Quantity, sets []EnumerableSupplySet, prefs []Preference) bool {
	dom := FindDominating(alloc, demand, sets, prefs)
	return dom == nil
}

// FindDominating searches for a feasible allocation that Pareto
// dominates alloc; it returns nil if none exists. Feasibility follows
// Section 2.2: each node's supply comes from its supply set, the
// aggregate supply equals the aggregate consumption, and each node's
// consumption is bounded by its demand.
func FindDominating(alloc Allocation, demand []vector.Quantity, sets []EnumerableSupplySet, prefs []Preference) *Allocation {
	choices := make([][]vector.Quantity, len(sets))
	for i, s := range sets {
		choices[i] = s.Enumerate()
	}
	idx := make([]int, len(sets))
	supply := make([]vector.Quantity, len(sets))
	for {
		for i := range sets {
			supply[i] = choices[i][idx[i]]
		}
		agg := vector.Sum(supply)
		if cons := findDominatingSplit(agg, demand, alloc.Consumption, prefs); cons != nil {
			cand := Allocation{Supply: supply, Consumption: cons}
			if Dominates(cand, alloc, prefs) {
				out := cand.Clone()
				return &out
			}
		}
		if !advance(idx, choices) {
			return nil
		}
	}
}

// findDominatingSplit exhaustively searches for a split of the
// aggregate supply agg into per-node consumption vectors c_i <= d_i
// with sum c_i = agg such that every node weakly prefers its share over
// base[i] and at least one strictly prefers it. It returns nil when no
// such split exists. Exponential in nodes × classes × quantities;
// strictly a verification tool for small instances.
func findDominatingSplit(agg vector.Quantity, demand, base []vector.Quantity, prefs []Preference) []vector.Quantity {
	n := len(demand)
	k := agg.Len()
	cons := make([]vector.Quantity, n)
	var rec func(node int, left vector.Quantity) bool
	rec = func(node int, left vector.Quantity) bool {
		if node == n-1 {
			// The last node must absorb exactly the remainder so that
			// aggregate consumption equals aggregate supply (eq. 3).
			if !left.LEQ(demand[node]) {
				return false
			}
			cons[node] = left.Clone()
			for i := range cons {
				if prefs[i](cons[i], base[i]) < 0 {
					return false
				}
			}
			for i := range cons {
				if prefs[i](cons[i], base[i]) > 0 {
					return true
				}
			}
			return false // weakly equal everywhere: no domination
		}
		cap := left.Min(demand[node])
		cur := vector.New(k)
		var enum func(class int) bool
		enum = func(class int) bool {
			if class == k {
				cons[node] = cur.Clone()
				return rec(node+1, left.Sub(cur))
			}
			for v := 0; v <= cap[class]; v++ {
				cur[class] = v
				if enum(class + 1) {
					return true
				}
			}
			cur[class] = 0
			return false
		}
		return enum(0)
	}
	if n == 0 || !rec(0, agg.Clone()) {
		return nil
	}
	return cons
}

func advance(idx []int, choices [][]vector.Quantity) bool {
	for i := 0; i < len(idx); i++ {
		idx[i]++
		if idx[i] < len(choices[i]) {
			return true
		}
		idx[i] = 0
	}
	return false
}

// TimeBudgetSupplySet is the canonical supply set used throughout the
// experiments: during one period of length Budget (milliseconds of
// processing time), a node can evaluate any mix of queries whose summed
// per-class costs fit the budget. Cost[k] <= 0 marks a class the node
// cannot evaluate at all (e.g. it lacks the data), matching the
// heterogeneous-schema setting of Section 5.1.
type TimeBudgetSupplySet struct {
	Cost   []float64 // per-class execution cost on this node, ms
	Budget float64   // period capacity, ms
}

// Feasible implements SupplySet.
func (t TimeBudgetSupplySet) Feasible(s vector.Quantity) bool {
	if len(s) != len(t.Cost) || !s.IsValid() {
		return false
	}
	used := 0.0
	for k, n := range s {
		if n == 0 {
			continue
		}
		if t.Cost[k] <= 0 {
			return false
		}
		used += float64(n) * t.Cost[k]
	}
	return used <= t.Budget+1e-9
}

// BestResponse implements SupplySet by solving the unbounded knapsack of
// eq. (4) greedily by value density p_k / cost_k. The greedy solution is
// the integer rounding of the exact continuous optimum (which puts the
// whole budget on the densest class); Section 5.1 attributes QA-NT's
// small-load losses to exactly this integer rounding.
func (t TimeBudgetSupplySet) BestResponse(p vector.Prices) vector.Quantity {
	k := len(t.Cost)
	s := vector.New(k)
	order := densityOrder(p, t.Cost)
	budget := t.Budget
	for _, c := range order {
		if t.Cost[c] <= 0 || t.Cost[c] > budget {
			continue
		}
		n := int(budget / t.Cost[c])
		s[c] = n
		budget -= float64(n) * t.Cost[c]
	}
	return s
}

// Enumerate implements EnumerableSupplySet by depth-first enumeration of
// all feasible integer mixes. Only safe for small budgets/class counts.
func (t TimeBudgetSupplySet) Enumerate() []vector.Quantity {
	var out []vector.Quantity
	cur := vector.New(len(t.Cost))
	var rec func(class int, budget float64)
	rec = func(class int, budget float64) {
		if class == len(t.Cost) {
			out = append(out, cur.Clone())
			return
		}
		rec(class+1, budget) // zero of this class
		if t.Cost[class] <= 0 {
			return
		}
		for n := 1; float64(n)*t.Cost[class] <= budget+1e-9; n++ {
			cur[class] = n
			rec(class+1, budget-float64(n)*t.Cost[class])
		}
		cur[class] = 0
	}
	rec(0, t.Budget)
	return out
}

// densityOrder returns class indices sorted by decreasing p[k]/cost[k],
// skipping un-evaluable classes. Ties break toward the lower class index
// so the solver is deterministic.
func densityOrder(p vector.Prices, cost []float64) []int {
	order := make([]int, 0, len(cost))
	for c := range cost {
		if cost[c] > 0 {
			order = append(order, c)
		}
	}
	// Insertion sort: K is small in the supply solver's hot path and the
	// ordering must be stable for determinism.
	for i := 1; i < len(order); i++ {
		for j := i; j > 0; j-- {
			a, b := order[j-1], order[j]
			da := p[a] / cost[a]
			db := p[b] / cost[b]
			if db > da {
				order[j-1], order[j] = b, a
			} else {
				break
			}
		}
	}
	return order
}
