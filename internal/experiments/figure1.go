package experiments

import (
	"github.com/qamarket/qamarket/internal/economics"
	"github.com/qamarket/qamarket/internal/vector"
)

// Figure1Result re-enacts the paper's motivating example (Figure 1):
// two nodes, workload of 2×q1 + 6×q2, comparing the greedy
// load-balancing assignment (LB) against the throughput-optimal one
// (QA). The paper reports LB averaging 662 ms per query versus QA's
// 431 ms, with LB prolonging the overload period by 50% (N1 idle after
// 900 ms instead of 600 ms).
type Figure1Result struct {
	LBMeanMs float64 // 662.5 in the paper
	QAMeanMs float64 // 431.25
	// LBBusyMs / QABusyMs report when node N1 goes idle under each
	// mechanism (the overload-duration comparison).
	LBBusyN1Ms float64 // 900
	QABusyN1Ms float64 // 600
	LBBusyN2Ms float64 // 950
	QABusyN2Ms float64 // 900
}

// figure1Cost are the per-node execution times of q1 and q2 (ms).
var figure1Cost = [2][2]float64{
	{400, 100}, // N1
	{450, 500}, // N2
}

// Figure1 replays the example's two allocation strategies and computes
// per-query response times analytically (sequential execution per
// node, all queries arriving at t=0).
func Figure1() Figure1Result {
	// LB assignment from the paper's narrative: q1→N1, q1→N2, then
	// q2 → N1, N1, N1, N2, N1, N1.
	lbAssign := [][2]int{ // {class, node}
		{0, 0}, {0, 1}, {1, 0}, {1, 0}, {1, 0}, {1, 1}, {1, 0}, {1, 0},
	}
	// QA assignment: N1 takes only q2 (all six), N2 takes both q1.
	qaAssign := [][2]int{
		{0, 1}, {0, 1}, {1, 0}, {1, 0}, {1, 0}, {1, 0}, {1, 0}, {1, 0},
	}
	lbMean, lbBusy := replay(lbAssign)
	qaMean, qaBusy := replay(qaAssign)
	return Figure1Result{
		LBMeanMs:   lbMean,
		QAMeanMs:   qaMean,
		LBBusyN1Ms: lbBusy[0],
		QABusyN1Ms: qaBusy[0],
		LBBusyN2Ms: lbBusy[1],
		QABusyN2Ms: qaBusy[1],
	}
}

// replay computes the mean response time and per-node busy horizon of
// a fixed assignment, FIFO per node.
func replay(assign [][2]int) (mean float64, busy [2]float64) {
	var sum float64
	for _, a := range assign {
		class, node := a[0], a[1]
		busy[node] += figure1Cost[node][class]
		sum += busy[node] // response = completion (arrival at t=0)
	}
	return sum / float64(len(assign)), busy
}

// Figure2Result reproduces the aggregate demand/supply/consumption
// analysis of Figure 2: the first 500 ms period of the example.
type Figure2Result struct {
	Demand    vector.Quantity // aggregate d = (2, 6)
	LBSupply  vector.Quantity // (2, 1): 3 queries consumed
	QASupply  vector.Quantity // (1, 5): 6 queries consumed
	LBExcess  vector.Quantity // z under LB
	QAExcess  vector.Quantity // z under QA
	LBPareto  bool            // false in the paper
	QAPareto  bool            // true
	Dominates bool            // QA Pareto-dominates LB
}

// Figure2 verifies the vectors with the economics machinery rather
// than hardcoding the paper's conclusions.
func Figure2() Figure2Result {
	demand := []vector.Quantity{{1, 6}, {1, 0}}
	sets := []economics.TimeBudgetSupplySet{
		economics.TimeBudgetSupplySet{Cost: figure1Cost[0][:], Budget: 500},
		economics.TimeBudgetSupplySet{Cost: figure1Cost[1][:], Budget: 500},
	}

	lb := economics.Allocation{
		Supply:      []vector.Quantity{{1, 1}, {1, 0}},
		Consumption: []vector.Quantity{{1, 1}, {1, 0}},
	}
	qa := economics.Allocation{
		Supply:      []vector.Quantity{{0, 5}, {1, 0}},
		Consumption: []vector.Quantity{{0, 5}, {1, 0}},
	}
	res := Figure2Result{
		Demand:   vector.Sum(demand),
		LBSupply: lb.AggregateSupply(),
		QASupply: qa.AggregateSupply(),
		LBExcess: economics.ExcessDemand(demand, lb.Supply),
		QAExcess: economics.ExcessDemand(demand, qa.Supply),
		LBPareto: economics.IsParetoOptimal(lb, demand, sets),
		QAPareto: economics.IsParetoOptimal(qa, demand, sets),
	}
	res.Dominates = economics.Dominates(qa, lb)
	return res
}
