// Package alloc implements every query allocation mechanism compared in
// the paper (Section 4, Table 2): the microeconomic QA-NT mechanism and
// the Greedy, Random, Round-Robin, BNQRD and Two-Random-Probes
// baselines, plus the static Markov-style reference of [4].
//
// Mechanisms are driven by the federation simulator (internal/sim)
// through the View interface. Greedy, BNQRD and Markov pick the node
// themselves, which violates its autonomy; under QA-NT each node decides
// whether to offer. QA-NT and Greedy share one buyer, which ranks the
// offers by each node's backlog plus cost: the simulator's stand-in for
// a CFP reply's queue and estimate.
package alloc

import "github.com/qamarket/qamarket/internal/market"

// Query is one query instance to allocate.
type Query struct {
	ID        int64
	Class     int
	Origin    int   // node where the request originated
	Arrival   int64 // ms, first time the query entered the system
	Resubmits int   // times the query was deferred to a later period
}

// View is the window a mechanism gets into the federation.
type View interface {
	// Now is the current virtual time in milliseconds.
	Now() int64
	// NumNodes is I, the federation size.
	NumNodes() int
	// NumClasses is K, the query-class universe size.
	NumClasses() int
	// Feasible reports whether node can evaluate class at all (it holds
	// the data).
	Feasible(node, class int) bool
	// FeasibleNodes returns the nodes able to evaluate class, in
	// ascending order — the per-class feasibility index. Mechanisms
	// iterate it on the hot path instead of scanning every node.
	// Callers must not mutate the returned slice.
	FeasibleNodes(class int) []int
	// Cost is the estimated execution time of one class query on node,
	// in ms (the simulator's EXPLAIN); +Inf when infeasible.
	Cost(node, class int) float64
	// Backlog is the node's currently queued plus running work in ms.
	Backlog(node int) float64
	// PeriodMs is the allocation period length T.
	PeriodMs() int64
}

// Decision is a mechanism's verdict for one query.
type Decision struct {
	// Node is the executing node, meaningful when Retry is false.
	Node int
	// Retry defers the query to the next time period (QA-NT resubmits
	// queries that no server offered to evaluate).
	Retry bool
}

// Mechanism allocates queries to nodes.
type Mechanism interface {
	Name() string
	Traits() Traits
	// Assign decides where to run q. Mechanisms must be deterministic
	// given their own RNG state and the view.
	Assign(q Query, v View) Decision
}

// Periodic is implemented by mechanisms that react to the period clock
// (QA-NT runs its market cycle on it).
type Periodic interface {
	OnPeriodStart(v View)
	OnPeriodEnd(v View)
}

// Traits reproduces the qualitative comparison columns of Table 2.
type Traits struct {
	Distributed           bool
	WorkloadType          string // "Dynamic" or "Static"
	ConflictsWithQueryOpt bool   // physically pins queries, fighting distributed query optimizers
	RespectsAutonomy      bool
	Performance           string // the paper's verdict
}

// buy is the client side of Section 3.3's protocol, shared by QA-NT and
// Greedy: it calls every node able to run q for a bid and takes the
// offer that finishes earliest (market.Best). A node bids its backlog
// and cost and offers unless its seller, if it has one, refuses (which
// moves that seller's price); Greedy passes no sellers. With no offer
// the query waits for the next period (step 4 of the protocol).
func buy(q Query, v View, sellers []*market.Seller) Decision {
	var best market.Best
	node := -1
	for _, n := range v.FeasibleNodes(q.Class) {
		if sellers != nil && sellers[n] != nil && !sellers[n].Offer(q.Class) {
			continue // a refusal bids nothing
		}
		if best.Take(market.Bid{QueueMs: v.Backlog(n), EstimateMs: v.Cost(n, q.Class), Offer: true}) {
			node = n
		}
	}
	if node < 0 {
		return Decision{Retry: true}
	}
	return Decision{Node: node}
}

// ScanFeasible returns the ascending indices in [0, n) satisfying
// feasible. It is the one feasibility scan in the repo: the simulator
// builds its per-class index with it, and the live client's shard probe
// filters its CFP fan-out through it.
func ScanFeasible(n int, feasible func(int) bool) []int {
	var out []int
	for i := 0; i < n; i++ {
		if feasible(i) {
			out = append(out, i)
		}
	}
	return out
}
