// Package qamarket reproduces "Autonomic Query Allocation based on
// Microeconomics Principles" (Pentaris & Ioannidis, ICDE 2007): the
// QA-NT decentralized query-market allocation mechanism, the federation
// simulator and baselines it was evaluated against, and a real TCP
// federation over an embedded relational engine.
//
// This package is the public façade: it aliases the library's central
// types so adopters have a single import, while the implementation
// lives in the internal packages documented in DESIGN.md.
//
// Quick taste (see examples/ for runnable programs):
//
//	set := qamarket.TimeBudgetSupplySet{Cost: []float64{400, 100}, Budget: 500}
//	agent, _ := qamarket.NewAgent(set, qamarket.DefaultAgentConfig(2))
//	agent.BeginPeriod()
//	if agent.Offer(1) {
//	    _ = agent.Accept(1)
//	}
//	agent.EndPeriod()
package qamarket

import (
	"math/rand"

	"github.com/qamarket/qamarket/internal/alloc"
	"github.com/qamarket/qamarket/internal/catalog"
	"github.com/qamarket/qamarket/internal/cluster"
	"github.com/qamarket/qamarket/internal/costmodel"
	"github.com/qamarket/qamarket/internal/economics"
	"github.com/qamarket/qamarket/internal/market"
	"github.com/qamarket/qamarket/internal/membership"
	"github.com/qamarket/qamarket/internal/metrics"
	"github.com/qamarket/qamarket/internal/sim"
	"github.com/qamarket/qamarket/internal/sqldb"
	"github.com/qamarket/qamarket/internal/vector"
	"github.com/qamarket/qamarket/internal/workload"
)

// Market core (the paper's contribution, Section 3).
type (
	// Agent is one node's QA-NT market participant.
	Agent = market.Agent
	// AgentConfig parameterizes an agent (λ, price bounds, threshold).
	AgentConfig = market.Config
	// SupplySet describes a node's feasible supply vectors S_i.
	SupplySet = economics.SupplySet
	// TimeBudgetSupplySet is the standard per-period time-budget supply set.
	TimeBudgetSupplySet = economics.TimeBudgetSupplySet
	// Quantity is a demand/supply/consumption vector in N^K.
	Quantity = vector.Quantity
	// Prices is a virtual price vector in R+^K.
	Prices = vector.Prices
	// Allocation is a candidate <[s_i],[c_i]> solution.
	Allocation = economics.Allocation
)

// NewAgent builds a QA-NT agent over a supply set.
func NewAgent(set SupplySet, cfg AgentConfig) (*Agent, error) {
	return market.NewAgent(set, cfg)
}

// DefaultAgentConfig returns the paper's λ=0.1 configuration for the
// given number of query classes.
func DefaultAgentConfig(classes int) AgentConfig { return market.DefaultConfig(classes) }

// Simulator and mechanisms (Section 5.1).
type (
	// Mechanism allocates queries to federation nodes.
	Mechanism = alloc.Mechanism
	// Federation is the discrete-event federation simulator.
	Federation = sim.Federation
	// SimConfig assembles one simulation run.
	SimConfig = sim.Config
	// Catalog is the federation's data placement.
	Catalog = catalog.Catalog
	// CatalogParams are the Table 3 environment knobs.
	CatalogParams = catalog.Params
	// Template is a query template/class.
	Template = costmodel.Template
	// CostModel estimates execution times per node.
	CostModel = costmodel.Model
	// Arrival is one query entering the system.
	Arrival = workload.Arrival
	// Sinusoid is the dynamic-workload generator of Figures 3–5.
	Sinusoid = workload.Sinusoid
	// ZipfWorkload is the heterogeneous workload of Figure 6.
	ZipfWorkload = workload.Zipf
	// Collector accumulates per-query samples.
	Collector = metrics.Collector
	// Summary condenses a run into reporting statistics.
	Summary = metrics.Summary
)

// NewFederation builds a simulator around an allocation mechanism.
func NewFederation(cfg SimConfig, mech Mechanism) (*Federation, error) {
	return sim.New(cfg, mech)
}

// NewQANTMechanism returns the QA-NT allocation mechanism for the
// simulator.
func NewQANTMechanism(cfg AgentConfig) Mechanism { return alloc.NewQANT(cfg) }

// NewGreedyMechanism returns the Greedy baseline: QA-NT's buyer over
// servers that always offer, so each query goes to the node that
// would finish it earliest.
func NewGreedyMechanism() Mechanism { return alloc.NewGreedy() }

// NewRandomMechanism returns the uniform-random baseline.
func NewRandomMechanism(rng *rand.Rand) Mechanism { return alloc.NewRandom(rng) }

// NewRoundRobinMechanism returns the round-robin baseline.
func NewRoundRobinMechanism() Mechanism { return alloc.NewRoundRobin() }

// NewBNQRDMechanism returns the BNQRD load-balancing baseline.
func NewBNQRDMechanism() Mechanism { return alloc.NewBNQRD() }

// NewTwoRandomProbesMechanism returns Mitzenmacher's two-choices
// baseline.
func NewTwoRandomProbesMechanism(rng *rand.Rand) Mechanism {
	return alloc.NewTwoRandomProbes(rng)
}

// GenerateCatalog builds a synthetic Table 3 environment.
func GenerateCatalog(p CatalogParams, rng *rand.Rand) (*Catalog, error) {
	return catalog.Generate(p, rng)
}

// Table3Params returns the paper's Table 3 parameterization.
func Table3Params() CatalogParams { return catalog.Table3() }

// NewCostModel builds the per-node execution-time estimator.
func NewCostModel(c *Catalog) *CostModel { return costmodel.New(c) }

// EstimateCapacity computes the federation's sustainable query rate
// for a class mix.
func EstimateCapacity(c *Catalog, ts []Template, weights []float64) float64 {
	return sim.EstimateCapacity(c, ts, weights)
}

// Real federation over TCP (Section 5.2).
type (
	// DB is the embedded relational engine.
	DB = sqldb.DB
	// Node is one running federation server.
	Node = cluster.Node
	// NodeConfig parameterizes a server.
	NodeConfig = cluster.NodeConfig
	// Client negotiates and dispatches queries.
	Client = cluster.Client
	// ClientConfig parameterizes a client.
	ClientConfig = cluster.ClientConfig
	// Outcome is one query's journey through the federation.
	Outcome = cluster.Outcome
	// Distributor evaluates queries no single node can answer by
	// decomposing them into subqueries (the Section 2.1 query-trading
	// setting).
	Distributor = cluster.Distributor
	// DistOutcome describes one distributed evaluation.
	DistOutcome = cluster.DistOutcome
	// Member is one gossiped membership row (a federation node's
	// identity, address, liveness state, and catalog advertisement).
	Member = membership.Member
	// MemberInfo is one row of a client's membership view, including
	// the client-side breaker state.
	MemberInfo = cluster.MemberInfo
)

// OpenDB creates an empty embedded database.
func OpenDB() *DB { return sqldb.Open() }

// StartNode starts a federation server.
func StartNode(addr string, cfg NodeConfig) (*Node, error) { return cluster.StartNode(addr, cfg) }

// NewClient builds a federation client.
func NewClient(cfg ClientConfig) (*Client, error) { return cluster.NewClient(cfg) }

// NewDistributor wraps a client with distributed subquery evaluation.
func NewDistributor(c *Client) *Distributor { return cluster.NewDistributor(c) }

// Allocation mechanisms for the real federation.
const (
	MechGreedy = cluster.MechGreedy
	MechQANT   = cluster.MechQANT
)
