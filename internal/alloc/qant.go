package alloc

import (
	"fmt"
	"math"
	"slices"

	"github.com/qamarket/qamarket/internal/market"
)

// QANT adapts market.Seller to the simulator's Mechanism interface,
// realizing the full decentralized protocol of Section 3.3:
//
//   - every adopting node runs a private market.Seller — the QA-NT agent
//     over the node's time budget for the period T and its per-class
//     execution costs (the seller owns the budget and the period
//     boundary; see its doc);
//   - when a query arrives, the client asks every capable server; a
//     server offers iff its remaining supply admits the class (sellers
//     whose supply is exhausted refuse and raise their private price);
//   - the client takes the offer that finishes earliest (the buyer it
//     shares with Greedy); an offer not taken stays on sale and moves
//     no price;
//   - a query refused by all servers is resubmitted in the next period.
//
// What this adapter owns is the translation from the simulator's View
// to per-node cost tables, which nodes adopt the market at all, and the
// accepted sale (Assign).
//
// QA-NT is the only mechanism here that respects node autonomy: servers
// decide for themselves what to offer, and prices never leave the node.
type QANT struct {
	cfg market.Config
	// sellers holds one seller per node; nil for non-adopters and, as a
	// whole, until the first view reveals the federation.
	sellers []*market.Seller
	// Adopters, when non-nil, marks which nodes run QA-NT agents.
	// Non-adopting nodes behave like ordinary servers that accept any
	// feasible query — Section 4 claims the mechanism still optimizes
	// global throughput by modifying only the adopters' behaviour, and
	// the partial-adoption experiment verifies it.
	Adopters map[int]bool
}

// NewQANT builds the mechanism; sellers are created lazily on the first
// period callback, when the view reveals the federation's size, class
// universe and per-node costs.
func NewQANT(cfg market.Config) *QANT { return &QANT{cfg: cfg} }

// Name implements Mechanism.
func (m *QANT) Name() string { return "qa-nt" }

// Traits implements Mechanism (Table 2 row "QA-NT").
func (m *QANT) Traits() Traits {
	return Traits{
		Distributed:           true,
		WorkloadType:          "Dynamic",
		ConflictsWithQueryOpt: false,
		RespectsAutonomy:      true,
		Performance:           "Very Good",
	}
}

// Sellers exposes the per-node sellers for observability (price traces
// in the experiments and tests); non-adopters have a nil entry. It
// returns nil before the first period.
func (m *QANT) Sellers() []*market.Seller { return slices.Clone(m.sellers) }

// OnPeriodStart implements Periodic: every seller opens its period.
func (m *QANT) OnPeriodStart(v View) {
	if m.sellers == nil {
		m.init(v)
	}
	for _, s := range m.sellers {
		if s != nil {
			s.BeginPeriod()
		}
	}
}

// OnPeriodEnd implements Periodic: every seller closes its period.
func (m *QANT) OnPeriodEnd(v View) {
	for _, s := range m.sellers {
		if s != nil {
			s.EndPeriod()
		}
	}
}

// init builds one seller per adopting node from the view's costs; a
// class the node cannot evaluate (infinite cost) enters its table as 0.
func (m *QANT) init(v View) {
	k := v.NumClasses()
	m.sellers = make([]*market.Seller, v.NumNodes())
	cost := make([]float64, k) // NewSeller copies it
	for n := range m.sellers {
		if m.Adopters != nil && !m.Adopters[n] {
			continue // ordinary server: no agent, accepts anything feasible
		}
		for c := range cost {
			if cost[c] = v.Cost(n, c); math.IsInf(cost[c], 1) {
				cost[c] = 0
			}
		}
		seller, err := market.NewSeller(m.cfg, float64(v.PeriodMs()), cost)
		if err != nil {
			panic(fmt.Sprintf("alloc: building QA-NT seller: %v", err))
		}
		m.sellers[n] = seller
	}
}

// Assign implements Mechanism: the client-side negotiation round.
func (m *QANT) Assign(q Query, v View) Decision {
	if m.sellers == nil {
		m.OnPeriodStart(v) // first dispatch arrived before the first period callback
	}
	// Each seller decides autonomously whether to offer; non-adopters
	// (nil seller) behave like ordinary servers and always offer.
	d := buy(q, v, m.sellers)
	if d.Retry || m.sellers[d.Node] == nil {
		return d
	}
	if err := m.sellers[d.Node].Accept(q.Class); err != nil {
		// The seller offered above, so acceptance cannot fail unless
		// the protocol is misused; surface loudly.
		panic(fmt.Sprintf("alloc: QA-NT accept: %v", err))
	}
	return d
}
