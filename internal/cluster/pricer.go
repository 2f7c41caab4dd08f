package cluster

import (
	"fmt"
	"maps"
	"math"
	"sort"
	"sync"

	"github.com/qamarket/qamarket/internal/market"
)

// pricer is the real cluster's adapter onto market.Seller, which owns
// the whole QA-NT loop (prices, supply, the period budget and boundary).
//
// Unlike the simulator, a real node does not know the query-class
// universe upfront: it discovers classes as plan signatures arrive
// (Section 2.1 — each node keeps its own private classification). What
// the pricer owns is that classification (plan signature → the
// seller's class index), the policy for when a refined cost estimate
// counts as drift worth re-planning for, the lock that serializes the
// node's goroutines on the seller, and the rendering of the seller's
// state as telemetry and checkpoints.
type pricer struct {
	mu      sync.Mutex
	classes map[string]int // signature -> class index
	seller  *market.Seller
}

// driftFloorMs is the absolute half of the cost-drift test: estimate
// jitter below it never triggers a re-plan, no matter how small the
// stored cost. Without it a stored cost of 0 makes the relative
// threshold degenerate (|Δ| > 0), re-planning on every request; a
// quarter millisecond is far below anything the supply solve is
// sensitive to.
const driftFloorMs = 0.25

// newPricer builds an empty pricer; classes appear via observe.
func newPricer(cfg market.Config, periodMs float64) (*pricer, error) {
	seller, err := market.NewSeller(cfg, periodMs, nil)
	if err != nil {
		return nil, err
	}
	return &pricer{classes: make(map[string]int), seller: seller}, nil
}

// observe registers (or refreshes) the class behind a plan signature
// with its current cost estimate, returning its index. Callers hold mu.
func (p *pricer) observe(signature string, costMs float64) int {
	idx, ok := p.classes[signature]
	if !ok {
		idx = p.seller.AddClass(costMs)
		p.classes[signature] = idx
	} else if old := p.seller.Cost(idx); drifted(old, costMs) {
		p.seller.Recost(idx, costMs) // history refined the estimate
	}
	return idx
}

// drifted is the cost-drift policy: a new estimate replaces the stored
// one when it differs by more than a quarter of it and by more than
// driftFloorMs.
func drifted(old, est float64) bool {
	d := math.Abs(old - est)
	return d > driftFloorMs && d > old*0.25
}

// offer runs the QA-NT server-side decision for one request of the
// given signature/cost. It returns whether the node offers.
func (p *pricer) offer(signature string, costMs float64) bool {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.seller.Offer(p.observe(signature, costMs))
}

// accept burns one unit of supply; false when supply ran out since the
// offer (another client took it).
func (p *pricer) accept(signature string) bool {
	p.mu.Lock()
	defer p.mu.Unlock()
	idx, ok := p.classes[signature]
	return ok && p.seller.Accept(idx) == nil
}

// tick advances one market period.
func (p *pricer) tick() {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.seller.EndPeriod()
	p.seller.BeginPeriod()
}

// ClassTelemetry is the observable market state of one query class,
// keyed by the node's private plan signature.
type ClassTelemetry struct {
	Signature string  `json:"signature"`
	CostMs    float64 `json:"cost_ms"`
	Price     float64 `json:"price"`
	Planned   int     `json:"planned"`
	Remaining int     `json:"remaining"`
	Accepted  int     `json:"accepted"`
}

// MarketTelemetry is a per-period snapshot of one node's market state
// for the exposition layer: every known class with its price and
// supply picture, plus the agent's lifetime trading counters. Classes
// are sorted by signature so repeated scrapes render identically.
type MarketTelemetry struct {
	// Epoch is the market's age in pricer periods; the Node accessor
	// stamps it (the pricer itself does not count ticks).
	Epoch   uint64           `json:"epoch"`
	Active  bool             `json:"active"`
	CarryMs float64          `json:"carry_ms"`
	Classes []ClassTelemetry `json:"classes"`
	Stats   market.Stats     `json:"stats"`
}

// telemetry snapshots the pricer's market state. A pricer that has not
// yet observed any class returns an empty snapshot.
func (p *pricer) telemetry() MarketTelemetry {
	p.mu.Lock()
	defer p.mu.Unlock()
	tel := p.seller.Agent().Telemetry()
	out := MarketTelemetry{CarryMs: p.seller.Carry()}
	if tel.Classes == 0 {
		return out
	}
	out.Active = tel.Active
	out.Stats = p.seller.Agent().Stats()
	out.Classes = make([]ClassTelemetry, 0, len(p.classes))
	for sig, idx := range p.classes {
		out.Classes = append(out.Classes, ClassTelemetry{
			Signature: sig,
			CostMs:    p.seller.Cost(idx),
			Price:     tel.Prices[idx],
			Planned:   tel.Planned[idx],
			Remaining: tel.Remaining[idx],
			Accepted:  tel.Accepted[idx],
		})
	}
	sort.Slice(out.Classes, func(i, j int) bool {
		return out.Classes[i].Signature < out.Classes[j].Signature
	})
	return out
}

// PricerState is the serializable market state of one node: the
// private classification (plan signature -> class) and the seller's
// snapshot (learned cost estimates and prices, the capacity carry and
// the lifetime counters). qanode checkpoints it across restarts so a
// node does not relearn its market position.
type PricerState struct {
	Classes map[string]int `json:"classes"`
	market.Snapshot
}

// snapshot captures the pricer's persistent state.
func (p *pricer) snapshot() PricerState {
	p.mu.Lock()
	defer p.mu.Unlock()
	return PricerState{Classes: maps.Clone(p.classes), Snapshot: p.seller.Snapshot()}
}

// restore installs a previously captured state and begins a fresh
// period; on error the pricer is unchanged.
func (p *pricer) restore(st PricerState) error {
	if len(st.Costs) != len(st.Classes) {
		return fmt.Errorf("cluster: inconsistent pricer state (%d classes, %d costs)",
			len(st.Classes), len(st.Costs))
	}
	for sig, idx := range st.Classes {
		if idx < 0 || idx >= len(st.Costs) {
			return fmt.Errorf("cluster: pricer state class %q has index %d out of range", sig, idx)
		}
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	if err := p.seller.Restore(st.Snapshot); err != nil {
		return fmt.Errorf("cluster: restoring pricer state: %w", err)
	}
	p.classes = make(map[string]int, len(st.Classes))
	maps.Copy(p.classes, st.Classes)
	return nil
}
