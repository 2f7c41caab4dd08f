package market

import (
	"fmt"
	"math"

	"github.com/qamarket/qamarket/internal/economics"
)

// Seller is one node's whole QA-NT loop: an Agent plus what turns a
// node's clock into the agent's supply set — a per-class cost table
// that can grow and be re-costed, and the capacity ledger. Both the
// simulator (alloc.QANT) and the TCP server (cluster's pricer) drive
// this one type, so a result shown on one transfers to the other.
//
// The ledger is one account. A period grants the node T milliseconds;
// what it does not sell is saved in carry, up to max(T, dearest class)
// so a class costing more than one period can still be supplied once
// enough has been saved. Negative carry is debt — restored from a
// checkpoint, or left when a re-cost lowers that cap mid-period — and
// the node stops offering until later periods have paid it off.
// Every sale is charged when it happens, at the cost estimate it was
// accepted under, so at any moment
//
//	left = T + carry − spent
//
// is what the node can still sell this period, and one invariant holds
// after every step: what is on offer fits what is left,
// Σ remaining·cost ≤ max(left, 0), and no sale is larger than left.
// admits is the one rule that keeps it. A sale from the plan burns its
// unit; a sale off the plan, and AddClass and Recost, re-solve eq. (4)
// over what is left. Whether pricing is active (Agent.Active, the
// Section 5.1 threshold) changes only what is offered — the plan, or
// anything that still fits — never the account, so crossing the
// threshold mid-period cannot sell the same millisecond twice.
//
// A period boundary is EndPeriod then BeginPeriod with no trading in
// between: EndPeriod settles carry += T − spent, caps it and cuts the
// prices of unsold supply; BeginPeriod re-solves eq. (4) over T + carry.
//
// Like Agent, a Seller is not safe for concurrent use.
type Seller struct {
	cfg    Config // validated, defaults applied; Classes unused
	agent  *Agent
	period float64   // T in milliseconds
	costs  []float64 // ms per class; <= 0 marks a class the node cannot evaluate
	carry  float64
	used   float64 // spent: this period's sales, each at the cost it was accepted under
}

// NewSeller builds a seller with period T = periodMs over the given
// per-class costs (possibly none: classes can arrive later through
// AddClass). cfg.Classes is ignored; the cost table sets K. Nothing is
// on offer until the first BeginPeriod.
func NewSeller(cfg Config, periodMs float64, costs []float64) (*Seller, error) {
	if err := cfg.applyDefaults(); err != nil {
		return nil, err
	}
	cfg.Classes = 0
	s := &Seller{cfg: cfg, period: periodMs}
	s.install(Snapshot{Costs: costs})
	return s, nil
}

// install makes a (validated) snapshot the seller's state, at the start
// of a period nobody has traded in.
func (s *Seller) install(snap Snapshot) {
	a := &Agent{cfg: s.cfg, stats: snap.Stats}
	for range snap.Costs {
		a.addClass()
	}
	copy(a.prices, snap.Prices) // none recorded: the initial prices stand
	s.agent, s.costs, s.carry, s.used = a, append([]float64(nil), snap.Costs...), snap.Carry, 0
	s.capCarry()
	a.set = s.supplySet()
}

// left is the account: what remains of T + carry after this period's
// sales. Negative while the node is in debt.
func (s *Seller) left() float64 { return s.period + s.carry - s.used }

// supplySet is the one place a budget becomes a supply set: what is
// left, or nothing while the node is in debt.
func (s *Seller) supplySet() economics.SupplySet {
	return economics.TimeBudgetSupplySet{Cost: s.costs, Budget: max(s.left(), 0)}
}

// capCarry bounds savings by max(T, dearest class).
func (s *Seller) capCarry() {
	limit := s.period
	for _, c := range s.costs {
		if c > limit {
			limit = c
		}
	}
	if s.carry > limit {
		s.carry = limit
	}
}

// replan re-solves eq. (4) over what is left, mid-period. Prices, this
// period's sales and adjustment counts and the lifetime counters stay.
func (s *Seller) replan() {
	s.capCarry()
	s.agent.replan(s.supplySet())
}

// AddClass appends a class costing costMs and returns its index. The
// class starts at the initial price; the rest of the period is
// re-planned with it in the running.
func (s *Seller) AddClass(costMs float64) int {
	s.costs = append(s.costs, costMs)
	s.agent.addClass()
	s.replan()
	return len(s.costs) - 1
}

// Recost replaces class k's cost estimate and re-plans the rest of the
// period. Work already accepted stays charged at the old estimate.
func (s *Seller) Recost(k int, costMs float64) {
	s.agent.mustClass(k)
	s.costs[k] = costMs
	s.replan()
}

// admits is the admission rule, the only one: the node can evaluate
// class k, and either the plan has a unit of it or pricing is inactive
// and one more still fits what is left.
func (s *Seller) admits(k int) bool {
	s.agent.mustClass(k)
	c := s.costs[k]
	return c > 0 && (s.agent.supply[k] > 0 || !s.agent.Active() && c <= s.left())
}

// Offer answers one request of class k (steps 4–10 of the listing); a
// refusal raises the class's price.
func (s *Seller) Offer(k int) bool { return s.agent.answer(k, s.admits(k)) }

// Accept sells one class-k query and charges it. It returns an error
// when the query is not on offer (another client took the supply since
// the offer, or the caller never asked).
func (s *Seller) Accept(k int) error {
	if !s.admits(k) {
		return fmt.Errorf("market: accept of class %d, which is not on offer", k)
	}
	s.used += s.costs[k]
	if s.agent.supply[k] > 0 {
		return s.agent.Accept(k) // on plan: burn the unit
	}
	s.agent.sold(k)
	s.replan() // off plan: what is still on offer must fit what is left
	return nil
}

// Agent exposes the seller's agent for observation (prices, planned
// and remaining supply, counters, Telemetry); drive it only through
// the seller.
func (s *Seller) Agent() *Agent { return s.agent }

// Cost returns class k's current cost estimate in milliseconds.
func (s *Seller) Cost(k int) float64 { return s.costs[k] }

// Carry returns the capacity saved (positive) or owed (negative).
func (s *Seller) Carry() float64 { return s.carry }

// EndPeriod closes the period: settle the ledger, then cut the price of
// every class with unsold supply. A seller with no classes yet has no
// market to close and saves nothing.
func (s *Seller) EndPeriod() {
	if len(s.costs) == 0 {
		return
	}
	s.carry += s.period - s.used
	s.used = 0
	s.capCarry()
	s.agent.EndPeriod()
}

// BeginPeriod opens the next period over T + carry.
func (s *Seller) BeginPeriod() {
	s.agent.set = s.supplySet()
	s.agent.BeginPeriod()
}

// Snapshot is a seller's persistent state: everything a node needs to
// resume its market position after a restart. Learned prices are the
// valuable part — they encode the node's view of the demand it has seen.
// Per-period state (remaining supply, adjustment counts, work accepted)
// is deliberately excluded: a restore always begins a fresh period.
type Snapshot struct {
	Costs []float64 `json:"costs"`
	// Prices may be nil (checkpoints older than price persistence):
	// every class then restarts at the initial price.
	Prices []float64 `json:"prices"`
	Carry  float64   `json:"carry"`
	Stats  Stats     `json:"stats"`
}

// Snapshot captures the seller's persistent state.
func (s *Seller) Snapshot() Snapshot {
	return Snapshot{
		Costs:  append([]float64(nil), s.costs...),
		Prices: append([]float64(nil), s.agent.prices...),
		Carry:  s.carry,
		Stats:  s.agent.stats,
	}
}

// Restore replaces the seller's state with a snapshot and begins a
// fresh period. Snapshots come from checkpoint files, so nothing in
// them is trusted: costs must be finite and non-negative, carry finite
// (it is then capped as at any period boundary), prices valid, within
// [PriceFloor, PriceCap] and one per class. On error the seller is
// unchanged.
func (s *Seller) Restore(snap Snapshot) error {
	for k, c := range snap.Costs {
		if c < 0 || math.IsNaN(c) || math.IsInf(c, 0) {
			return fmt.Errorf("market: snapshot cost[%d] = %g", k, c)
		}
	}
	if math.IsNaN(snap.Carry) || math.IsInf(snap.Carry, 0) {
		return fmt.Errorf("market: snapshot carry = %g", snap.Carry)
	}
	if snap.Prices != nil && len(snap.Prices) != len(snap.Costs) {
		return fmt.Errorf("market: snapshot has %d prices for %d classes", len(snap.Prices), len(snap.Costs))
	}
	for k, p := range snap.Prices {
		if math.IsNaN(p) || math.IsInf(p, 0) || p < s.cfg.PriceFloor || p > s.cfg.PriceCap {
			return fmt.Errorf("market: snapshot price[%d] = %g outside [%g, %g]", k, p, s.cfg.PriceFloor, s.cfg.PriceCap)
		}
	}
	s.install(snap)
	s.BeginPeriod()
	return nil
}
