package market

import (
	"fmt"
	"math"

	"github.com/qamarket/qamarket/internal/economics"
	"github.com/qamarket/qamarket/internal/vector"
)

// Seller is one node's whole QA-NT loop: the private prices, the plan
// eq. (4) solved for the period and what is left of it, and what turns
// the node's clock into the supply set S_i — a per-class cost table
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
// over what is left. Whether pricing is active (Active, the Section 5.1
// threshold) changes only what is offered — the plan, or anything that
// still fits — never the account, so crossing the threshold mid-period
// cannot sell the same millisecond twice.
//
// A period boundary is EndPeriod then BeginPeriod with no trading in
// between: EndPeriod settles carry += T − spent, caps it and cuts the
// prices of unsold supply; BeginPeriod re-solves eq. (4) over T + carry.
//
// NewAgent builds the same type over a fixed supply set, the paper's
// agent: it saves nothing and sells only its plan (fixed).
//
// A Seller is not safe for concurrent use; wrap it in the caller's
// synchronization (the cluster package serializes access per node).
type Seller struct {
	cfg      Config // validated, defaults applied; Classes unused
	prices   vector.Prices
	supply   vector.Quantity // remaining offers in the current period
	planned  vector.Quantity // supply vector chosen by the last solve of eq. (4)
	accepted vector.Quantity // sales in the current period, reset by BeginPeriod
	stats    Stats           // lifetime counters

	period float64   // T in milliseconds
	costs  []float64 // ms per class; <= 0 marks a class the node cannot evaluate
	carry  float64
	used   float64 // spent: this period's sales, each at the cost it was accepted under
	fixed  bool    // NewAgent's fixed supply set: no savings, no sale off the plan

	// budget is what the last solve of eq. (4) had to spend: left then,
	// or 0 in debt. Only the ledger check (checkSellerLedger) reads it.
	budget float64
}

// NewSeller builds a seller with period T = periodMs over the given
// per-class costs (possibly none: classes can arrive later through
// AddClass). cfg.Classes is ignored; the cost table sets K. Nothing is
// on offer until the first BeginPeriod.
func NewSeller(cfg Config, periodMs float64, costs []float64) (*Seller, error) {
	if err := cfg.applyDefaults(); err != nil {
		return nil, err
	}
	s := &Seller{cfg: cfg, period: periodMs}
	s.install(Snapshot{Costs: costs})
	return s, nil
}

// install makes a (validated) snapshot the seller's state, at the start
// of a period nobody has traded in.
func (s *Seller) install(snap Snapshot) {
	s.prices, s.supply, s.planned, s.accepted = nil, nil, nil, nil
	s.costs, s.stats, s.carry, s.used = nil, snap.Stats, snap.Carry, 0
	for _, c := range snap.Costs {
		s.grow(c)
	}
	copy(s.prices, snap.Prices) // none recorded: the initial prices stand
	s.capCarry()
}

// grow appends a class costing costMs to every per-class vector, in
// place: the new class starts at the initial price with nothing
// planned, while the other classes keep their prices, their remaining
// supply and the lifetime counters.
func (s *Seller) grow(costMs float64) {
	s.costs = append(s.costs, costMs)
	s.prices = append(s.prices, s.cfg.InitialPrice)
	s.supply = append(s.supply, 0)
	s.planned = append(s.planned, 0)
	s.accepted = append(s.accepted, 0)
}

// left is the account: what remains of T + carry after this period's
// sales. Negative while the node is in debt.
func (s *Seller) left() float64 { return s.period + s.carry - s.used }

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

// replan solves eq. (4) over what is left, or over nothing while the
// node is in debt, and puts the result on offer. This is the one place
// a budget becomes a supply set. Prices, this period's sales and the
// lifetime counters stay.
func (s *Seller) replan() {
	s.budget = max(s.left(), 0)
	s.planned = economics.TimeBudgetSupplySet{Cost: s.costs, Budget: s.budget}.BestResponse(s.prices)
	s.supply = s.planned.Clone()
}

// AddClass appends a class costing costMs and returns its index. The
// class starts at the initial price; the rest of the period is
// re-planned with it in the running.
func (s *Seller) AddClass(costMs float64) int {
	s.grow(costMs)
	s.replan()
	return len(s.costs) - 1
}

// Recost replaces class k's cost estimate and re-plans the rest of the
// period. Work already accepted stays charged at the old estimate; a
// cheaper dearest class lowers the carry cap, and with it what is left.
func (s *Seller) Recost(k int, costMs float64) {
	s.mustClass(k)
	s.costs[k] = costMs
	s.capCarry()
	s.replan()
}

// Active reports whether market pricing currently restricts supply. With
// a zero ActivationThreshold the seller is always active; otherwise it
// activates once any class price exceeds the threshold (the node's local
// overload signal, Section 5.1).
func (s *Seller) Active() bool {
	if s.cfg.ActivationThreshold <= 0 {
		return true
	}
	for _, p := range s.prices {
		if p > s.cfg.ActivationThreshold {
			return true
		}
	}
	return false
}

// admits is the admission rule, the only one: the node can evaluate
// class k, and either the plan has a unit of it or pricing is inactive
// and one more still fits what is left (never for a fixed supply set,
// which only ever sells its plan).
func (s *Seller) admits(k int) bool {
	s.mustClass(k)
	c := s.costs[k]
	return c > 0 && (s.supply[k] > 0 || !s.fixed && !s.Active() && c <= s.left())
}

// Offer implements steps 4–10 of the QA-NT listing for one incoming
// request of class k. It returns true when the node offers to evaluate
// the query. When it returns false the price of k has already been
// raised by λ·p_k — the trading failure is the price signal.
func (s *Seller) Offer(k int) bool {
	if s.admits(k) {
		s.stats.Offers++
		return true
	}
	s.stats.Rejects++
	s.raise(k)
	return false
}

// Accept sells one class-k query and charges it (step 6:
// s_ik = s_ik − 1). It returns an error when the query is not on offer
// (another client took the supply since the offer, or the caller never
// asked).
func (s *Seller) Accept(k int) error {
	if !s.admits(k) {
		return fmt.Errorf("market: accept of class %d, which is not on offer", k)
	}
	s.used += s.costs[k]
	s.accepted[k]++
	s.stats.Accepts++
	if s.supply[k] > 0 {
		s.supply[k]-- // on plan: burn the unit
	} else {
		s.replan() // off plan: what is still on offer must fit what is left
	}
	return nil
}

// Cost returns class k's current cost estimate in milliseconds.
func (s *Seller) Cost(k int) float64 { return s.costs[k] }

// Carry returns the capacity saved (positive) or owed (negative).
func (s *Seller) Carry() float64 { return s.carry }

// Prices returns a copy of the node's private price vector. Exposed for
// observability; QA-NT never sends prices to other nodes.
func (s *Seller) Prices() vector.Prices { return s.prices.Clone() }

// PlannedSupply returns a copy of the supply vector chosen by the last
// solve of eq. (4) (its s_i*): BeginPeriod's, or a mid-period re-plan
// over what was left.
func (s *Seller) PlannedSupply() vector.Quantity { return s.planned.Clone() }

// Accepted returns a copy of the per-class counts of work accepted in
// the current period.
func (s *Seller) Accepted() vector.Quantity { return s.accepted.Clone() }

// Stats returns a snapshot of the seller's lifetime counters.
func (s *Seller) Stats() Stats { return s.stats }

// EndPeriod implements steps 12–14 of the listing: settle the ledger,
// then cut the price of every class with unsold supply by s_ik·λ·p_k.
// A seller with no classes yet has no market to close and saves nothing;
// nor does a fixed supply set, whose every period is the same S_i.
func (s *Seller) EndPeriod() {
	if len(s.costs) == 0 {
		return
	}
	if !s.fixed {
		s.carry += s.period - s.used
	}
	s.used = 0
	s.capCarry()
	for k, left := range s.supply {
		if left > 0 {
			s.stats.Unsold += left
			s.lower(k, left)
		}
	}
	s.stats.Periods++
}

// BeginPeriod opens the next period: it solves eq. (4) over T + carry
// against the current private prices and resets the period's sales.
func (s *Seller) BeginPeriod() {
	s.replan()
	clear(s.accepted)
}

func (s *Seller) raise(k int) {
	s.prices[k] += s.cfg.Lambda * s.prices[k]
	if s.prices[k] > s.cfg.PriceCap {
		s.prices[k] = s.cfg.PriceCap
	}
	s.stats.PriceUps++
}

func (s *Seller) lower(k, unsold int) {
	cut := float64(unsold) * s.cfg.Lambda * s.prices[k]
	s.prices[k] -= cut
	if s.prices[k] < s.cfg.PriceFloor {
		s.prices[k] = s.cfg.PriceFloor
	}
	s.stats.PriceDns++
}

func (s *Seller) mustClass(k int) {
	if k < 0 || k >= len(s.costs) {
		panic(fmt.Sprintf("market: class %d out of range [0,%d)", k, len(s.costs)))
	}
}

// Snapshot is a seller's persistent state: everything a node needs to
// resume its market position after a restart. Learned prices are the
// valuable part — they encode the node's view of the demand it has seen.
// Per-period state (remaining supply, work accepted)
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
		Prices: append([]float64(nil), s.prices...),
		Carry:  s.carry,
		Stats:  s.stats,
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
