// Package market implements the paper's primary contribution: the QA-NT
// non-tâtonnement query-market agent of Section 3.3.
//
// Each server node runs one Agent. The agent keeps a *private* price
// table over its own query classes (prices are never exchanged over the
// network, preserving node autonomy), and in every time period τ:
//
//  1. BeginPeriod solves eq. (4) — max_{s∈S_i} p·s — to produce the
//     node's supply vector for the period;
//  2. for every incoming request, Offer answers whether the node offers
//     to evaluate the query (s_ik > 0); on rejection the class price is
//     raised by λ·p_k (excess demand signal); Accept burns one unit of
//     supply when a client takes the offer;
//  3. EndPeriod lowers the price of every class with unsold supply by
//     s_ik·λ·p_k (excess supply signal).
//
// Trading failures are the only price-adjustment signal, exactly as in
// the QA-NT listing; Proposition 3.1 (via the non-tâtonnement literature)
// guarantees convergence of excess demand to zero.
package market

import (
	"errors"
	"fmt"

	"github.com/qamarket/qamarket/internal/economics"
	"github.com/qamarket/qamarket/internal/vector"
)

// Config parameterizes a QA-NT agent.
type Config struct {
	// Classes is K, the number of query classes this node distinguishes.
	// Classification is private to the node (Section 2.1): different
	// nodes may use different K without harming the mechanism.
	Classes int
	// Lambda is the price-adjustment step λ of eq. (6) and of the QA-NT
	// listing. Larger values converge in fewer periods but estimate the
	// equilibrium prices less accurately.
	Lambda float64
	// InitialPrice seeds every class price (defaults to 1).
	InitialPrice float64
	// PriceFloor and PriceCap clamp prices to keep the multiplicative
	// recursion numerically safe over unbounded runs. Defaults: 1e-6 and
	// 1e6.
	PriceFloor, PriceCap float64
	// ActivationThreshold implements the Section 5.1 deployment advice:
	// the agent always tracks prices, but its Seller only restricts
	// supply through them when some price exceeds the threshold (a
	// decentralized signal that the system is overloaded). Zero means
	// "always active". A bare Agent has no budget to fall back on and
	// always sells from its plan; the threshold only drives Active.
	ActivationThreshold float64
	// MaxAdjustsPerPeriod bounds how many upward adjustments a single
	// class may receive within one period, preventing price blow-up when
	// thousands of requests for one class arrive in one τ. Zero means
	// unbounded (the literal paper listing).
	MaxAdjustsPerPeriod int
}

func (c *Config) applyDefaults() error {
	if c.Lambda <= 0 {
		return errors.New("market: Lambda must be positive")
	}
	if c.Lambda >= 1 {
		return errors.New("market: Lambda must be below 1 (price updates are multiplicative)")
	}
	if c.InitialPrice <= 0 {
		c.InitialPrice = 1
	}
	if c.PriceFloor <= 0 {
		c.PriceFloor = 1e-6
	}
	if c.PriceCap <= 0 {
		c.PriceCap = 1e6
	}
	if c.PriceFloor >= c.PriceCap {
		return fmt.Errorf("market: price floor %g >= cap %g", c.PriceFloor, c.PriceCap)
	}
	return nil
}

// DefaultConfig returns the configuration used throughout the paper's
// experiments: λ=0.1, unit initial prices, always-active pricing.
func DefaultConfig(classes int) Config {
	return Config{Classes: classes, Lambda: 0.1, InitialPrice: 1}
}

// Agent is one node's QA-NT market participant. It is not safe for
// concurrent use; wrap it in the caller's synchronization (the cluster
// package serializes access per node).
type Agent struct {
	cfg      Config
	set      economics.SupplySet
	prices   vector.Prices
	supply   vector.Quantity // remaining offers in the current period
	planned  vector.Quantity // supply vector chosen by the last solve of eq. (4)
	accepted vector.Quantity // sales in the current period, reset by BeginPeriod
	adjusts  []int           // upward adjustments per class this period

	// Stats accumulate across the agent's lifetime.
	stats Stats
}

// Stats counts the agent's market activity.
type Stats struct {
	Periods  int // completed periods
	Offers   int // requests answered with an offer
	Accepts  int // offers accepted by clients
	Rejects  int // requests refused (no supply left)
	Unsold   int // supply units left unsold at period ends
	PriceUps int // upward price adjustments
	PriceDns int // downward price adjustments
}

// NewAgent builds an agent over the node's supply set. The supply set
// encodes the node's capabilities S_i (Section 2.2): which classes it
// can evaluate and how many fit in one period.
func NewAgent(set economics.SupplySet, cfg Config) (*Agent, error) {
	if cfg.Classes <= 0 {
		return nil, errors.New("market: Classes must be positive")
	}
	if err := cfg.applyDefaults(); err != nil {
		return nil, err
	}
	if set == nil {
		return nil, errors.New("market: nil supply set")
	}
	a := &Agent{cfg: cfg, set: set}
	a.cfg.Classes = 0
	for k := 0; k < cfg.Classes; k++ {
		a.addClass()
	}
	return a, nil
}

// addClass grows every per-class vector by one class, in place: the new
// class starts at the initial price with nothing planned, while the
// other classes keep their prices, their remaining supply, their
// per-period adjustment counts and the lifetime counters.
func (a *Agent) addClass() {
	a.cfg.Classes++
	a.prices = append(a.prices, a.cfg.InitialPrice)
	a.supply = append(a.supply, 0)
	a.planned = append(a.planned, 0)
	a.accepted = append(a.accepted, 0)
	a.adjusts = append(a.adjusts, 0)
}

// replan solves eq. (4) over set against the current prices and
// installs the result as the supply on offer.
func (a *Agent) replan(set economics.SupplySet) {
	a.set = set
	a.planned = set.BestResponse(a.prices)
	a.supply = a.planned.Clone()
}

// BeginPeriod starts a new time period τ: it solves eq. (4) against the
// current private prices and installs the resulting supply vector.
func (a *Agent) BeginPeriod() {
	a.replan(a.set)
	clear(a.accepted)
	clear(a.adjusts)
}

// Active reports whether market pricing currently restricts supply. With
// a zero ActivationThreshold the agent is always active; otherwise it
// activates once any class price exceeds the threshold (the node's local
// overload signal, Section 5.1).
func (a *Agent) Active() bool {
	if a.cfg.ActivationThreshold <= 0 {
		return true
	}
	for _, p := range a.prices {
		if p > a.cfg.ActivationThreshold {
			return true
		}
	}
	return false
}

// Offer implements steps 4–10 of the QA-NT listing for one incoming
// request of class k. It returns true when the node offers to evaluate
// the query (s_ik > 0). When it returns false the price of k has
// already been raised by λ·p_k — the trading failure is the price
// signal.
func (a *Agent) Offer(k int) bool {
	a.mustClass(k)
	return a.answer(k, a.supply[k] > 0)
}

// answer records the reply to one request of class k: an offer, or a
// refusal, which raises the class's price.
func (a *Agent) answer(k int, offer bool) bool {
	if offer {
		a.stats.Offers++
	} else {
		a.stats.Rejects++
		a.raise(k)
	}
	return offer
}

// Accept records that a client accepted this node's offer for one
// class-k query (step 6: s_ik = s_ik − 1). It returns an error if no
// offered supply remains, which indicates a protocol violation by the
// caller (accepting more than was offered).
func (a *Agent) Accept(k int) error {
	a.mustClass(k)
	if a.supply[k] <= 0 {
		return fmt.Errorf("market: accept of class %d without remaining supply", k)
	}
	a.supply[k]--
	a.sold(k)
	return nil
}

// sold counts one class-k sale.
func (a *Agent) sold(k int) {
	a.accepted[k]++
	a.stats.Accepts++
}

// EndPeriod implements steps 12–14: every class with unsold supply has
// its price cut by s_ik·λ·p_k, then the period counters reset. Call
// BeginPeriod to start the next period.
func (a *Agent) EndPeriod() {
	for k, left := range a.supply {
		if left > 0 {
			a.stats.Unsold += left
			a.lower(k, left)
		}
	}
	a.stats.Periods++
}

// Prices returns a copy of the node's private price vector. Exposed for
// observability; QA-NT never sends prices to other nodes.
func (a *Agent) Prices() vector.Prices { return a.prices.Clone() }

// RemainingSupply returns a copy of the unsold portion of the current
// period's supply vector.
func (a *Agent) RemainingSupply() vector.Quantity { return a.supply.Clone() }

// PlannedSupply returns a copy of the supply vector chosen by the last
// solve of eq. (4) (its s_i*): BeginPeriod's, or a Seller's mid-period
// re-plan over what was left.
func (a *Agent) PlannedSupply() vector.Quantity { return a.planned.Clone() }

// Accepted returns a copy of the per-class counts of work accepted in
// the current period.
func (a *Agent) Accepted() vector.Quantity { return a.accepted.Clone() }

// Stats returns a snapshot of the agent's lifetime counters.
func (a *Agent) Stats() Stats { return a.stats }

func (a *Agent) raise(k int) {
	if a.cfg.MaxAdjustsPerPeriod > 0 && a.adjusts[k] >= a.cfg.MaxAdjustsPerPeriod {
		return
	}
	a.adjusts[k]++
	a.prices[k] += a.cfg.Lambda * a.prices[k]
	if a.prices[k] > a.cfg.PriceCap {
		a.prices[k] = a.cfg.PriceCap
	}
	a.stats.PriceUps++
}

func (a *Agent) lower(k, unsold int) {
	cut := float64(unsold) * a.cfg.Lambda * a.prices[k]
	a.prices[k] -= cut
	if a.prices[k] < a.cfg.PriceFloor {
		a.prices[k] = a.cfg.PriceFloor
	}
	a.stats.PriceDns++
}

func (a *Agent) mustClass(k int) {
	if k < 0 || k >= a.cfg.Classes {
		panic(fmt.Sprintf("market: class %d out of range [0,%d)", k, a.cfg.Classes))
	}
}
