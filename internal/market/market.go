// Package market implements the paper's primary contribution: the QA-NT
// non-tâtonnement query-market agent of Section 3.3.
//
// Each server node runs one Seller. The seller keeps a *private* price
// table over its own query classes (prices are never exchanged over the
// network, preserving node autonomy), and in every time period τ:
//
//  1. BeginPeriod solves eq. (4) — max_{s∈S_i} p·s — to produce the
//     node's supply vector for the period;
//  2. for every incoming request, Offer answers whether the node offers
//     to evaluate the query (s_ik > 0); on rejection the class price is
//     raised by λ·p_k (excess demand signal); Accept sells one unit
//     when a client takes the offer;
//  3. EndPeriod lowers the price of every class with unsold supply by
//     s_ik·λ·p_k (excess supply signal).
//
// Trading failures are the only price-adjustment signal, exactly as in
// the QA-NT listing; Proposition 3.1 (via the non-tâtonnement literature)
// guarantees convergence of excess demand to zero for the paper's agent
// over a fixed supply set (NewAgent).
package market

import (
	"errors"
	"fmt"

	"github.com/qamarket/qamarket/internal/economics"
)

// Config parameterizes a QA-NT seller.
type Config struct {
	// Classes is K, the number of query classes this node distinguishes.
	// Nothing reads it: a seller's cost table sets K and grows it
	// through AddClass. It stays because the benchmark's replay assigns
	// it.
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
	// the seller always tracks prices, but only restricts supply through
	// them when some price exceeds the threshold (a decentralized signal
	// that the system is overloaded). Zero means "always active".
	ActivationThreshold float64
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

// Stats counts the seller's market activity.
type Stats struct {
	Periods  int // completed periods
	Offers   int // requests answered with an offer
	Accepts  int // offers accepted by clients
	Rejects  int // requests refused (no supply left)
	Unsold   int // supply units left unsold at period ends
	PriceUps int // upward price adjustments
	PriceDns int // downward price adjustments
}

// NewAgent builds the paper's QA-NT agent (Section 3.3): a seller over
// the fixed supply set S_i = set, set.Budget milliseconds at set.Cost
// per class in every period. It saves nothing between periods and sells
// only the plan eq. (4) chose, whatever the activation threshold, so
// Proposition 3.1's claim is about it: a steady demand that eq. (4) can
// meet is met, even when refused queries are lost. A node's seller
// (NewSeller) banks unsold time and spends it in later plans, which
// serves a resubmitted backlog but over-plans when refused demand is
// lost. Only the tests, the pricedynamics example and the benchmark's
// replay build one.
func NewAgent(set economics.TimeBudgetSupplySet, cfg Config) (*Seller, error) {
	s, err := NewSeller(cfg, set.Budget, set.Cost)
	if err != nil {
		return nil, err
	}
	s.fixed = true
	return s, nil
}
