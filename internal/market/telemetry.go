package market

// Telemetry is a per-period observability snapshot of one agent's
// market state: the private price vector, the supply picture for the
// current period, and the lifetime trading counters. It exists so the
// exposition layer (the node's /metrics endpoint) can render per-class
// prices and trading-failure counts without reaching into the agent
// piecemeal under the node lock.
type Telemetry struct {
	// Classes is K, the number of query classes the agent distinguishes.
	Classes int `json:"classes"`
	// Active reports whether pricing currently restricts supply.
	Active bool `json:"active"`
	// Prices is a copy of the private per-class price vector.
	Prices []float64 `json:"prices"`
	// Planned, Remaining, and Accepted describe the current period: the
	// supply vector chosen by the last solve of eq. (4) (BeginPeriod's,
	// or a Seller's mid-period re-plan), the unsold portion of it, and
	// the per-class work accepted since the period began.
	Planned   []int `json:"planned"`
	Remaining []int `json:"remaining"`
	Accepted  []int `json:"accepted"`
	// Lifetime trading counters (see Stats).
	Periods  int `json:"periods"`
	Offers   int `json:"offers"`
	Accepts  int `json:"accepts"`
	Rejects  int `json:"rejects"`
	Unsold   int `json:"unsold"`
	PriceUps int `json:"price_ups"`
	PriceDns int `json:"price_dns"`
}

// Telemetry captures the agent's full observable state in one call.
// Every slice is a copy; the caller may retain or mutate the snapshot
// freely. Like the rest of the Agent API it must run under the
// caller's synchronization.
func (a *Agent) Telemetry() Telemetry {
	s := a.stats
	return Telemetry{
		Classes:   a.cfg.Classes,
		Active:    a.Active(),
		Prices:    a.prices.Clone(),
		Planned:   a.planned.Clone(),
		Remaining: a.supply.Clone(),
		Accepted:  a.accepted.Clone(),
		Periods:   s.Periods,
		Offers:    s.Offers,
		Accepts:   s.Accepts,
		Rejects:   s.Rejects,
		Unsold:    s.Unsold,
		PriceUps:  s.PriceUps,
		PriceDns:  s.PriceDns,
	}
}
