package market

// Telemetry is a per-period observability snapshot of one seller's
// market state: the private price vector, the supply picture for the
// current period, and the lifetime trading counters. It exists so the
// exposition layer (the node's /metrics endpoint) can render per-class
// prices and trading-failure counts without reaching into the seller
// piecemeal under the node lock; cluster.MarketTelemetry is its wire
// form.
type Telemetry struct {
	// Classes is K, the number of query classes the seller distinguishes.
	Classes int
	// Active reports whether pricing currently restricts supply.
	Active bool
	// Prices is a copy of the private per-class price vector.
	Prices []float64
	// Planned, Remaining, and Accepted describe the current period: the
	// supply vector chosen by the last solve of eq. (4) (BeginPeriod's,
	// or a mid-period re-plan), the unsold portion of it, and the
	// per-class work accepted since the period began.
	Planned   []int
	Remaining []int
	Accepted  []int
	// Stats are the lifetime trading counters.
	Stats
}

// Telemetry captures the seller's full observable state in one call.
// Every slice is a copy; the caller may retain or mutate the snapshot
// freely. Like the rest of the Seller API it must run under the
// caller's synchronization.
func (s *Seller) Telemetry() Telemetry {
	return Telemetry{
		Classes:   len(s.costs),
		Active:    s.Active(),
		Prices:    s.prices.Clone(),
		Planned:   s.planned.Clone(),
		Remaining: s.supply.Clone(),
		Accepted:  s.accepted.Clone(),
		Stats:     s.stats,
	}
}
