package market

import "slices"

// Bid is one server's answer to a call for proposals for one query: the
// wait it predicts before the query would start, the execution time it
// estimates, and whether it offers at all.
type Bid struct {
	QueueMs, EstimateMs float64
	Offer               bool
}

// before is the buyer's one order (Section 3.3): b beats c when it would
// finish the query strictly earlier, QueueMs+EstimateMs.
func (b Bid) before(c Bid) bool { return b.QueueMs+b.EstimateMs < c.QueueMs+c.EstimateMs }

// Rank writes the indices of the bids that offer into ladder (from
// length zero), earliest finish first and ties in input order, and
// returns it: the failover ladder, empty when nobody offered. It
// allocates only when ladder's capacity is below len(bids).
func Rank(bids []Bid, ladder []int) []int {
	ladder = slices.Grow(ladder[:0], len(bids))
	for i, b := range bids {
		if b.Offer {
			ladder = append(ladder, i)
		}
	}
	slices.SortStableFunc(ladder, func(i, j int) int {
		switch {
		case bids[i].before(bids[j]):
			return -1
		case bids[j].before(bids[i]):
			return 1
		}
		return 0
	})
	return ladder
}

// Best is Rank's first rung taken as the bids arrive, for a buyer that
// never fails over: the offer that finishes earliest so far, the first
// of a tie. The zero value has seen no offer.
type Best struct {
	bid Bid
	ok  bool
}

// Take weighs one more bid and reports whether it is the new best.
func (b *Best) Take(bid Bid) bool {
	if !bid.Offer || b.ok && !bid.before(b.bid) {
		return false
	}
	b.bid, b.ok = bid, true
	return true
}
