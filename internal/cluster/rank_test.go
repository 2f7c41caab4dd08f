package cluster

import (
	"errors"
	"testing"
)

// TestRankOffers maps one query's CFP outcomes onto market.Rank: only
// feasible offers become candidates, earliest queue+estimate first with
// ties in member order; typed refusals are tallied and, like any
// answer, make the round reachable; transport failures do neither.
func TestRankOffers(t *testing.T) {
	members := make([]*nodeState, 9)
	for i := range members {
		members[i] = &nodeState{id: string(rune('a' + i))}
	}
	offer := func(queue, est float64) negOutcome {
		return negOutcome{hasRep: true, rep: negotiateReply{Feasible: true, Offer: true, QueueMs: queue, EstimateMs: est}}
	}
	outs := []negOutcome{
		{refusal: CodeOverload},
		{refusal: CodeExpired},
		{err: errors.New("dial refused")},
		offer(0, 30),
		offer(20, 5),
		{hasRep: true, rep: negotiateReply{Offer: true, EstimateMs: 1}},    // infeasible
		{hasRep: true, rep: negotiateReply{Feasible: true, EstimateMs: 1}}, // refused
		offer(0, 25),
		{}, // answered without a reply body
	}
	pr, reachable := rankOffers(members, outs)
	if !reachable || pr.overloads != 1 || pr.expireds != 1 {
		t.Fatalf("reachable=%v overloads=%d expireds=%d; want true, 1, 1", reachable, pr.overloads, pr.expireds)
	}
	var got string
	for _, ns := range pr.ranked {
		got += ns.id
	}
	if got != "ehd" {
		t.Fatalf("ladder %q, want %q", got, "ehd")
	}

	pr, reachable = rankOffers(members[2:3], outs[2:3])
	if reachable || pr.ranked != nil {
		t.Fatalf("all failed: reachable=%v ladder=%v; want false, nil", reachable, pr.ranked)
	}
}
