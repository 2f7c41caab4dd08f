package market

import (
	"math/rand"
	"slices"
	"testing"
)

func TestRank(t *testing.T) {
	cases := []struct {
		name string
		bids []Bid
		want []int
	}{
		{"empty", nil, []int{}},
		{"nobody offers", []Bid{{EstimateMs: 1}, {EstimateMs: 2}}, []int{}},
		{"earliest finish first",
			[]Bid{{EstimateMs: 30, Offer: true}, {EstimateMs: 10, Offer: true}, {EstimateMs: 20, Offer: true}},
			[]int{1, 2, 0}},
		{"queue and estimate are summed",
			[]Bid{{QueueMs: 0, EstimateMs: 400, Offer: true}, {QueueMs: 100, EstimateMs: 250, Offer: true}, {QueueMs: 300, EstimateMs: 150, Offer: true}},
			[]int{1, 0, 2}},
		{"ties keep input order",
			[]Bid{{QueueMs: 5, EstimateMs: 5, Offer: true}, {EstimateMs: 1, Offer: true}, {QueueMs: 10, Offer: true}, {EstimateMs: 10, Offer: true}},
			[]int{1, 0, 2, 3}},
		{"non-offers are left out",
			[]Bid{{EstimateMs: 1}, {EstimateMs: 5, Offer: true}, {EstimateMs: 2}, {EstimateMs: 3, Offer: true}},
			[]int{3, 1}},
		{"many ties and refusals across 50 bids",
			func() []Bid {
				bids := make([]Bid, 50)
				for i := range bids {
					bids[i] = Bid{QueueMs: float64(i % 5), EstimateMs: 1, Offer: i%7 != 0}
				}
				return bids
			}(),
			[]int{
				5, 10, 15, 20, 25, 30, 40, 45, // finish 1
				1, 6, 11, 16, 26, 31, 36, 41, 46, // finish 2
				2, 12, 17, 22, 27, 32, 37, 47, // finish 3
				3, 8, 13, 18, 23, 33, 38, 43, 48, // finish 4
				4, 9, 19, 24, 29, 34, 39, 44, // finish 5
			}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if got := Rank(tc.bids, nil); !slices.Equal(got, tc.want) {
				t.Errorf("Rank = %v, want %v", got, tc.want)
			}
			want := -1
			if len(tc.want) > 0 {
				want = tc.want[0]
			}
			if got := best(tc.bids); got != want {
				t.Errorf("Best took %d, want %d", got, want)
			}
		})
	}
}

// TestRankReusesLadder holds Rank to no allocation once the caller's
// ladder has room.
func TestRankReusesLadder(t *testing.T) {
	bids := []Bid{{EstimateMs: 3, Offer: true}, {EstimateMs: 1, Offer: true}, {EstimateMs: 2}}
	ladder := make([]int, 0, len(bids))
	if n := testing.AllocsPerRun(100, func() { ladder = Rank(bids, ladder) }); n != 0 {
		t.Errorf("Rank allocated %v times per call with a ladder of room", n)
	}
	if want := []int{1, 0}; !slices.Equal(ladder, want) {
		t.Errorf("Rank = %v, want %v", ladder, want)
	}
}

// best folds bids through Best.Take and returns the index of the last
// bid it took, -1 when it took none.
func best(bids []Bid) int {
	var b Best
	at := -1
	for i, bid := range bids {
		if b.Take(bid) {
			at = i
		}
	}
	return at
}

// TestBestIsRankFirstRung holds Best to Rank's first rung over random
// bids with many ties and refusals.
func TestBestIsRankFirstRung(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	var ladder []int
	for trial := 0; trial < 2000; trial++ {
		bids := make([]Bid, rng.Intn(12))
		for i := range bids {
			bids[i] = Bid{QueueMs: float64(rng.Intn(4)), EstimateMs: float64(rng.Intn(4)), Offer: rng.Intn(3) > 0}
		}
		ladder = Rank(bids, ladder)
		want := -1
		if len(ladder) > 0 {
			want = ladder[0]
		}
		if got := best(bids); got != want {
			t.Fatalf("bids %+v: Best took %d, Rank = %v", bids, got, ladder)
		}
	}
}
