package experiments

import (
	"crypto/sha256"
	"fmt"
	"hash"
	"math"
	"math/rand"
	"testing"

	"github.com/qamarket/qamarket/internal/alloc"
	"github.com/qamarket/qamarket/internal/market"
)

// TestGoldenSimulatorOutput pins seeded simulator output bit for bit.
// The digests were recorded at the commit before the QA-NT loop moved
// into market.Seller (PR 25); TestDeterministicAcrossRuns and the
// parallel-vs-sequential tests only compare a run with itself, so
// without this table a refactor that reorders one float operation in
// the capacity ledger would pass every test while moving every figure.
// A digest covers the exact float bits of each series and, for the
// direct run, every per-query sample plus every agent's final prices.
//
// A mismatch means seeded results changed. If that is intended, say so
// in CHANGES.md and re-record with the digest the failure prints.
func TestGoldenSimulatorOutput(t *testing.T) {
	cases := []struct {
		name string
		want string
		run  func(h hash.Hash) error
	}{
		{"figure4", "718d9c9c720b517d", func(h hash.Hash) error {
			res, err := Figure4(Quick())
			for _, name := range mechanismNames {
				hashFloats(h, res.MeanMs[name], res.Normalized[name])
			}
			return err
		}},
		{"figure5a", "1013355ba4cc2ab1", func(h hash.Hash) error {
			res, err := Figure5a(Quick())
			hashPoints(h, res.Points)
			return err
		}},
		{"figure6", "c395c8a252fe090e", func(h hash.Hash) error {
			res, err := Figure6(Quick())
			hashPoints(h, res.Points)
			return err
		}},
		{"sim partial adoption", "9b355bb50d75805c", func(h hash.Hash) error {
			mech := alloc.NewQANT(market.DefaultConfig(2))
			mech.Adopters = make(map[int]bool)
			for n := 0; n < Quick().Nodes; n += 2 {
				mech.Adopters[n] = true
			}
			return hashOverloadRun(h, mech)
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			h := sha256.New()
			if err := tc.run(h); err != nil {
				t.Fatal(err)
			}
			if got := fmt.Sprintf("%x", h.Sum(nil)[:8]); got != tc.want {
				t.Errorf("digest %s, want %s: seeded simulator output moved", got, tc.want)
			}
		})
	}
}

// hashOverloadRun replays the two-class fixture's 150 % sinusoid under
// mech and digests every completed query and every agent's prices.
func hashOverloadRun(h hash.Hash, mech *alloc.QANT) error {
	s := Quick()
	f, err := newTwoClassFixture(s)
	if err != nil {
		return err
	}
	rng := rand.New(rand.NewSource(s.Seed + 2500))
	as := f.sinusoidArrivals(s, 0.05, 1.5, int64(s.DurationS)*1000, rng)
	sum, col, err := runOne(s, f.cat, f.templates, mech, as)
	if err != nil {
		return err
	}
	fmt.Fprintf(h, "%+v\n", sum)
	for _, smp := range col.Samples() {
		fmt.Fprintf(h, "%+v\n", smp)
	}
	for n, s := range mech.Sellers() {
		if s != nil {
			fmt.Fprintf(h, "node %d %+v:", n, s.Stats())
			hashFloats(h, s.Prices()...)
		}
	}
	return nil
}

func hashPoints(h hash.Hash, ps []Point) {
	for _, p := range ps {
		hashFloats(h, p.X, p.Y)
	}
}

func hashFloats(h hash.Hash, vs ...float64) {
	for _, v := range vs {
		fmt.Fprintf(h, "%016x\n", math.Float64bits(v))
	}
}
