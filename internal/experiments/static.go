package experiments

import (
	"math/rand"

	"github.com/qamarket/qamarket/internal/alloc"
	"github.com/qamarket/qamarket/internal/market"
	"github.com/qamarket/qamarket/internal/metrics"
	"github.com/qamarket/qamarket/internal/workload"
)

// StaticResult compares mechanisms under a *static* workload — the
// regime where Section 4 grants the centralized Markov reference [4]
// its "Excellent" rating and claims QA-NT "comes close".
type StaticResult struct {
	MeanMs     map[string]float64
	Normalized map[string]float64 // vs the Markov reference
}

// StaticWorkload runs a constant-rate two-class workload at the given
// fraction of system capacity through QA-NT, Greedy, Random and the
// Markov reference.
func StaticWorkload(s Scale, loadFrac float64) (StaticResult, error) {
	f, err := newTwoClassFixture(s)
	if err != nil {
		return StaticResult{}, err
	}
	rng := rand.New(rand.NewSource(s.Seed + 900))
	durationMs := int64(s.DurationS) * 1000
	// Constant Poisson-ish arrivals: class 0 at 2/3 of the blended
	// rate, class 1 at 1/3 (the experiments' 2:1 mix).
	rate := loadFrac * f.capacity // queries per second
	var arrivals []workload.Arrival
	for class, share := range []float64{2.0 / 3, 1.0 / 3} {
		classRate := rate * share
		if classRate <= 0 {
			continue
		}
		gap := 1000 / classRate // ms
		for at := gap * rng.Float64(); at < float64(durationMs); {
			arrivals = append(arrivals, workload.Arrival{
				At: int64(at), Class: class, Origin: rng.Intn(s.Nodes),
			})
			// Exponential gaps give a memoryless (static) stream.
			at += gap * expVariate(rng)
		}
	}
	workload.Sort(arrivals)

	// The Markov reference is centralized and receives the true class
	// rates — the autonomy-violating knowledge Section 4 criticizes.
	rates := []float64{rate * 2 / 3, rate / 3}
	names := []string{"greedy", "markov", "qa-nt", "random"}
	newMech := func(name string) alloc.Mechanism {
		switch name {
		case "qa-nt":
			return alloc.NewQANT(market.DefaultConfig(2))
		case "greedy":
			return alloc.NewGreedy()
		case "random":
			return alloc.NewRandom(rand.New(rand.NewSource(s.Seed)))
		default:
			return alloc.NewMarkov(rates)
		}
	}
	means := make([]float64, len(names))
	err = forEach(s.workers(), len(names), func(i int) error {
		sum, _, err := runOne(s, f.cat, f.templates, newMech(names[i]), arrivals)
		if err != nil {
			return err
		}
		means[i] = sum.MeanRespMs
		return nil
	})
	if err != nil {
		return StaticResult{}, err
	}
	res := StaticResult{MeanMs: make(map[string]float64, len(names))}
	for i, name := range names {
		res.MeanMs[name] = means[i]
	}
	norm, err := metrics.Normalize(res.MeanMs, "markov")
	if err != nil {
		return StaticResult{}, err
	}
	res.Normalized = norm
	return res, nil
}

// expVariate draws a unit-mean exponential variate.
func expVariate(rng *rand.Rand) float64 {
	return rng.ExpFloat64()
}
