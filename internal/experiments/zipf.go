package experiments

import (
	"fmt"
	"math/rand"

	"github.com/qamarket/qamarket/internal/catalog"
	"github.com/qamarket/qamarket/internal/costmodel"
	"github.com/qamarket/qamarket/internal/workload"
)

// Figure6Result is the heterogeneous-workload experiment: Greedy's
// normalized response time (vs QA-NT) as the mean query inter-arrival
// time varies. The paper reports QA-NT winning 13–26% under overload
// and the gain vanishing above ~17 s inter-arrival.
type Figure6Result struct {
	Points []Point // X = mean inter-arrival ms (per class), Y = greedy/qa-nt
}

// Figure6Gaps are the sweep points in milliseconds. The paper sweeps
// 10 ms – 20,000 ms; inter-arrival here is per class.
var Figure6Gaps = []float64{10, 100, 1000, 5000, 10000, 17000, 20000}

// figure6Fixture builds the Table 3 catalog and Zipf class universe.
func figure6Fixture(s Scale) (*catalog.Catalog, []costmodel.Template, error) {
	rng := rand.New(rand.NewSource(s.Seed + 600))
	p := catalog.Table3()
	p.Nodes = s.Nodes
	p.Relations = s.Relations
	p.HashJoinNodes = s.Nodes * 95 / 100
	cat, err := catalog.Generate(p, rng)
	if err != nil {
		return nil, nil, err
	}
	model := costmodel.New(cat)
	tp := workload.Table3Templates()
	tp.Classes = s.Classes
	tp.MaxJoins = s.MaxJoins
	ts, err := workload.GenerateTemplates(cat, model, tp, rng)
	if err != nil {
		return nil, nil, err
	}
	return cat, ts, nil
}

// Figure6 sweeps the Zipf workload intensity: every sweep point runs
// s.Queries queries, so the short gaps are the deep overload.
func Figure6(s Scale) (Figure6Result, error) {
	cat, ts, err := figure6Fixture(s)
	if err != nil {
		return Figure6Result{}, err
	}
	ys, err := ratioSweep(s, cat, ts, len(Figure6Gaps), func(i int) ([]workload.Arrival, error) {
		gap := Figure6Gaps[i]
		rng := rand.New(rand.NewSource(s.Seed + 700 + int64(i)))
		z := workload.Zipf{
			Classes:     s.Classes,
			NumQueries:  s.Queries,
			A:           1,
			MeanGapMs:   gap,
			MaxGapMs:    30000,
			OriginCount: s.Nodes,
		}
		as, err := z.Generate(rng)
		if err != nil {
			return nil, fmt.Errorf("figure 6 gap %g: %w", gap, err)
		}
		return as, nil
	})
	if err != nil {
		return Figure6Result{}, err
	}
	var out Figure6Result
	for i, gap := range Figure6Gaps {
		out.Points = append(out.Points, Point{X: gap, Y: ys[i]})
	}
	return out, nil
}
