package experiments

import (
	"fmt"
	"math/rand"
	"sync"
	"time"

	"github.com/qamarket/qamarket/internal/cluster"
	"github.com/qamarket/qamarket/internal/engine"
	"github.com/qamarket/qamarket/internal/market"
)

// Figure7Options sizes the real-cluster experiment. The paper ran 300
// queries with uniform inter-arrival averaging 300 ms and 400 ms over
// 5 heterogeneous PCs (fastest ~1 s per query, slowest ~14 s); the
// defaults compress the time axis ~20x so the experiment finishes in
// seconds while preserving the heterogeneity ratios.
type Figure7Options struct {
	Nodes         int
	Queries       int
	Interarrivals []time.Duration // one experiment run per entry
	MsPerCostUnit float64
	PeriodMs      int64
	Slowdowns     []float64 // per-node heterogeneity, len == Nodes
	// IOSlowdowns and CPUSlowdowns, when set, give each node independent
	// disk and processor factors (comparative advantage between scan-
	// heavy and join-heavy query classes). When nil, Slowdowns applies
	// uniformly.
	IOSlowdowns  []float64
	CPUSlowdowns []float64
	WirelessNode int // index of the node behind the slow link, -1 = none
	LinkLatency  time.Duration
	// ExecNoise is the per-query execution-time variability (fraction),
	// modeling the buffer effects that made the paper's EXPLAIN
	// estimates unreliable.
	ExecNoise float64
	// TemplatesPerJoin controls workload diversity: this many templates
	// are generated at each join count 0–3.
	TemplatesPerJoin int
	// ActivationThreshold, when positive, enables the Section 5.1
	// deployment mode: nodes track prices continuously but restrict
	// supply only once a class price exceeds the threshold (their local
	// overload signal).
	ActivationThreshold float64
	// ExplainFraction is the planning latency as a fraction of the
	// query's execution time on the node (the paper's slow PC needed up
	// to 3 s per EXPLAIN).
	ExplainFraction float64
	Seed            int64
}

// DefaultFigure7 mirrors the paper's setup, time-compressed.
func DefaultFigure7() Figure7Options {
	return Figure7Options{
		Nodes:   5,
		Queries: 300,
		// The paper's 300/400 ms inter-arrivals kept the federation in
		// mild overload; these gaps preserve that regime on the
		// compressed time axis.
		Interarrivals:       []time.Duration{40 * time.Millisecond, 50 * time.Millisecond},
		MsPerCostUnit:       0.03,
		PeriodMs:            100,
		Slowdowns:           []float64{1, 2, 4, 8, 14},
		IOSlowdowns:         []float64{1, 6, 2, 3, 14},
		CPUSlowdowns:        []float64{1, 2, 6, 8, 3},
		WirelessNode:        4,
		LinkLatency:         5 * time.Millisecond,
		ExecNoise:           0.5,
		TemplatesPerJoin:    4,
		ActivationThreshold: 2.0,
		ExplainFraction:     0.15,
		Seed:                1,
	}
}

// Figure7Run is one bar group of Figure 7.
type Figure7Run struct {
	Interarrival time.Duration
	Mechanism    cluster.Mechanism
	MeanAssignMs float64 // time to pick the executing node
	MeanTotalMs  float64 // assignment + queue + execution
	MeanExecMs   float64 // pure execution time at the chosen node
	Completed    int
	Failed       int
	// PerNode counts executed queries per node (allocation spread).
	PerNode []int
}

// Figure7Result is both experiment runs for both mechanisms.
type Figure7Result struct {
	Runs []Figure7Run
}

// Figure7 stands up a real TCP federation (one sqldb per node) and
// replays the paper's workload under Greedy and QA-NT.
func Figure7(opt Figure7Options) (Figure7Result, error) {
	if opt.Nodes <= 0 || len(opt.Slowdowns) != opt.Nodes {
		return Figure7Result{}, fmt.Errorf("experiments: figure 7 needs %d slowdowns", opt.Nodes)
	}
	rng := rand.New(rand.NewSource(opt.Seed))
	p := cluster.Figure7Params()
	p.Nodes = opt.Nodes
	p.RowsPerTable = 200
	ds, err := cluster.GenerateDataset(p, rng)
	if err != nil {
		return Figure7Result{}, err
	}
	// Mixed join counts give the workload the cost diversity of the
	// paper's star queries (~1 s on the fastest PC, ~14 s on the
	// slowest): the market exploits it by steering cheap classes to
	// slow nodes.
	perJoin := opt.TemplatesPerJoin
	if perJoin <= 0 {
		perJoin = 8
	}
	var templates []cluster.QueryTemplate
	for _, joins := range []int{0, 1, 2, 3} {
		ts, err := ds.GenerateTemplates(perJoin, joins, rng)
		if err != nil {
			return Figure7Result{}, err
		}
		templates = append(templates, ts...)
	}
	var result Figure7Result
	for _, mech := range []cluster.Mechanism{cluster.MechGreedy, cluster.MechQANT} {
		for _, gap := range opt.Interarrivals {
			run, err := figure7Run(opt, ds, templates, mech, gap)
			if err != nil {
				return Figure7Result{}, err
			}
			result.Runs = append(result.Runs, run)
		}
	}
	return result, nil
}

func figure7Run(opt Figure7Options, ds *cluster.Dataset, templates []cluster.QueryTemplate, mech cluster.Mechanism, gap time.Duration) (Figure7Run, error) {
	// Fresh servers per run so market state and history don't leak
	// between mechanisms.
	addrs := make([]string, opt.Nodes)
	nodes := make([]*cluster.Node, opt.Nodes)
	for i := 0; i < opt.Nodes; i++ {
		mcfg := market.DefaultConfig(1)
		mcfg.ActivationThreshold = opt.ActivationThreshold
		cfg := cluster.NodeConfig{
			Driver:          engine.FromDB(ds.DBs[i]),
			Slowdown:        opt.Slowdowns[i],
			MsPerCostUnit:   opt.MsPerCostUnit,
			PeriodMs:        opt.PeriodMs,
			Market:          mcfg,
			ExecNoise:       opt.ExecNoise,
			NoiseSeed:       opt.Seed + int64(i),
			ExplainFraction: opt.ExplainFraction,
		}
		if len(opt.IOSlowdowns) == opt.Nodes {
			cfg.IOSlowdown = opt.IOSlowdowns[i]
		}
		if len(opt.CPUSlowdowns) == opt.Nodes {
			cfg.CPUSlowdown = opt.CPUSlowdowns[i]
		}
		if i == opt.WirelessNode {
			cfg.LinkLatency = opt.LinkLatency
		}
		n, err := cluster.StartNode("127.0.0.1:0", cfg)
		if err != nil {
			return Figure7Run{}, err
		}
		nodes[i] = n
		addrs[i] = n.Addr()
	}
	defer func() {
		for _, n := range nodes {
			n.Close()
		}
	}()
	client, err := cluster.NewClient(cluster.ClientConfig{
		Addrs:      addrs,
		Mechanism:  mech,
		PeriodMs:   opt.PeriodMs,
		MaxRetries: 200,
		Timeout:    10 * time.Second,
	})
	if err != nil {
		return Figure7Run{}, err
	}
	defer client.Close()
	rng := rand.New(rand.NewSource(opt.Seed + int64(gap)))
	outcomes := make([]cluster.Outcome, opt.Queries)
	var wg sync.WaitGroup
	for qi := 0; qi < opt.Queries; qi++ {
		// Uniform inter-arrival with the requested mean (paper: uniform
		// distribution, 300/400 ms average).
		time.Sleep(time.Duration(rng.Int63n(int64(2 * gap))))
		wg.Add(1)
		go func(qi int, sql string) {
			defer wg.Done()
			outcomes[qi] = client.Run(int64(qi), sql)
		}(qi, templates[rng.Intn(len(templates))].Instantiate(rng))
	}
	wg.Wait()
	run := Figure7Run{Interarrival: gap, Mechanism: mech, PerNode: make([]int, opt.Nodes)}
	// Outcomes name nodes by stable membership ID; map them back onto
	// the figure's positional axes.
	nodeIndex := make(map[string]int, opt.Nodes)
	for i, n := range nodes {
		nodeIndex[n.ID()] = i
	}
	var assign, total, exec float64
	for _, out := range outcomes {
		if out.Err != nil {
			run.Failed++
			continue
		}
		run.Completed++
		assign += out.AssignMs
		total += out.TotalMs
		exec += out.ExecMs
		if i, ok := nodeIndex[out.Node]; ok {
			run.PerNode[i]++
		}
	}
	if run.Completed > 0 {
		run.MeanAssignMs = assign / float64(run.Completed)
		run.MeanTotalMs = total / float64(run.Completed)
		run.MeanExecMs = exec / float64(run.Completed)
	}
	return run, nil
}
