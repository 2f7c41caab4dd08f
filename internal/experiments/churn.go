package experiments

import (
	"fmt"
	"math/rand"
	"time"

	"github.com/qamarket/qamarket/internal/cluster"
	"github.com/qamarket/qamarket/internal/engine"
)

// ChurnOptions sizes the elastic-membership experiment: a founding
// federation of slow nodes serves a workload, a faster node joins the
// live market through gossip, and the same workload is replayed. The
// allocation mass shifting onto the joiner — with no client restart —
// is the market absorbing new supply, the elasticity the paper's
// autonomic framing promises (nodes "can enter and leave the market at
// will").
type ChurnOptions struct {
	// Nodes is the founding federation size.
	Nodes int
	// QueriesPerPhase is the workload length replayed before and after
	// the join.
	QueriesPerPhase int
	// FounderSlowdown and JoinerSlowdown set the speed gap the market
	// should exploit.
	FounderSlowdown, JoinerSlowdown float64
	MsPerCostUnit                   float64
	PeriodMs                        int64
	// GossipPeriodMs compresses the membership clock like PeriodMs
	// compresses the market clock.
	GossipPeriodMs int64
	Mechanism      cluster.Mechanism
	Seed           int64
}

// DefaultChurn keeps the experiment in the seconds range.
func DefaultChurn() ChurnOptions {
	return ChurnOptions{
		Nodes:           3,
		QueriesPerPhase: 30,
		FounderSlowdown: 4,
		JoinerSlowdown:  1,
		MsPerCostUnit:   0.01,
		PeriodMs:        25,
		GossipPeriodMs:  15,
		Mechanism:       cluster.MechGreedy,
		Seed:            17,
	}
}

// ChurnResult reports the allocation spread around the join.
type ChurnResult struct {
	// PrePerNode and PostPerNode count completed allocations per stable
	// node ID in each phase.
	PrePerNode, PostPerNode map[string]int
	// JoinerID names the late joiner.
	JoinerID string
	// JoinerShare is the joiner's fraction of phase-two completions.
	JoinerShare float64
	// DiscoveryMs is how long the (already running) client took to see
	// the joiner alive in its gossip-fed view.
	DiscoveryMs                 float64
	PreCompleted, PostCompleted int
}

// Churn runs the elastic-entry experiment over a real TCP federation.
func Churn(opt ChurnOptions) (ChurnResult, error) {
	if opt.Nodes <= 0 {
		return ChurnResult{}, fmt.Errorf("experiments: churn needs at least one founding node")
	}
	rng := rand.New(rand.NewSource(opt.Seed))
	ds, err := cluster.GenerateDataset(cluster.DatasetParams{
		Nodes: opt.Nodes + 1, Tables: 6, Views: 10, RowsPerTable: 60,
		MinCopies: opt.Nodes, MaxCopies: opt.Nodes + 1,
	}, rng)
	if err != nil {
		return ChurnResult{}, err
	}
	templates, err := ds.GenerateTemplates(4, 1, rng)
	if err != nil {
		return ChurnResult{}, err
	}

	start := func(i int, id string, seeds []string, slowdown float64) (*cluster.Node, error) {
		return cluster.StartNode("127.0.0.1:0", cluster.NodeConfig{
			Driver:         engine.FromDB(ds.DBs[i]),
			Slowdown:       slowdown,
			MsPerCostUnit:  opt.MsPerCostUnit,
			PeriodMs:       opt.PeriodMs,
			NodeID:         id,
			Seeds:          seeds,
			GossipPeriodMs: opt.GossipPeriodMs,
			MembershipSeed: opt.Seed + int64(i),
		})
	}
	var nodes []*cluster.Node
	defer func() {
		for _, n := range nodes {
			n.Close()
		}
	}()
	var seeds []string
	for i := 0; i < opt.Nodes; i++ {
		n, err := start(i, fmt.Sprintf("f%02d", i), seeds, opt.FounderSlowdown)
		if err != nil {
			return ChurnResult{}, err
		}
		nodes = append(nodes, n)
		if len(seeds) == 0 {
			seeds = []string{n.Addr()}
		}
	}

	client, err := cluster.NewClient(cluster.ClientConfig{
		Addrs:       seeds, // one seed: the rest arrives by gossip
		Mechanism:   opt.Mechanism,
		PeriodMs:    opt.PeriodMs,
		MaxRetries:  100,
		Timeout:     5 * time.Second,
		ViewRefresh: time.Duration(opt.GossipPeriodMs) * time.Millisecond,
	})
	if err != nil {
		return ChurnResult{}, err
	}
	defer client.Close()
	if err := awaitLive(client, opt.Nodes, 5*time.Second); err != nil {
		return ChurnResult{}, err
	}

	res := ChurnResult{
		PrePerNode:  make(map[string]int),
		PostPerNode: make(map[string]int),
		JoinerID:    "joiner",
	}
	phase := func(base int, perNode map[string]int) int {
		completed := 0
		for qi := 0; qi < opt.QueriesPerPhase; qi++ {
			out := client.Run(int64(base+qi), templates[qi%len(templates)].Instantiate(rng))
			if out.Err != nil {
				continue
			}
			completed++
			perNode[out.Node]++
		}
		return completed
	}
	res.PreCompleted = phase(0, res.PrePerNode)

	// Elastic entry: the faster node announces itself to one seed and
	// rides gossip from there into the running client's view.
	joined := time.Now()
	joiner, err := start(opt.Nodes, res.JoinerID, seeds, opt.JoinerSlowdown)
	if err != nil {
		return ChurnResult{}, err
	}
	nodes = append(nodes, joiner)
	if err := awaitLive(client, opt.Nodes+1, 5*time.Second); err != nil {
		return ChurnResult{}, err
	}
	res.DiscoveryMs = float64(time.Since(joined)) / float64(time.Millisecond)

	res.PostCompleted = phase(1000, res.PostPerNode)
	if res.PostCompleted > 0 {
		res.JoinerShare = float64(res.PostPerNode[res.JoinerID]) / float64(res.PostCompleted)
	}
	return res, nil
}

// awaitLive polls until the client's view holds want live members.
func awaitLive(c *cluster.Client, want int, budget time.Duration) error {
	deadline := time.Now().Add(budget)
	for time.Now().Before(deadline) {
		live := 0
		for _, m := range c.Members() {
			if m.State == "alive" || m.State == "suspect" {
				live++
			}
		}
		if live >= want {
			return nil
		}
		time.Sleep(5 * time.Millisecond)
	}
	return fmt.Errorf("experiments: client view never reached %d live members", want)
}
