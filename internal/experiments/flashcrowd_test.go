package experiments

import (
	"fmt"
	"math/rand"
	"sort"
	"sync"
	"testing"
	"time"

	"github.com/qamarket/qamarket/internal/autoscale"
	"github.com/qamarket/qamarket/internal/cluster"
	"github.com/qamarket/qamarket/internal/engine"
)

// TestFlashCrowdScalesAndBehaves runs the elasticity experiment at test
// scale and asserts the structural promises that hold regardless of
// machine noise: both legs complete work, the scaled leg actually grew
// past the static fleet during the spike, every controller action was
// bounded by max-step, and the cooldown spacing held. It checks the
// scaler's conduct, not its latency: the p99 ordering is a real-time
// measurement, reported over seeds in DESIGN.md §16, not asserted.
func TestFlashCrowdScalesAndBehaves(t *testing.T) {
	opt := DefaultFlashCrowd()
	opt.WavesPerPhase = 5
	res, err := FlashCrowd(opt)
	if err != nil {
		t.Fatal(err)
	}
	if res.StaticCompleted == 0 || res.ScaledCompleted == 0 {
		t.Fatalf("legs completed %d/%d queries", res.StaticCompleted, res.ScaledCompleted)
	}
	if res.PeakReplicas <= opt.BaseNodes {
		t.Errorf("spike never grew the federation: peak %d replicas from base %d",
			res.PeakReplicas, opt.BaseNodes)
	}
	if res.Launched == 0 {
		t.Error("controller never launched")
	}
	if res.MaxStepObserved > opt.MaxStep {
		t.Errorf("a decision moved %d replicas, max step is %d", res.MaxStepObserved, opt.MaxStep)
	}
	if !res.CooldownRespected {
		t.Error("actions violated the cooldown spacing")
	}
	if res.Decisions == 0 {
		t.Error("no decisions retained")
	}
	t.Logf("peak %d replicas (%d launched, %d drained), %d decisions, p99 static %.0fms scaled %.0fms",
		res.PeakReplicas, res.Launched, res.Drained, res.Decisions,
		res.StaticPeakP99Ms, res.ScaledPeakP99Ms)
}

func TestFlashCrowdRejectsBadOptions(t *testing.T) {
	if _, err := FlashCrowd(FlashCrowdOptions{}); err == nil {
		t.Error("zero-node flash crowd accepted")
	}
	bad := DefaultFlashCrowd()
	bad.MaxNodes = 0
	if _, err := FlashCrowd(bad); err == nil {
		t.Error("MaxNodes below BaseNodes accepted")
	}
}

// TestScalerDrainsAndExecutesOnce follows the autoscaler past the spike
// TestFlashCrowdScalesAndBehaves covers: rejection pressure on a single
// founder recruits a replica, then the load stops and sustained unsold
// supply must drain a recruit gracefully. Every decision carries a
// reason, and every completed query executed exactly once across the
// founder and the live and drained recruits.
func TestScalerDrainsAndExecutesOnce(t *testing.T) {
	const maxNodes, periodMs, wave, cooldown, maxStep = 4, 25, 10, 2, 1
	rng := rand.New(rand.NewSource(31))
	ds, err := cluster.GenerateDataset(cluster.DatasetParams{
		Nodes: maxNodes, Tables: 6, Views: 10, RowsPerTable: 60,
		MinCopies: maxNodes, MaxCopies: maxNodes,
	}, rng)
	if err != nil {
		t.Fatal(err)
	}
	templates, err := ds.GenerateTemplates(4, 1, rng)
	if err != nil {
		t.Fatal(err)
	}
	start := func(i int, id string, seeds []string) (*cluster.Node, error) {
		return cluster.StartNode("127.0.0.1:0", cluster.NodeConfig{
			Driver: engine.FromDB(ds.DBs[i]), Slowdown: 3, MsPerCostUnit: 0.01, PeriodMs: periodMs,
			NodeID: id, Seeds: seeds, GossipPeriodMs: 15,
		})
	}
	founder, err := start(0, "founder", nil)
	if err != nil {
		t.Fatal(err)
	}
	defer founder.CloseNow()
	seeds := []string{founder.Addr()}
	client, err := cluster.NewClient(cluster.ClientConfig{
		Addrs: seeds, Mechanism: cluster.MechQANT, PeriodMs: periodMs,
		MaxRetries: 100, Timeout: 5 * time.Second, ViewRefresh: 15 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()
	pool := &ReplicaPool{Start: func(seq int) (*cluster.Node, error) {
		if 1+seq >= maxNodes {
			return nil, fmt.Errorf("replica slot %d beyond %d", 1+seq, maxNodes)
		}
		return start(1+seq, fmt.Sprintf("r%02d", seq), seeds)
	}}
	defer pool.CloseAll()
	ctl, err := autoscale.New(autoscale.Config{
		Min: 1, Max: maxNodes, CapacityMs: periodMs, Alpha: 0.5,
		Warmup: 1, Cooldown: cooldown, MaxStep: maxStep,
	}, autoscale.ClientSource{Client: client}, pool)
	if err != nil {
		t.Fatal(err)
	}
	lastReasons := func() string {
		all := ctl.Decisions()
		out := ""
		for _, d := range all[max(0, len(all)-5):] {
			out += fmt.Sprintf("[tick %d: %s] ", d.Tick, d.Reason)
		}
		return out
	}

	// Each controller tick follows one synchronous wave of concurrent
	// queries and one market period.
	completed, qid := 0, int64(0)
	burst := func() {
		var wg sync.WaitGroup
		oks := make([]bool, wave)
		for i := range oks {
			sql := templates[rng.Intn(len(templates))].Instantiate(rng)
			qid++
			wg.Add(1)
			go func(ok *bool, id int64) {
				defer wg.Done()
				*ok = client.Run(id, sql).Err == nil
			}(&oks[i], qid)
		}
		wg.Wait()
		for _, ok := range oks {
			if ok {
				completed++
			}
		}
	}
	for round := 0; pool.Live() == 0; round++ {
		if round == 60 {
			t.Fatalf("pressure never recruited a replica: %s", lastReasons())
		}
		burst()
		ctl.Tick()
		time.Sleep(periodMs * time.Millisecond)
	}
	// More pressure, so the recruits absorb load before they are drained.
	for round := 0; round < 6; round++ {
		burst()
		ctl.Tick()
		time.Sleep(periodMs * time.Millisecond)
	}

	// Glut: the load stops and planned supply goes unsold every period.
	for round := 0; ; round++ {
		ctl.Tick()
		if _, drained := ctl.Totals(); drained >= 1 {
			break
		}
		if round == 80 {
			t.Fatalf("the glut never drained a recruit (%d live): %s", pool.Live(), lastReasons())
		}
		time.Sleep(2 * periodMs * time.Millisecond)
	}

	// The run holds a launch and a drain, so both directions' step bound
	// and the launch→drain spacing are checked here.
	lastAction := -cooldown
	for _, d := range ctl.Decisions() {
		if d.Reason == "" {
			t.Errorf("decision at tick %d has no reason", d.Tick)
		}
		if d.Action > maxStep || d.Action < -maxStep {
			t.Errorf("decision at tick %d moved %d replicas, max-step is %d", d.Tick, d.Action, maxStep)
		}
		if d.Action != 0 {
			if d.Tick-lastAction < cooldown {
				t.Errorf("actions at ticks %d and %d violate cooldown %d", lastAction, d.Tick, cooldown)
			}
			lastAction = d.Tick
		}
	}
	executed := founder.Executed()
	for _, n := range pool.Nodes() {
		executed += n.Executed()
	}
	if executed != completed {
		t.Errorf("%d completions but %d node executions across founder and recruits", completed, executed)
	}
	launched, drained := ctl.Totals()
	t.Logf("%d completed, %d decisions, %d launched, %d drained", completed, len(ctl.Decisions()), launched, drained)
}

// FlashCrowdOptions sizes the elasticity experiment: the same
// flash-crowd workload — quiet, a sudden arrival spike, quiet again —
// is driven twice over a real TCP federation, once against a static
// fleet and once with the market-driven autoscaler closing the
// telemetry loop. The comparison is the peak phase's tail latency: the
// static fleet saturates (queues, rejects, retries), the scaled fleet
// recruits supply into the spike.
type FlashCrowdOptions struct {
	// BaseNodes is the founding fleet — and the static baseline's
	// permanent size.
	BaseNodes int
	// MaxNodes caps the autoscaler (the dataset is replicated across
	// this many node slots up front).
	MaxNodes int
	// PhaseConcurrency is the flash-crowd shape: concurrent requesters
	// per wave in each phase, e.g. {2, 12, 2}.
	PhaseConcurrency []int
	// WavesPerPhase is how many synchronous waves each phase fires.
	WavesPerPhase int
	// Slowdown scales every node's execution cost (the knob that makes
	// the spike saturate a small fleet).
	Slowdown      float64
	MsPerCostUnit float64
	PeriodMs      int64
	// GossipPeriodMs compresses the membership clock like PeriodMs
	// compresses the market clock.
	GossipPeriodMs int64
	// Cooldown/MaxStep are the controller guardrails under test.
	Cooldown, MaxStep int
	Seed              int64
}

// DefaultFlashCrowd keeps the experiment in the seconds range.
func DefaultFlashCrowd() FlashCrowdOptions {
	return FlashCrowdOptions{
		BaseNodes:        1,
		MaxNodes:         5,
		PhaseConcurrency: []int{2, 12, 2},
		WavesPerPhase:    8,
		Slowdown:         3,
		MsPerCostUnit:    0.01,
		PeriodMs:         25,
		GossipPeriodMs:   15,
		Cooldown:         2,
		MaxStep:          1,
		Seed:             23,
	}
}

// FlashCrowdResult reports both legs and the scaler's conduct.
type FlashCrowdResult struct {
	BaseNodes int `json:"base_nodes"`
	// PeakReplicas is the largest live-member count the scaled leg
	// reached.
	PeakReplicas int `json:"peak_replicas"`
	// StaticPeakP99Ms and ScaledPeakP99Ms are the spike phase's p99
	// end-to-end latency, static vs autoscaled.
	StaticPeakP99Ms float64 `json:"static_peak_p99_ms"`
	ScaledPeakP99Ms float64 `json:"scaled_peak_p99_ms"`
	// Completions per leg (every phase).
	StaticCompleted int `json:"static_completed"`
	ScaledCompleted int `json:"scaled_completed"`
	// Launched/Drained are the controller's lifetime actuations.
	Launched int64 `json:"launched"`
	Drained  int64 `json:"drained"`
	// MaxStepObserved is the largest |action| any decision took, and
	// CooldownRespected whether all actions kept the configured spacing
	// (TestFlashCrowdScalesAndBehaves asserts both).
	MaxStepObserved   int  `json:"max_step_observed"`
	CooldownRespected bool `json:"cooldown_respected"`
	Decisions         int  `json:"decisions"`
}

// ReplicaPool is the in-process actuator for experiments and tests:
// Launch starts real cluster nodes that join the federation by
// gossiping a seed, Drain retires the youngest pool-owned replica
// through the graceful drain path. Founders are not pool-owned — the
// scaler can only remove supply it added.
type ReplicaPool struct {
	// Start builds and starts replica number seq (the caller wires the
	// dataset, seeds, and node configuration).
	Start func(seq int) (*cluster.Node, error)

	mu    sync.Mutex
	seq   int
	live  []*cluster.Node
	gone  []*cluster.Node // drained replicas, kept for executed-once audits
	fails int
}

// Launch implements autoscale.Actuator.
func (p *ReplicaPool) Launch(n int) error {
	p.mu.Lock()
	defer p.mu.Unlock()
	for i := 0; i < n; i++ {
		node, err := p.Start(p.seq)
		if err != nil {
			p.fails++
			return fmt.Errorf("experiments: launching replica %d: %w", p.seq, err)
		}
		p.seq++
		p.live = append(p.live, node)
	}
	return nil
}

// Drain implements autoscale.Actuator: youngest first, gracefully.
func (p *ReplicaPool) Drain(n int) error {
	p.mu.Lock()
	var victims []*cluster.Node
	for i := 0; i < n && len(p.live) > 0; i++ {
		v := p.live[len(p.live)-1]
		p.live = p.live[:len(p.live)-1]
		p.gone = append(p.gone, v)
		victims = append(victims, v)
	}
	p.mu.Unlock()
	if len(victims) < n {
		return fmt.Errorf("experiments: only %d of %d requested replicas were pool-owned", len(victims), n)
	}
	for _, v := range victims {
		if err := v.Close(); err != nil {
			return fmt.Errorf("experiments: draining replica %s: %w", v.ID(), err)
		}
	}
	return nil
}

// Nodes returns every replica the pool ever started (live and
// drained), for executed-once audits.
func (p *ReplicaPool) Nodes() []*cluster.Node {
	p.mu.Lock()
	defer p.mu.Unlock()
	out := append([]*cluster.Node(nil), p.live...)
	return append(out, p.gone...)
}

// Live returns the pool's currently live replicas.
func (p *ReplicaPool) Live() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return len(p.live)
}

// CloseAll shuts down whatever the pool still owns.
func (p *ReplicaPool) CloseAll() {
	p.mu.Lock()
	live := append([]*cluster.Node(nil), p.live...)
	p.live = nil
	p.mu.Unlock()
	for _, n := range live {
		n.CloseNow()
	}
}

// FlashCrowd runs the elasticity experiment: the same flash-crowd
// workload over a static fleet and over an autoscaled one.
func FlashCrowd(opt FlashCrowdOptions) (FlashCrowdResult, error) {
	if opt.BaseNodes <= 0 || opt.MaxNodes < opt.BaseNodes {
		return FlashCrowdResult{}, fmt.Errorf("experiments: need 1 <= BaseNodes <= MaxNodes")
	}
	if len(opt.PhaseConcurrency) == 0 || opt.WavesPerPhase <= 0 {
		return FlashCrowdResult{}, fmt.Errorf("experiments: flash crowd needs phases and waves")
	}
	rng := rand.New(rand.NewSource(opt.Seed))
	// Full replication across every node slot: any replica can serve
	// any query, so recruited supply is immediately useful.
	ds, err := cluster.GenerateDataset(cluster.DatasetParams{
		Nodes: opt.MaxNodes, Tables: 6, Views: 10, RowsPerTable: 60,
		MinCopies: opt.MaxNodes, MaxCopies: opt.MaxNodes,
	}, rng)
	if err != nil {
		return FlashCrowdResult{}, err
	}
	templates, err := ds.GenerateTemplates(4, 1, rng)
	if err != nil {
		return FlashCrowdResult{}, err
	}
	res := FlashCrowdResult{BaseNodes: opt.BaseNodes, CooldownRespected: true}
	staticP99, staticDone, err := flashCrowdLeg(opt, ds, templates, rng.Int63(), false, &res)
	if err != nil {
		return res, fmt.Errorf("static leg: %w", err)
	}
	scaledP99, scaledDone, err := flashCrowdLeg(opt, ds, templates, rng.Int63(), true, &res)
	if err != nil {
		return res, fmt.Errorf("scaled leg: %w", err)
	}
	res.StaticPeakP99Ms, res.StaticCompleted = staticP99, staticDone
	res.ScaledPeakP99Ms, res.ScaledCompleted = scaledP99, scaledDone
	return res, nil
}

// flashCrowdLeg drives one leg and returns the peak phase's p99 and
// the leg's total completions. The scaled leg additionally fills in
// the controller-conduct fields of res.
func flashCrowdLeg(opt FlashCrowdOptions, ds *cluster.Dataset, templates []cluster.QueryTemplate,
	seed int64, scaled bool, res *FlashCrowdResult) (p99 float64, completed int, err error) {
	rng := rand.New(rand.NewSource(seed))
	start := func(i int, id string, seeds []string) (*cluster.Node, error) {
		return cluster.StartNode("127.0.0.1:0", cluster.NodeConfig{
			Driver:         engine.FromDB(ds.DBs[i]),
			Slowdown:       opt.Slowdown,
			MsPerCostUnit:  opt.MsPerCostUnit,
			PeriodMs:       opt.PeriodMs,
			NodeID:         id,
			Seeds:          seeds,
			GossipPeriodMs: opt.GossipPeriodMs,
		})
	}
	var founders []*cluster.Node
	defer func() {
		for _, n := range founders {
			n.CloseNow()
		}
	}()
	var seeds []string
	for i := 0; i < opt.BaseNodes; i++ {
		n, err := start(i, fmt.Sprintf("f%02d", i), seeds)
		if err != nil {
			return 0, 0, err
		}
		founders = append(founders, n)
		if len(seeds) == 0 {
			seeds = []string{n.Addr()}
		}
	}
	client, err := cluster.NewClient(cluster.ClientConfig{
		Addrs:       seeds,
		Mechanism:   cluster.MechQANT,
		PeriodMs:    opt.PeriodMs,
		MaxRetries:  100,
		Timeout:     5 * time.Second,
		ViewRefresh: time.Duration(opt.GossipPeriodMs) * time.Millisecond,
	})
	if err != nil {
		return 0, 0, err
	}
	defer client.Close()
	if err := awaitLive(client, opt.BaseNodes, 5*time.Second); err != nil {
		return 0, 0, err
	}

	pool := &ReplicaPool{Start: func(seq int) (*cluster.Node, error) {
		idx := opt.BaseNodes + seq
		if idx >= opt.MaxNodes {
			return nil, fmt.Errorf("replica slot %d beyond MaxNodes %d", idx, opt.MaxNodes)
		}
		return start(idx, fmt.Sprintf("r%02d", seq), seeds)
	}}
	defer pool.CloseAll()

	var ctl *autoscale.Controller
	if scaled {
		ctl, err = autoscale.New(autoscale.Config{
			Min:        opt.BaseNodes,
			Max:        opt.MaxNodes,
			CapacityMs: float64(opt.PeriodMs),
			Alpha:      0.5,
			Warmup:     1,
			Cooldown:   opt.Cooldown,
			MaxStep:    opt.MaxStep,
		}, autoscale.ClientSource{Client: client}, pool)
		if err != nil {
			return 0, 0, err
		}
	}

	peak := 0
	for i, c := range opt.PhaseConcurrency {
		if c > opt.PhaseConcurrency[peak] {
			peak = i
		}
	}
	var peakLat []float64
	qid := int64(0)
	for pi, conc := range opt.PhaseConcurrency {
		for w := 0; w < opt.WavesPerPhase; w++ {
			lats := make([]float64, conc)
			oks := make([]bool, conc)
			var wg sync.WaitGroup
			for ci := 0; ci < conc; ci++ {
				wg.Add(1)
				sql := templates[rng.Intn(len(templates))].Instantiate(rng)
				id := qid
				qid++
				go func(slot int, id int64, sql string) {
					defer wg.Done()
					out := client.Run(id, sql)
					if out.Err == nil {
						lats[slot] = out.TotalMs
						oks[slot] = true
					}
				}(ci, id, sql)
			}
			wg.Wait()
			for slot, ok := range oks {
				if !ok {
					continue
				}
				completed++
				if pi == peak {
					peakLat = append(peakLat, lats[slot])
				}
			}
			if ctl != nil {
				d := ctl.Tick()
				if d.Current > res.PeakReplicas {
					res.PeakReplicas = d.Current
				}
			}
			// Let a market period (and gossip) advance between waves.
			time.Sleep(time.Duration(opt.PeriodMs) * time.Millisecond)
		}
	}
	if ctl != nil {
		res.Launched, res.Drained = ctl.Totals()
		decisions := ctl.Decisions()
		res.Decisions = len(decisions)
		last := -1 << 30
		for _, d := range decisions {
			a := d.Action
			if a < 0 {
				a = -a
			}
			if a > res.MaxStepObserved {
				res.MaxStepObserved = a
			}
			if d.Action != 0 {
				if d.Tick-last < opt.Cooldown {
					res.CooldownRespected = false
				}
				last = d.Tick
			}
		}
	}
	return p99Of(peakLat), completed, nil
}

// p99Of returns the 99th-percentile (nearest-rank) of the samples, 0
// when empty.
func p99Of(samples []float64) float64 {
	if len(samples) == 0 {
		return 0
	}
	s := append([]float64(nil), samples...)
	sort.Float64s(s)
	idx := (len(s)*99 + 99) / 100
	if idx > len(s) {
		idx = len(s)
	}
	return s[idx-1]
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
