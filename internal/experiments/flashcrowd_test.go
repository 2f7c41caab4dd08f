package experiments

import (
	"fmt"
	"math/rand"
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
			NodeID: id, Seeds: seeds, GossipPeriodMs: 15, MembershipSeed: 31 + int64(i),
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
