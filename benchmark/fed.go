package main

import (
	"fmt"
	"math/rand"
	"time"

	"github.com/qamarket/qamarket/internal/cluster"
	"github.com/qamarket/qamarket/internal/engine"
	"github.com/qamarket/qamarket/internal/membership"
	"github.com/qamarket/qamarket/internal/trace"
)

// federation is one in-process loopback deployment of a workload:
// gossip-joined nodes on ephemeral ports plus the client that drives
// them, stood up through the public API only.
type federation struct {
	w      *workload
	inst   *instance
	nodes  []*cluster.Node
	client *cluster.Client
	// setupS is data build + node start + gossip settle + client
	// connect; settleMs its last part, from the last StartNode on.
	setupS   float64
	settleMs float64
}

// settleTimeout bounds the wait for the membership view to fill.
const settleTimeout = 20 * time.Second

// startFederation builds the seed's data, starts the nodes (node 0
// seeds the gossip), connects the client and waits until the client's
// view lists every node alive. No fixed sleep: set-up ends when the
// federation is observably whole.
func startFederation(w *workload, seed int64, quick bool) (*federation, error) {
	start := time.Now()
	inst, err := w.build(seed, quick)
	if err != nil {
		return nil, fmt.Errorf("build %s: %w", w.name, err)
	}
	f := &federation{w: w, inst: inst}
	addrs := make([]string, 0, w.nodes)
	for i := 0; i < w.nodes; i++ {
		drv, err := engine.SelectDriver("vector", inst.nodeDBs[i])
		if err != nil {
			f.close()
			return nil, err
		}
		cfg := cluster.NodeConfig{
			Driver:   drv,
			PeriodMs: w.periodMs,
			Market:   marketConfig(),
			NodeID:   fmt.Sprintf("n%d", i),
			// The default 60 s window would retain every fetch result of
			// a run and memory would never reach a steady state; 2 s turns
			// over several times inside one window.
			DedupWindow:    2 * time.Second,
			GossipPeriodMs: 100,
			NoiseSeed:      seed + int64(i),
		}
		if i > 0 {
			cfg.Seeds = []string{addrs[0]}
		}
		w.node(i, &cfg)
		n, err := cluster.StartNode("127.0.0.1:0", cfg)
		if err != nil {
			f.close()
			return nil, err
		}
		f.nodes = append(f.nodes, n)
		addrs = append(addrs, n.Addr())
	}
	started := time.Now()
	if f.client, err = f.newClient(seed, nil); err != nil {
		f.close()
		return nil, err
	}
	if err := f.settle(f.client); err != nil {
		f.close()
		return nil, err
	}
	f.settleMs = msSince(started)
	f.setupS = time.Since(start).Seconds()
	return f, nil
}

// newClient connects a client to the federation. The traced pass gets
// its own, with a recorder; every other setting is shared.
func (f *federation) newClient(seed int64, tracer *trace.Recorder) (*cluster.Client, error) {
	addrs := make([]string, len(f.nodes))
	for i, n := range f.nodes {
		addrs[i] = n.Addr()
	}
	cfg := cluster.ClientConfig{
		Addrs:     addrs,
		Mechanism: cluster.MechQANT,
		PeriodMs:  f.w.periodMs,
		Timeout:   10 * time.Second,
		Jitter:    rand.New(rand.NewSource(seed)),
		Tracer:    tracer,
		RunID:     fmt.Sprintf("bench-%s-%d-traced=%t", f.w.name, seed, tracer != nil),
		// BatchWindow stays 0: with at most two queries in flight a
		// coalescing window can only add latency.
	}
	if !f.w.staticView {
		// The refreshed view carries the gossiped relation filters that
		// shard probing needs; the bid cache lives one market period.
		cfg.ViewRefresh = 100 * time.Millisecond
		cfg.BidCacheTTL = time.Duration(f.w.periodMs) * time.Millisecond
	}
	return cluster.NewClient(cfg)
}

// settle waits until the federation is whole as client c will see it: a
// refreshing view lists every node alive with its relation filter; a
// static view has every node's own table listing every peer alive and a
// connection to each.
func (f *federation) settle(c *cluster.Client) error {
	deadline := time.Now().Add(settleTimeout)
	for {
		if f.whole(c) {
			break
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("%s: membership did not settle within %v", f.w.name, settleTimeout)
		}
		time.Sleep(2 * time.Millisecond)
	}
	if f.w.staticView {
		for _, n := range f.nodes {
			if _, err := c.Stats(n.Addr()); err != nil {
				return fmt.Errorf("%s: connect %s: %w", f.w.name, n.ID(), err)
			}
		}
	}
	return nil
}

func (f *federation) whole(c *cluster.Client) bool {
	if f.w.staticView {
		for _, n := range f.nodes {
			alive := 0
			for _, m := range n.Members() {
				if m.State == membership.StateAlive {
					alive++
				}
			}
			if alive != len(f.nodes) {
				return false
			}
		}
		return true
	}
	alive := 0
	for _, m := range c.Members() {
		if m.State == membership.StateAlive.String() && m.CatalogFilter != "" {
			alive++
		}
	}
	return alive == len(f.nodes)
}

// close stops the client and crashes the nodes: every query has
// completed by now, so there is nothing a graceful drain would wait for.
func (f *federation) close() {
	if f.client != nil {
		f.client.Close()
	}
	for _, n := range f.nodes {
		n.CloseNow()
	}
}

// executed sums the nodes' executed-query counters and finds the
// busiest node's share.
func (f *federation) executed() (total int, busiest float64) {
	most := 0
	for _, n := range f.nodes {
		e := n.Executed()
		total += e
		if e > most {
			most = e
		}
	}
	if total > 0 {
		busiest = float64(most) / float64(total)
	}
	return total, busiest
}

func msSince(t time.Time) float64 { return float64(time.Since(t)) / float64(time.Millisecond) }
