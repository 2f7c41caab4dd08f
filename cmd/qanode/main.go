// Command qanode runs one federation server node: the vectorized engine
// loaded from a SQL script, wrapped with the QA-NT market agent,
// listening for negotiate/execute requests over TCP.
//
// Example:
//
//	qanode -addr 127.0.0.1:7001 -init schema.sql -cpu-slowdown 2 -io-slowdown 6
//
// The init script is a ';'-separated sequence of statements; blank
// statements and -- line comments are skipped.
package main

import (
	"flag"
	"fmt"
	"net"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"github.com/qamarket/qamarket/internal/cluster"
	"github.com/qamarket/qamarket/internal/driver"
	"github.com/qamarket/qamarket/internal/engine"
	"github.com/qamarket/qamarket/internal/market"
)

func main() {
	var (
		addr         = flag.String("addr", "127.0.0.1:7001", "listen address")
		initFile     = flag.String("init", "", "SQL script creating tables/views and loading data")
		slow         = flag.Float64("slowdown", 1, "uniform execution slowdown factor")
		ioSlow       = flag.Float64("io-slowdown", 0, "I/O (scan) slowdown; 0 = use -slowdown")
		cpuSlow      = flag.Float64("cpu-slowdown", 0, "CPU (join/sort) slowdown; 0 = use -slowdown")
		msPerUnit    = flag.Float64("ms-per-unit", 0.05, "milliseconds per planner cost unit")
		period       = flag.Int64("period", 500, "market period T in ms")
		lambda       = flag.Float64("lambda", 0.1, "price adjustment step λ")
		threshold    = flag.Float64("threshold", 0, "price activation threshold (0 = market always active)")
		latency      = flag.Duration("link-latency", 0, "added reply latency (wireless node)")
		noise        = flag.Float64("exec-noise", 0, "execution time variability fraction")
		snapshotPath = flag.String("snapshot", "", "market-state checkpoint file (restored on boot, rewritten atomically every -snapshot-interval and after the shutdown drain)")
		snapInterval = flag.Duration("snapshot-interval", 30*time.Second, "how often to checkpoint market state (requires -snapshot)")
		drainBudget  = flag.Duration("drain-timeout", 5*time.Second, "graceful-drain budget on shutdown: in-flight queries get this long to finish")
		nodeID       = flag.String("id", "", "stable node identity in the membership registry (empty = random)")
		join         = flag.String("join", "", "comma-separated addresses of existing federation members to announce to")
		gossipPeriod = flag.Int64("gossip-period", 250, "anti-entropy gossip round length in ms")
		gossipFanout = flag.Int("gossip-fanout", 2, "live peers contacted per gossip round")
		suspectAfter = flag.Int("suspect-after", 3, "stalled gossip rounds before a member is suspected")
		evictAfter   = flag.Int("evict-after", 3, "further stalled rounds before a suspect is evicted")
		metricsAddr  = flag.String("metrics-addr", "", "serve Prometheus text metrics on this address (/metrics, plus /debug/pprof); empty disables")
		maxInflight  = flag.Int("max-inflight", 0, "max concurrently handled work requests before typed overload refusals (0 = default 256)")
		maxQueue     = flag.Int("max-queue", 0, "executor queue depth before typed overload refusals (0 = default 256)")
		dedupWindow  = flag.Duration("dedup-window", 0, "how long execute/fetch outcomes stay replayable for at-most-once retries (0 = default 60s)")
	)
	flag.Parse()

	db := engine.Open()
	if *initFile != "" {
		if err := loadScript(db, *initFile); err != nil {
			die(err)
		}
	}
	mcfg := market.Config{Lambda: *lambda, InitialPrice: 1, ActivationThreshold: *threshold, Classes: 1}
	node, err := cluster.StartNode(*addr, cluster.NodeConfig{
		Driver:             db,
		Slowdown:           *slow,
		IOSlowdown:         *ioSlow,
		CPUSlowdown:        *cpuSlow,
		MsPerCostUnit:      *msPerUnit,
		PeriodMs:           *period,
		LinkLatency:        *latency,
		ExecNoise:          *noise,
		NoiseSeed:          time.Now().UnixNano(),
		DrainTimeout:       *drainBudget,
		MaxInflight:        *maxInflight,
		MaxQueue:           *maxQueue,
		DedupWindow:        *dedupWindow,
		Market:             mcfg,
		NodeID:             *nodeID,
		Seeds:              splitSeeds(*join),
		GossipPeriodMs:     *gossipPeriod,
		GossipFanout:       *gossipFanout,
		SuspectAfterRounds: *suspectAfter,
		EvictAfterRounds:   *evictAfter,
		Logf: func(format string, args ...any) {
			fmt.Fprintf(os.Stderr, format+"\n", args...)
		},
	})
	if err != nil {
		die(err)
	}
	var ckpt *cluster.Checkpointer
	if *snapshotPath != "" {
		restored, err := cluster.RestoreNodeFromCheckpoint(node, *snapshotPath)
		if err != nil {
			die(err)
		}
		if restored {
			fmt.Printf("qanode: restored market state from %s\n", *snapshotPath)
		}
		ckpt, err = cluster.StartCheckpointer(node, *snapshotPath, *snapInterval)
		if err != nil {
			die(err)
		}
	}
	var metricsSrv *http.Server
	if *metricsAddr != "" {
		ln, err := net.Listen("tcp", *metricsAddr)
		if err != nil {
			die(err)
		}
		mux := http.NewServeMux()
		mux.Handle("/metrics", node.MetricsHandler())
		mux.HandleFunc("/debug/pprof/", pprof.Index)
		mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
		mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
		metricsSrv = &http.Server{Handler: mux}
		go func() {
			if err := metricsSrv.Serve(ln); err != nil && err != http.ErrServerClosed {
				fmt.Fprintln(os.Stderr, "qanode: metrics server:", err)
			}
		}()
		fmt.Printf("qanode: metrics on http://%s/metrics\n", ln.Addr())
	}
	fmt.Printf("qanode: %s serving on %s (%d tables, %d views)\n",
		node.ID(), node.Addr(), len(db.Tables()), len(db.Views()))
	if seeds := splitSeeds(*join); len(seeds) > 0 {
		fmt.Printf("qanode: joining federation via %v\n", seeds)
	}

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, syscall.SIGINT, syscall.SIGTERM)
	<-sig
	fmt.Printf("qanode: draining (budget %v)\n", *drainBudget)
	if metricsSrv != nil {
		metricsSrv.Close()
	}
	if err := node.Close(); err != nil {
		die(err)
	}
	if ckpt != nil {
		// Final checkpoint after the drain so the saved price table
		// includes everything executed up to the very end.
		if err := ckpt.Stop(); err != nil {
			die(err)
		}
		fmt.Printf("qanode: saved market state to %s\n", *snapshotPath)
	}
}

// splitSeeds parses the -join list, dropping empty entries.
func splitSeeds(s string) []string {
	var out []string
	for _, part := range strings.Split(s, ",") {
		if part = strings.TrimSpace(part); part != "" {
			out = append(out, part)
		}
	}
	return out
}

// loadScript executes a ';'-separated SQL script file.
func loadScript(db *engine.DB, path string) error {
	raw, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	if _, err := driver.ExecScript(db, string(raw)); err != nil {
		return fmt.Errorf("%s: %w", path, err)
	}
	return nil
}

func die(err error) {
	fmt.Fprintln(os.Stderr, "qanode:", err)
	os.Exit(1)
}
