// Command qactl is the federation client: it sends a query (or a
// generated workload) to a set of qanode servers using the chosen
// allocation mechanism and reports the outcome.
//
// Examples:
//
//	qactl -nodes 127.0.0.1:7001,127.0.0.1:7002 -sql "SELECT COUNT(*) FROM t00"
//	qactl -nodes ... -mechanism qa-nt -stats n-1a2b3c4d
//	qactl -nodes ... -members
//	qactl -nodes ... -sql "SELECT * FROM t00" -trace 7   # run traced, print span tree
//	qactl -nodes ... -trace 7                            # assemble spans already retained
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"net/http"
	"os"
	"sort"
	"strings"
	"time"

	"github.com/qamarket/qamarket/internal/autoscale"
	"github.com/qamarket/qamarket/internal/cluster"
	"github.com/qamarket/qamarket/internal/trace"
)

func main() {
	var (
		nodeList = flag.String("nodes", "", "comma-separated seed server addresses")
		sql      = flag.String("sql", "", "query to evaluate")
		mech     = flag.String("mechanism", "greedy", "greedy | qa-nt")
		period   = flag.Int64("period", 500, "resubmission period in ms")
		repeat   = flag.Int("repeat", 1, "times to run the query")
		gap      = flag.Duration("gap", 0, "wait between repeats")
		stats    = flag.String("stats", "", "print market stats of one node (ID or address) and exit")
		members  = flag.Bool("members", false, "print the live membership view and exit")
		refresh  = flag.Duration("refresh", 0, "membership view refresh period (0 = static seed view)")
		hist     = flag.Bool("hist", false, "print per-op RPC latency histograms after the run")
		traceID  = flag.Int64("trace", 0, "trace ID: with -sql, run the query traced under this ID; alone, assemble and print the federation's retained spans for it")
		scaler   = flag.String("scaler", "", "print a qascale daemon's decision ring (base URL of its -metrics-addr) and exit")
	)
	flag.Parse()

	if *scaler != "" {
		if err := printScalerDecisions(*scaler); err != nil {
			die(err)
		}
		return
	}

	addrs := strings.Split(*nodeList, ",")
	if len(addrs) == 1 && addrs[0] == "" {
		die(fmt.Errorf("no -nodes given"))
	}
	var tracer *trace.Recorder
	if *traceID != 0 {
		tracer = trace.NewRecorder("client", 0, nil)
	}
	client, err := cluster.NewClient(cluster.ClientConfig{
		Addrs:       addrs,
		Mechanism:   cluster.Mechanism(*mech),
		PeriodMs:    *period,
		Timeout:     30 * time.Second,
		ViewRefresh: *refresh,
		Tracer:      tracer,
	})
	if err != nil {
		die(err)
	}
	defer client.Close()
	if *members {
		if err := client.RefreshView(); err != nil {
			die(err)
		}
		printMembers(client)
		return
	}
	if *stats != "" {
		st, err := client.Stats(*stats)
		if err != nil {
			die(err)
		}
		fmt.Printf("node %s: executed=%d offers=%d rejects=%d\n", *stats, st.Executed, st.Market.Stats.Offers, st.Market.Stats.Rejects)
		for _, c := range st.Market.Classes {
			fmt.Printf("  price %.4f  class %s\n", c.Price, c.Signature)
		}
		return
	}
	if *sql == "" {
		if *traceID != 0 {
			// Assemble whatever the federation still retains for the ID:
			// the trace was recorded by an earlier traced run.
			fmt.Print(trace.RenderTree(client.TraceSpans(*traceID)))
			return
		}
		die(fmt.Errorf("no -sql given"))
	}
	for i := 0; i < *repeat; i++ {
		qid := int64(i)
		if *traceID != 0 {
			// A traced run keeps one trace ID across repeats so the
			// assembled tree shows every round under distinct run roots.
			qid = *traceID
		}
		out := client.Run(qid, *sql)
		if out.Err != nil {
			die(out.Err)
		}
		fmt.Printf("query %d -> node %s (%s): %d rows, assign %.1f ms, exec %.1f ms, total %.1f ms (%d retries)\n",
			out.QueryID, out.Node, out.NodeAddr, out.Rows, out.AssignMs, out.ExecMs, out.TotalMs, out.Retries)
		if *gap > 0 && i+1 < *repeat {
			time.Sleep(*gap)
		}
	}
	if *traceID != 0 {
		fmt.Print(trace.RenderTree(client.TraceSpans(*traceID)))
	}
	if *hist {
		printLatencies(client)
	}
}

// printMembers renders the client's membership view: stable ID,
// address, gossiped state, incarnation, client breaker state, and the
// advertised catalog digest.
func printMembers(client *cluster.Client) {
	fmt.Printf("%-14s %-22s %-8s %-5s %-6s %-9s %s\n",
		"ID", "ADDR", "STATE", "INC", "EPOCH", "BREAKER", "CATALOG")
	for _, m := range client.Members() {
		fmt.Printf("%-14s %-22s %-8s %-5d %-6d %-9s %s\n",
			m.ID, m.Addr, m.State, m.Incarnation, m.Epoch, m.Breaker, m.CatalogDigest)
	}
}

// printScalerDecisions fetches a qascale daemon's retained decision
// ring and renders each explainable record: smoothed signals, the
// water-filled target, and the clamped action with its reason.
func printScalerDecisions(base string) error {
	url := strings.TrimRight(base, "/") + "/decisions"
	resp, err := http.Get(url)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("GET %s: %s", url, resp.Status)
	}
	var decisions []autoscale.Decision
	if err := json.NewDecoder(resp.Body).Decode(&decisions); err != nil {
		return fmt.Errorf("parsing %s: %w", url, err)
	}
	fmt.Printf("%-5s %-9s %-4s %-7s %-7s %-7s %-7s %-4s %-4s %-7s %s\n",
		"TICK", "TIME", "MEM", "REJ~", "UNSOLD~", "PRICE~", "DEMAND~", "TGT", "ACT", "APPLIED", "REASON")
	for _, d := range decisions {
		s := d.Signals
		fmt.Printf("%-5d %-9s %-4d %-7.3f %-7.3f %-7.2f %-7.0f %-4d %-+4d %-7v %s\n",
			d.Tick, d.At.Format("15:04:05"), s.Members,
			s.SmoothedRejectRate, s.SmoothedUnsoldRate, s.SmoothedPriceIndex, s.SmoothedDemandMs,
			d.Target, d.Action, d.Applied, d.Reason)
	}
	return nil
}

// printLatencies renders the client's per-op, per-node RPC latency
// histograms.
func printLatencies(client *cluster.Client) {
	lat := client.Latencies()
	ops := make([]string, 0, len(lat))
	for op := range lat {
		ops = append(ops, op)
	}
	sort.Strings(ops)
	fmt.Println("rpc latency:")
	for _, op := range ops {
		nodes := make([]string, 0, len(lat[op]))
		for node := range lat[op] {
			nodes = append(nodes, node)
		}
		sort.Strings(nodes)
		for _, node := range nodes {
			fmt.Printf("  %-9s node %s: %s\n", op, node, lat[op][node])
		}
	}
}

func die(err error) {
	fmt.Fprintln(os.Stderr, "qactl:", err)
	os.Exit(1)
}
