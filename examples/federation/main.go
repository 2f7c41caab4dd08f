// Federation: a real three-node federation over localhost TCP.
//
// Each node runs the embedded vectorized engine over a copy of a small
// star schema, built from a sqldb row store, plus a QA-NT market agent; a client negotiates every
// query with all nodes and dispatches it to the best offer. This is
// the Section 5.2 setup in miniature.
package main

import (
	"fmt"
	"log"
	"math/rand"
	"time"

	"github.com/qamarket/qamarket/internal/cluster"
	"github.com/qamarket/qamarket/internal/market"
)

func main() {
	rng := rand.New(rand.NewSource(11))
	ds, err := cluster.GenerateDataset(cluster.DatasetParams{
		Nodes: 3, Tables: 8, Views: 12, RowsPerTable: 150,
		MinCopies: 2, MaxCopies: 3,
	}, rng)
	if err != nil {
		log.Fatal(err)
	}

	// Heterogeneous nodes: node 0 fast, node 1 slow disk, node 2 slow CPU.
	slow := []struct{ io, cpu float64 }{{1, 1}, {6, 2}, {2, 6}}
	var addrs []string
	for i := 0; i < 3; i++ {
		node, err := cluster.StartNode("127.0.0.1:0", cluster.NodeConfig{
			DB:            ds.DBs[i],
			IOSlowdown:    slow[i].io,
			CPUSlowdown:   slow[i].cpu,
			MsPerCostUnit: 0.02,
			PeriodMs:      100,
			Market:        market.DefaultConfig(1),
		})
		if err != nil {
			log.Fatal(err)
		}
		defer node.Close()
		addrs = append(addrs, node.Addr())
		fmt.Printf("node %d listening on %s (%d tables, %d views)\n",
			i, node.Addr(), len(ds.DBs[i].Tables()), len(ds.DBs[i].Views()))
	}

	client, err := cluster.NewClient(cluster.ClientConfig{
		Addrs:     addrs,
		Mechanism: cluster.MechQANT,
		PeriodMs:  100,
		Timeout:   5 * time.Second,
	})
	if err != nil {
		log.Fatal(err)
	}
	defer client.Close()

	templates, err := ds.GenerateTemplates(6, 1, rng)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("\nrunning 12 star queries through the query market:")
	for i := 0; i < 12; i++ {
		sql := templates[i%len(templates)].Instantiate(rng)
		out := client.Run(int64(i), sql)
		if out.Err != nil {
			log.Fatalf("query %d: %v", i, out.Err)
		}
		fmt.Printf("  q%02d -> node %s  %3d rows  assign %5.1f ms  exec %6.1f ms  total %6.1f ms\n",
			i, out.Node, out.Rows, out.AssignMs, out.ExecMs, out.TotalMs)
	}

	fmt.Println("\nper-node market state:")
	for _, addr := range addrs {
		st, err := client.Stats(addr)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("  node %s: executed=%d offers=%d rejects=%d classes=%d\n",
			addr, st.Executed, st.Offers, st.Rejects, len(st.Prices))
	}
}
