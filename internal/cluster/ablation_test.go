package cluster

import (
	"math/rand"
	"testing"
	"time"

	"github.com/qamarket/qamarket/internal/engine"
)

// BenchmarkAblationInformation is the information-structure ablation:
// it runs the real TCP federation's Greedy client with and without
// servers disclosing their queue state (a real autonomous DBMS does
// not). It quantifies how much of Greedy's strength comes from
// information QA-NT never needs.
func BenchmarkAblationInformation(b *testing.B) {
	for _, share := range []bool{false, true} {
		share := share
		name := "queue-private"
		if share {
			name = "queue-shared"
		}
		b.Run(name, func(b *testing.B) {
			var mean float64
			for i := 0; i < b.N; i++ {
				mean = informationRun(b, share)
			}
			b.ReportMetric(mean, "greedy-mean-total-ms")
		})
	}
}

func informationRun(b *testing.B, share bool) float64 {
	b.Helper()
	rng := rand.New(rand.NewSource(13))
	p := Figure7Params()
	p.Nodes = 3
	p.Tables = 6
	p.Views = 8
	p.RowsPerTable = 80
	p.MinCopies = 2
	p.MaxCopies = 3
	ds, err := GenerateDataset(p, rng)
	if err != nil {
		b.Fatal(err)
	}
	templates, err := ds.GenerateTemplates(6, 1, rng)
	if err != nil {
		b.Fatal(err)
	}
	addrs := make([]string, p.Nodes)
	slow := []float64{1, 3, 9}
	for i := 0; i < p.Nodes; i++ {
		n, err := StartNode("127.0.0.1:0", NodeConfig{
			network: memWall,
			Driver:  engine.FromDB(ds.DBs[i]), Slowdown: slow[i], MsPerCostUnit: 0.02,
			PeriodMs: 50, shareQueueState: share,
		})
		if err != nil {
			b.Fatal(err)
		}
		defer n.Close()
		addrs[i] = n.Addr()
	}
	client, err := NewClient(ClientConfig{
		network: memWall,
		Addrs:   addrs, Mechanism: MechGreedy, PeriodMs: 50,
		Timeout: 5 * time.Second,
	})
	if err != nil {
		b.Fatal(err)
	}
	var total float64
	completed := 0
	for qi := 0; qi < 40; qi++ {
		time.Sleep(5 * time.Millisecond)
		out := client.Run(int64(qi), templates[qi%len(templates)].Instantiate(rng))
		if out.Err != nil {
			continue
		}
		completed++
		total += out.TotalMs
	}
	if completed == 0 {
		b.Fatal("no queries completed")
	}
	return total / float64(completed)
}
