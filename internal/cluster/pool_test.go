package cluster

import (
	"fmt"
	"math/rand"
	"sync"
	"testing"
	"time"
)

// testTransport names one of the two RPC paths a test can run a client
// over: the per-node pools, or a dial per RPC (freshDial).
type testTransport struct {
	name  string
	fresh bool
}

var transports = []testTransport{{"pooled", false}, {"fresh", true}}

// runTransportWorkload stands up a fresh 3-node federation, drives it
// with nClients goroutines × nQueries sequential queries each, and
// returns each query's result cardinality keyed by query id. The
// dataset, templates, and per-goroutine SQL streams are all seeded, so
// two invocations see byte-identical workloads.
func runTransportWorkload(t *testing.T, transport testTransport, nClients, nQueries int) map[int64]int {
	t.Helper()
	ds, nodes, addrs := startTestFederation(t, []float64{1, 2, 3}, nil)
	templates, err := ds.GenerateTemplates(8, 2, rand.New(rand.NewSource(23)))
	if err != nil {
		t.Fatalf("templates: %v", err)
	}
	client, err := NewClient(ClientConfig{
		Addrs:     addrs,
		Mechanism: MechGreedy, // always offers: results depend only on the data
		PeriodMs:  25,
		Timeout:   5 * time.Second,
		freshDial: transport.fresh,
	})
	if err != nil {
		t.Fatal(err)
	}

	rows := make(map[int64]int)
	var mu sync.Mutex
	var wg sync.WaitGroup
	for g := 0; g < nClients; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(1000 + g)))
			for q := 0; q < nQueries; q++ {
				id := int64(g*nQueries + q)
				sql := templates[rng.Intn(len(templates))].Instantiate(rng)
				out := client.Run(id, sql)
				if out.Err != nil {
					t.Errorf("transport %s query %d: %v", transport.name, id, out.Err)
					return
				}
				mu.Lock()
				rows[id] = out.Rows
				mu.Unlock()
			}
		}(g)
	}
	wg.Wait()

	// No leaked connections: closing the client must drop every tracked
	// server-side connection (the fresh transport already hung up per
	// RPC; the pooled one severs its persistent conns here).
	client.Close()
	deadline := time.Now().Add(5 * time.Second)
	for {
		open := 0
		for _, n := range nodes {
			open += n.OpenConns()
		}
		if open == 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("transport %s: %d connections still open after Close", transport.name, open)
		}
		time.Sleep(5 * time.Millisecond)
	}
	return rows
}

// TestConcurrentTransportsAgree is the stress satellite: N goroutines ×
// M RPCs against a 3-node federation, race-clean, with fresh-dial and
// pooled transports producing identical results and leaking nothing.
func TestConcurrentTransportsAgree(t *testing.T) {
	const nClients, nQueries = 8, 5
	pooled := runTransportWorkload(t, transports[0], nClients, nQueries)
	fresh := runTransportWorkload(t, transports[1], nClients, nQueries)
	if len(pooled) != nClients*nQueries || len(fresh) != nClients*nQueries {
		t.Fatalf("completed pooled=%d fresh=%d, want %d", len(pooled), len(fresh), nClients*nQueries)
	}
	for id, want := range fresh {
		if got := pooled[id]; got != want {
			t.Errorf("query %d: pooled rows=%d fresh rows=%d", id, got, want)
		}
	}
}

// TestPooledReusesConnections pins the point of the pool: a burst of
// sequential RPCs must not dial per RPC. With PoolSize 2 and two lanes
// the client needs at most 4 connections to one node, where the fresh
// transport would have dialed once per exchange.
func TestPooledReusesConnections(t *testing.T) {
	_, nodes, addrs := startTestFederation(t, []float64{1}, nil)
	client, err := NewClient(ClientConfig{
		Addrs: addrs, Mechanism: MechGreedy, PeriodMs: 25,
		Timeout: 5 * time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()
	for i := 0; i < 20; i++ {
		if _, err := client.Stats(addrs[0]); err != nil {
			t.Fatal(err)
		}
	}
	if open := nodes[0].OpenConns(); open > 4 {
		t.Fatalf("pooled transport holds %d conns after 20 RPCs, want <= 4", open)
	}
	// The latency histogram saw every exchange.
	sum, ok := client.OpLatencies()["stats"]
	if !ok || sum.Count != 20 {
		t.Fatalf("stats latency summary = %+v, want 20 observations", sum)
	}
	if sum.P50Ms <= 0 || sum.P99Ms < sum.P50Ms || sum.MaxMs < sum.P99Ms {
		t.Fatalf("implausible latency summary %v", sum)
	}
}

// TestMultiplexedPipelining drives many concurrent RPCs through a
// single-connection pool and checks every caller gets its own reply —
// the demux-by-id property, exercised directly.
func TestMultiplexedPipelining(t *testing.T) {
	_, _, addrs := startTestFederation(t, []float64{1}, nil)
	client, err := NewClient(ClientConfig{
		Addrs: addrs, Mechanism: MechGreedy, PeriodMs: 25,
		Timeout: 5 * time.Second, PoolSize: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()
	var wg sync.WaitGroup
	errs := make(chan error, 32)
	for g := 0; g < 32; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			st, err := client.Stats(addrs[0])
			if err != nil {
				errs <- err
				return
			}
			if st.Health == nil {
				// A stats reply always carries the health map; a reply
				// without one would mean a crossed or dropped demux.
				errs <- fmt.Errorf("empty stats reply")
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}
