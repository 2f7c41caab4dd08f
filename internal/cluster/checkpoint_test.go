package cluster

import (
	"bytes"
	"encoding/json"
	"math/rand"
	"os"
	"path/filepath"
	"testing"
	"time"

	"github.com/qamarket/qamarket/internal/engine"
	"github.com/qamarket/qamarket/internal/metrics"
)

func TestWriteFileAtomic(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "state.json")
	if err := WriteFileAtomic(path, []byte("one"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := WriteFileAtomic(path, []byte("two"), 0o644); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil || string(data) != "two" {
		t.Fatalf("read back %q, %v", data, err)
	}
	// No temp droppings left behind.
	leftovers, err := filepath.Glob(filepath.Join(dir, ".ckpt-*"))
	if err != nil {
		t.Fatal(err)
	}
	if len(leftovers) != 0 {
		t.Errorf("temp files left behind: %v", leftovers)
	}
}

func TestRestoreNodeFromCheckpointMissingFile(t *testing.T) {
	node := startSingleNode(t, nil)
	restored, err := RestoreNodeFromCheckpoint(node, filepath.Join(t.TempDir(), "absent.json"))
	if err != nil {
		t.Fatalf("missing checkpoint treated as error: %v", err)
	}
	if restored {
		t.Error("restored=true for a missing checkpoint")
	}
}

func TestRestoreNodeFromCheckpointRejectsCorruption(t *testing.T) {
	node := startSingleNode(t, nil)
	path := filepath.Join(t.TempDir(), "bad.json")
	if err := os.WriteFile(path, []byte("{torn"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := RestoreNodeFromCheckpoint(node, path); err == nil {
		t.Error("corrupt checkpoint silently accepted")
	}
}

func TestCheckpointerRejectsBadConfig(t *testing.T) {
	node := startSingleNode(t, nil)
	if _, err := StartCheckpointer(node, "", time.Second); err == nil {
		t.Error("empty path accepted")
	}
	if _, err := StartCheckpointer(node, filepath.Join(t.TempDir(), "x"), 0); err == nil {
		t.Error("zero interval accepted")
	}
}

// TestCrashRestartResumesPriceTable is the snapshot round-trip: a QA-NT
// node is killed mid-workload (hard stop, no drain) and restarted from
// its checkpoint. The restored node must resume the exact learned price
// table recorded in the checkpoint and keep trading without a market
// reset.
func TestCrashRestartResumesPriceTable(t *testing.T) {
	clk := autoClock(t)
	ds, nodes, addrs := startTestFederation(t, []float64{1, 2}, onClock(clk))
	client, err := NewClient(ClientConfig{
		network: newMemNet(clk),
		clock:   clk,
		Addrs:   addrs, Mechanism: MechQANT, PeriodMs: 50, MaxRetries: 100, Timeout: 5 * time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "node0.json")
	ckpt, err := StartCheckpointer(nodes[0], path, 25*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}

	rng := rand.New(rand.NewSource(91))
	templates, err := ds.GenerateTemplates(3, 1, rng)
	if err != nil {
		t.Fatal(err)
	}
	for qi := 0; qi < 12; qi++ {
		if out := client.Run(int64(qi), templates[qi%len(templates)].Instantiate(rng)); out.Err != nil {
			t.Fatalf("query %d: %v", qi, out.Err)
		}
	}
	// Let the periodic writer tick at least once, then verify its
	// heartbeat is visible through the stats op.
	clk.sleep(60 * time.Millisecond)
	preCrash, err := client.Stats(addrs[0])
	if err != nil {
		t.Fatal(err)
	}
	if len(preCrash.Market.Classes) == 0 {
		t.Skip("node 0 learned no classes in this layout")
	}
	if age, ok := preCrash.Health[metrics.CheckpointAgeMs]; !ok {
		t.Fatal("periodic checkpointer never reported an age")
	} else if age > 10_000 {
		t.Fatalf("checkpoint age %gms; periodic writes not happening", age)
	}
	if preCrash.Health[metrics.CheckpointsTotal] < 1 {
		t.Fatal("no periodic checkpoint recorded")
	}

	// Freeze the writer (final atomic write) and crash the node. The
	// file now holds exactly the crash-moment market state.
	if err := ckpt.Stop(); err != nil {
		t.Fatal(err)
	}
	fileState, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	nodes[0].CloseNow()

	// Restart over the same data and restore. The huge market period
	// parks the restored node's price clock so the assertions below are
	// not racing a period tick.
	restarted, err := StartNode("127.0.0.1:0", NodeConfig{
		network: newMemNet(clk),
		clock:   clk,
		Driver:  engine.FromDB(ds.DBs[0]), MsPerCostUnit: 0.02, PeriodMs: 60_000,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer restarted.Close()
	restored, err := RestoreNodeFromCheckpoint(restarted, path)
	if err != nil {
		t.Fatal(err)
	}
	if !restored {
		t.Fatal("checkpoint file missing after periodic writes")
	}
	gotState, err := restarted.MarketState()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(gotState, fileState) {
		t.Errorf("restored market state differs from the checkpoint:\n got %s\nfile %s", gotState, fileState)
	}

	// The restored price table must be byte-for-byte the checkpointed
	// one, visible through the normal stats op.
	var ckptState struct {
		Pricer PricerState `json:"pricer"`
	}
	if err := json.Unmarshal(fileState, &ckptState); err != nil {
		t.Fatal(err)
	}
	client2, err := NewClient(ClientConfig{
		network: newMemNet(clk),
		clock:   clk,
		Addrs:   []string{restarted.Addr(), addrs[1]}, Mechanism: MechQANT,
		PeriodMs: 50, MaxRetries: 100, Timeout: 5 * time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	postRestore, err := client2.Stats(restarted.Addr())
	if err != nil {
		t.Fatal(err)
	}
	if len(postRestore.Market.Classes) != len(ckptState.Pricer.Classes) {
		t.Fatalf("restored %d classes, checkpoint has %d", len(postRestore.Market.Classes), len(ckptState.Pricer.Classes))
	}
	restoredPrices := classPrices(postRestore)
	for sig, idx := range ckptState.Pricer.Classes {
		if got, ok := restoredPrices[sig]; !ok || got != ckptState.Pricer.Prices[idx] {
			t.Errorf("class %s: restored price %g, want %g", sig, got, ckptState.Pricer.Prices[idx])
		}
	}

	// The market must resume trading, not reset: more queries complete
	// against the restored federation.
	completed := 0
	for qi := 100; qi < 108; qi++ {
		if out := client2.Run(int64(qi), templates[qi%len(templates)].Instantiate(rng)); out.Err == nil {
			completed++
		}
	}
	if completed < 6 {
		t.Errorf("only %d/8 queries completed after restore", completed)
	}
}
