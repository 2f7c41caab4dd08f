package cluster

import (
	"bytes"
	"encoding/json"
	"math"
	"math/rand"
	"os"
	"reflect"
	"testing"
	"time"

	"github.com/qamarket/qamarket/internal/engine"
	"github.com/qamarket/qamarket/internal/market"
)

// TestMarketStateCheckpoint verifies a node's learned market position
// (classes, prices, history) survives a save/restore cycle onto a
// fresh node.
func TestMarketStateCheckpoint(t *testing.T) {
	clk := autoClock(t)
	ds, nodes, addrs := startTestFederation(t, []float64{1, 2}, onClock(clk))
	client, err := NewClient(ClientConfig{
		network: newMemNet(clk),
		clock:   clk,
		Addrs:   addrs, Mechanism: MechQANT, PeriodMs: 50, MaxRetries: 50, Timeout: 5 * time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(77))
	templates, err := ds.GenerateTemplates(3, 1, rng)
	if err != nil {
		t.Fatal(err)
	}
	for qi := 0; qi < 10; qi++ {
		if out := client.Run(int64(qi), templates[qi%len(templates)].Instantiate(rng)); out.Err != nil {
			t.Fatalf("query %d: %v", qi, out.Err)
		}
	}
	data, err := nodes[0].MarketState()
	if err != nil {
		t.Fatalf("MarketState: %v", err)
	}
	// The checkpoint itself is the reference: node 0 keeps trading and
	// ticking after it was taken.
	ps, _ := pricerStateOf(t, data)
	if len(ps.Classes) == 0 {
		t.Skip("node 0 learned no classes in this layout")
	}

	// Fresh node over the same data, restored from the checkpoint. It
	// keeps the default period on a fake clock nobody advances, so no
	// pricer tick moves a price between the restore and the stats read.
	still := newFakeClock()
	restored, err := StartNode("127.0.0.1:0", NodeConfig{
		network: newMemNet(still),
		Driver:  engine.FromDB(ds.DBs[0]), MsPerCostUnit: 0.02, clock: still,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer restored.Close()
	if err := restored.RestoreMarketState(data); err != nil {
		t.Fatalf("RestoreMarketState: %v", err)
	}
	client2, err := NewClient(ClientConfig{network: newMemNet(clk), clock: clk, Addrs: []string{restored.Addr()}, Mechanism: MechQANT})
	if err != nil {
		t.Fatal(err)
	}
	defer client2.Close()
	st1, err := client2.Stats(restored.Addr())
	if err != nil {
		t.Fatal(err)
	}
	if len(st1.Market.Classes) != len(ps.Classes) {
		t.Fatalf("restored %d classes, want %d", len(st1.Market.Classes), len(ps.Classes))
	}
	restoredPrices := classPrices(st1)
	for sig, idx := range ps.Classes {
		if got, ok := restoredPrices[sig]; !ok || got != ps.Prices[idx] {
			t.Errorf("class %s: restored price %g, want %g", sig, got, ps.Prices[idx])
		}
	}
}

// classPrices maps a stats reply's market classes to their prices.
func classPrices(st *NodeStats) map[string]float64 {
	out := make(map[string]float64, len(st.Market.Classes))
	for _, c := range st.Market.Classes {
		out[c.Signature] = c.Price
	}
	return out
}

func TestRestoreMarketStateRejectsGarbage(t *testing.T) {
	_, nodes, _ := startTestFederation(t, []float64{1}, nil)
	if err := nodes[0].RestoreMarketState([]byte("{broken")); err == nil {
		t.Error("broken JSON accepted")
	}
	if err := nodes[0].RestoreMarketState([]byte(`{"pricer":{"classes":{"a":0},"costs":[],"prices":[]}}`)); err == nil {
		t.Error("inconsistent state accepted")
	}
	if err := nodes[0].RestoreMarketState([]byte(`{"pricer":{"classes":{"a":5},"costs":[10],"prices":[1]}}`)); err == nil {
		t.Error("out-of-range class index accepted")
	}
	// Empty state resets cleanly.
	if err := nodes[0].RestoreMarketState([]byte(`{"pricer":{"classes":{},"costs":[],"prices":[]}}`)); err != nil {
		t.Errorf("empty state rejected: %v", err)
	}
}

// pricerStateOf parses the "pricer" member of a market-state checkpoint.
func pricerStateOf(t *testing.T, checkpoint []byte) (PricerState, json.RawMessage) {
	t.Helper()
	var st struct {
		Raw json.RawMessage `json:"pricer"`
	}
	if err := json.Unmarshal(checkpoint, &st); err != nil {
		t.Fatal(err)
	}
	var ps PricerState
	if err := json.Unmarshal(st.Raw, &ps); err != nil {
		t.Fatal(err)
	}
	return ps, st.Raw
}

// TestRestoreValidatesLedger: a checkpoint is outside input. Lengths
// and indices were always checked; costs and carry used to be installed
// as found, so a damaged file could plant a negative cost (a class that
// refunds budget when sold) or a carry no period boundary could have
// produced. These run on a bare pricer so no period tick interleaves.
func TestRestoreValidatesLedger(t *testing.T) {
	good, _ := pricerStateOf(t, []byte(`{"pricer":{"classes":{"a":0,"b":1},"costs":[10,80],"prices":[2,3],"carry":25,`+
		`"stats":{"Periods":7,"Offers":5,"Accepts":4,"Rejects":3,"Unsold":2,"PriceUps":3,"PriceDns":1}}}`))
	with := func(edit func(st *PricerState)) PricerState {
		st := good
		st.Costs = append([]float64(nil), good.Costs...)
		st.Prices = append([]float64(nil), good.Prices...)
		edit(&st)
		return st
	}
	for _, tc := range []struct {
		name string
		st   PricerState
	}{
		{"negative cost", with(func(st *PricerState) { st.Costs[1] = -80 })},
		{"NaN cost", with(func(st *PricerState) { st.Costs[0] = math.NaN() })},
		{"infinite cost", with(func(st *PricerState) { st.Costs[0] = math.Inf(1) })},
		{"NaN carry", with(func(st *PricerState) { st.Carry = math.NaN() })},
		{"infinite carry", with(func(st *PricerState) { st.Carry = math.Inf(1) })},
		{"zero price", with(func(st *PricerState) { st.Prices[0] = 0 })},
		{"price count", with(func(st *PricerState) { st.Prices = st.Prices[:1] })},
	} {
		p := newTestPricer(t, market.DefaultConfig(1), 50)
		if err := p.restore(good); err != nil {
			t.Fatalf("good state refused: %v", err)
		}
		if err := p.restore(tc.st); err == nil {
			t.Errorf("%s accepted", tc.name)
		}
		// A refused checkpoint leaves the market as it was.
		if got := p.snapshot(); !reflect.DeepEqual(got, good) {
			t.Errorf("%s: refused restore changed the market: %+v", tc.name, got)
		}
	}
	// A finite but impossible carry is capped at max(period, dearest
	// class), exactly as a live period boundary would; debt is kept.
	p := newTestPricer(t, market.DefaultConfig(1), 50)
	for carry, want := range map[float64]float64{1e300: 80, 80: 80, 25: 25, -400: -400} {
		if err := p.restore(with(func(st *PricerState) { st.Carry = carry })); err != nil {
			t.Fatalf("carry %g refused: %v", carry, err)
		}
		if got := p.telemetry().CarryMs; got != want {
			t.Errorf("carry %g restored as %g, want %g", carry, got, want)
		}
	}
}

// TestRestoreOldCheckpoints: checkpoints written before the pricer
// moved onto market.Seller still restore to the same market position.
// testdata/checkpoint_pr23.json is Node.MarketState() as the parent
// commit wrote it (three classes, one re-costed mid-period, carry at
// its cap); the inline one is the oldest form, from before prices and
// counters were persisted.
func TestRestoreOldCheckpoints(t *testing.T) {
	file, err := os.ReadFile("testdata/checkpoint_pr23.json")
	if err != nil {
		t.Fatal(err)
	}
	want, raw := pricerStateOf(t, file)
	p := newTestPricer(t, market.DefaultConfig(1), 50)
	if err := p.restore(want); err != nil {
		t.Fatalf("parent checkpoint refused: %v", err)
	}
	got := p.snapshot()
	if !reflect.DeepEqual(got, want) {
		t.Errorf("restored state differs from the checkpoint:\n got %+v\nwant %+v", got, want)
	}
	// Byte-for-byte too: the JSON shape of a checkpoint did not move.
	if again, _ := json.Marshal(got); !bytes.Equal(again, raw) {
		t.Errorf("re-serialized checkpoint differs:\n got %s\nfile %s", again, raw)
	}

	// And through the node's own entry point.
	_, nodes, _ := startTestFederation(t, []float64{1}, nil)
	if err := nodes[0].RestoreMarketState(file); err != nil {
		t.Fatalf("node refused the parent checkpoint: %v", err)
	}

	legacy, _ := pricerStateOf(t, []byte(`{"pricer":{"classes":{"x":0,"y":1},"costs":[12,30],"carry":18}}`))
	if err := p.restore(legacy); err != nil {
		t.Fatalf("price-less checkpoint refused: %v", err)
	}
	tel := p.telemetry()
	if len(tel.Classes) != 2 || tel.CarryMs != 18 || tel.Stats != (market.Stats{}) {
		t.Fatalf("price-less checkpoint restored as %+v", tel)
	}
	for _, c := range tel.Classes {
		if c.Price != 1 {
			t.Errorf("class %s restored at price %g, want the initial price", c.Signature, c.Price)
		}
	}
}
