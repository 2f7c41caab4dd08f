package alloc

import (
	"math"
	"math/rand"
	"testing"

	"github.com/qamarket/qamarket/internal/market"
)

// fakeView is a hand-built federation snapshot for mechanism tests.
type fakeView struct {
	now     int64
	cost    [][]float64 // [node][class]; +Inf = infeasible
	backlog []float64
	period  int64
}

func (v *fakeView) Now() int64             { return v.now }
func (v *fakeView) NumNodes() int          { return len(v.cost) }
func (v *fakeView) NumClasses() int        { return len(v.cost[0]) }
func (v *fakeView) Feasible(n, c int) bool { return !math.IsInf(v.cost[n][c], 1) }
func (v *fakeView) Cost(n, c int) float64  { return v.cost[n][c] }
func (v *fakeView) Backlog(n int) float64  { return v.backlog[n] }
func (v *fakeView) PeriodMs() int64        { return v.period }
func (v *fakeView) FeasibleNodes(c int) []int {
	return ScanFeasibleNodes(v, c)
}

var inf = math.Inf(1)

// figure1View is the two-node system of the paper's motivating example.
func figure1View() *fakeView {
	return &fakeView{
		cost:    [][]float64{{400, 100}, {450, 500}},
		backlog: []float64{0, 0},
		period:  500,
	}
}

func TestGreedyPicksFastestFinish(t *testing.T) {
	v := figure1View()
	g := NewGreedy()
	d := g.Assign(Query{Class: 0}, v)
	if d.Retry || d.Node != 0 {
		t.Errorf("q1 on idle system should go to N1 (400ms): %+v", d)
	}
	v.backlog[0] = 100 // N1 now finishes at 500, N2 at 450
	d = g.Assign(Query{Class: 0}, v)
	if d.Node != 1 {
		t.Errorf("q1 with N1 backlog should go to N2: %+v", d)
	}
}

func TestGreedyRetriesWhenNooneCan(t *testing.T) {
	v := &fakeView{cost: [][]float64{{inf}, {inf}}, backlog: []float64{0, 0}, period: 500}
	if d := NewGreedy().Assign(Query{Class: 0}, v); !d.Retry {
		t.Errorf("expected retry, got %+v", d)
	}
}

func TestRandomUniformOverFeasible(t *testing.T) {
	v := &fakeView{
		cost:    [][]float64{{100}, {inf}, {300}},
		backlog: []float64{0, 0, 0},
		period:  500,
	}
	r := NewRandom(rand.New(rand.NewSource(5)))
	counts := map[int]int{}
	for i := 0; i < 3000; i++ {
		d := r.Assign(Query{Class: 0}, v)
		if d.Retry {
			t.Fatal("unexpected retry")
		}
		counts[d.Node]++
	}
	if counts[1] != 0 {
		t.Error("random chose infeasible node")
	}
	if counts[0] < 1200 || counts[2] < 1200 {
		t.Errorf("split not uniform: %v", counts)
	}
}

func TestRoundRobinCycles(t *testing.T) {
	v := &fakeView{
		cost:    [][]float64{{100}, {100}, {inf}},
		backlog: []float64{0, 0, 0},
		period:  500,
	}
	rr := NewRoundRobin()
	var got []int
	for i := 0; i < 4; i++ {
		got = append(got, rr.Assign(Query{Class: 0}, v).Node)
	}
	want := []int{0, 1, 0, 1}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("round robin sequence %v, want %v", got, want)
		}
	}
}

func TestRoundRobinPerClassCursors(t *testing.T) {
	v := &fakeView{
		cost:    [][]float64{{100, 100}, {100, 100}},
		backlog: []float64{0, 0},
		period:  500,
	}
	rr := NewRoundRobin()
	a := rr.Assign(Query{Class: 0}, v).Node
	b := rr.Assign(Query{Class: 1}, v).Node
	if a != 0 || b != 0 {
		t.Errorf("classes should cycle independently: got %d, %d", a, b)
	}
}

func TestBNQRDReproducesFigure1(t *testing.T) {
	// Replay the motivating example: 2×q1 then 6×q2 arrive; the LB
	// algorithm ends with N1 busy 900 ms and N2 busy 950 ms.
	v := figure1View()
	lb := NewBNQRD()
	add := func(class int) {
		d := lb.Assign(Query{Class: class}, v)
		if d.Retry {
			t.Fatal("unexpected retry")
		}
		v.backlog[d.Node] += v.cost[d.Node][class]
	}
	add(0) // q1 #1
	add(0) // q1 #2
	for i := 0; i < 6; i++ {
		add(1)
	}
	if v.backlog[0] != 900 || v.backlog[1] != 950 {
		t.Errorf("backlogs (%g, %g), want (900, 950) per Figure 1", v.backlog[0], v.backlog[1])
	}
}

func TestTwoRandomProbesPicksLighter(t *testing.T) {
	v := &fakeView{
		cost:    [][]float64{{100}, {100}},
		backlog: []float64{1000, 0},
		period:  500,
	}
	p := NewTwoRandomProbes(rand.New(rand.NewSource(7)))
	wins := map[int]int{}
	for i := 0; i < 400; i++ {
		wins[p.Assign(Query{Class: 0}, v).Node]++
	}
	// Node 1 wins every mixed probe (~half the trials) plus its own
	// double-probes (~quarter): expect clearly more than node 0.
	if wins[1] <= wins[0] {
		t.Errorf("lighter node not preferred: %v", wins)
	}
}

func TestQANTOffersThenBalances(t *testing.T) {
	v := figure1View()
	m := NewQANT(market.DefaultConfig(2))
	m.OnPeriodStart(v)
	// Both nodes can serve q2? N2's q2 costs 500 = its whole budget;
	// N1 plans 5×q2. First q2 must land somewhere.
	d := m.Assign(Query{Class: 1}, v)
	if d.Retry {
		t.Fatal("q2 refused on an idle market")
	}
	// Drain N1's q2 supply; eventually q2 requests get refused and
	// resubmitted.
	refused := false
	for i := 0; i < 20; i++ {
		d := m.Assign(Query{Class: 1}, v)
		if d.Retry {
			refused = true
			break
		}
	}
	if !refused {
		t.Error("q2 never refused despite exhausting all supply")
	}
}

func TestQANTPeriodLifecycle(t *testing.T) {
	v := figure1View()
	m := NewQANT(market.DefaultConfig(2))
	m.OnPeriodStart(v)
	if m.Sellers() == nil {
		t.Fatal("sellers not initialized")
	}
	p0 := m.Sellers()[0].Prices()
	// End the period with unsold supply: prices must drop.
	m.OnPeriodEnd(v)
	m.OnPeriodStart(v)
	p1 := m.Sellers()[0].Prices()
	if !(p1[1] < p0[1]) {
		t.Errorf("unsold q2 price did not drop: %v -> %v", p0, p1)
	}
}

func TestQANTCarryAllowsExpensiveClasses(t *testing.T) {
	// One node, one class costing 3 periods. With carry accounting the
	// node must eventually supply it.
	v := &fakeView{cost: [][]float64{{1500}}, backlog: []float64{0}, period: 500}
	m := NewQANT(market.DefaultConfig(1))
	m.OnPeriodStart(v)
	assigned := false
	for period := 0; period < 10 && !assigned; period++ {
		d := m.Assign(Query{Class: 0}, v)
		if !d.Retry {
			assigned = true
			break
		}
		m.OnPeriodEnd(v)
		m.OnPeriodStart(v)
	}
	if !assigned {
		t.Fatal("class costing 3 periods never supplied despite idle node")
	}
}

func TestQANTDebtThrottlesOversell(t *testing.T) {
	// After accepting a 1500 ms query in a 500 ms period, the node is in
	// debt and must not offer again for at least two further periods.
	v := &fakeView{cost: [][]float64{{1500}}, backlog: []float64{0}, period: 500}
	m := NewQANT(market.DefaultConfig(1))
	m.OnPeriodStart(v)
	// Accumulate budget, then accept one query.
	var accepted int
	for period := 0; period < 12; period++ {
		d := m.Assign(Query{Class: 0}, v)
		if !d.Retry {
			accepted++
		}
		m.OnPeriodEnd(v)
		m.OnPeriodStart(v)
	}
	// Sustainable rate is one query per 3 periods: over 12 periods at
	// most 4-5 accepts (allowing boundary effects), never ~12.
	if accepted > 5 {
		t.Errorf("accepted %d expensive queries in 12 periods; oversell", accepted)
	}
	if accepted == 0 {
		t.Error("no queries accepted at all")
	}
}

func TestQANTPartialAdoptionFirstDispatchBeforePeriod(t *testing.T) {
	// Regression: with Adopters set, non-adopting nodes have no agent.
	// The lazy-init path taken when the first query arrives before any
	// period callback used to call BeginPeriod on the nil agents and
	// panic.
	v := figure1View()
	m := NewQANT(market.DefaultConfig(2))
	m.Adopters = map[int]bool{0: true} // node 1 is an ordinary server
	d := m.Assign(Query{Class: 0}, v)
	if d.Retry {
		t.Fatal("first query refused on an idle partially-adopted market")
	}
	if d.Node != 0 && d.Node != 1 {
		t.Fatalf("invalid node %d", d.Node)
	}
	// The non-adopting node keeps accepting whatever is feasible.
	for i := 0; i < 5; i++ {
		if d := m.Assign(Query{Class: 0}, v); !d.Retry && d.Node == 1 {
			return
		}
	}
}

func TestMarkovStaticSplit(t *testing.T) {
	// Node 0 is twice as fast for the class; under a static load the
	// Markov reference should send it roughly twice the queries.
	v := &fakeView{
		cost:    [][]float64{{100}, {200}},
		backlog: []float64{0, 0},
		period:  500,
	}
	m := NewMarkov([]float64{10})
	counts := map[int]int{}
	for i := 0; i < 300; i++ {
		d := m.Assign(Query{Class: 0}, v)
		if d.Retry {
			t.Fatal("unexpected retry")
		}
		counts[d.Node]++
	}
	ratio := float64(counts[0]) / float64(counts[1])
	if ratio < 1.5 || ratio > 2.5 {
		t.Errorf("fast/slow split %.2f, want ~2 (counts %v)", ratio, counts)
	}
}

func TestMarkovFallbackWithoutRates(t *testing.T) {
	v := &fakeView{
		cost:    [][]float64{{300}, {100}},
		backlog: []float64{0, 0},
		period:  500,
	}
	m := NewMarkov(nil)
	d := m.Assign(Query{Class: 0}, v)
	if d.Retry || d.Node != 1 {
		t.Errorf("fallback should pick the cheapest node: %+v", d)
	}
}

func TestTraitsMatchTable2(t *testing.T) {
	qant := NewQANT(market.DefaultConfig(1))
	cases := []struct {
		m        Mechanism
		autonomy bool
		conflict bool
		workload string
	}{
		{qant, true, false, "Dynamic"},
		{NewGreedy(), false, true, "Dynamic"},
		{NewRandom(rand.New(rand.NewSource(1))), true, true, "Dynamic"},
		{NewRoundRobin(), true, true, "Dynamic"},
		{NewBNQRD(), false, true, "Dynamic"},
		{NewMarkov(nil), false, true, "Static"},
	}
	for _, c := range cases {
		tr := c.m.Traits()
		if tr.RespectsAutonomy != c.autonomy {
			t.Errorf("%s autonomy = %t, want %t", c.m.Name(), tr.RespectsAutonomy, c.autonomy)
		}
		if tr.ConflictsWithQueryOpt != c.conflict {
			t.Errorf("%s conflict = %t, want %t", c.m.Name(), tr.ConflictsWithQueryOpt, c.conflict)
		}
		if tr.WorkloadType != c.workload {
			t.Errorf("%s workload = %q, want %q", c.m.Name(), tr.WorkloadType, c.workload)
		}
	}
	// QA-NT is the only autonomy-respecting mechanism with "Very Good"
	// performance — the paper's central claim in Table 2.
	if tr := qant.Traits(); tr.Performance != "Very Good" {
		t.Errorf("QA-NT performance %q", tr.Performance)
	}
}
