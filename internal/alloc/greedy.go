package alloc

// Greedy immediately assigns each query to the node expected to finish
// it earliest (backlog + estimated cost). Section 4 notes it is easy to
// implement and performs surprisingly well, but violates server
// administrative autonomy: the client unilaterally picks the server.
// It is the one buyer QA-NT uses (see buy) over sellers that always
// offer, so the two differ only in what the servers decide.
type Greedy struct{}

// NewGreedy builds a Greedy allocator.
func NewGreedy() *Greedy { return &Greedy{} }

// Name implements Mechanism.
func (g *Greedy) Name() string { return "greedy" }

// Traits implements Mechanism (Table 2 row "Greedy").
func (g *Greedy) Traits() Traits {
	return Traits{
		Distributed:           true,
		WorkloadType:          "Dynamic",
		ConflictsWithQueryOpt: true,
		RespectsAutonomy:      false,
		Performance:           "Very Good",
	}
}

// Assign implements Mechanism.
func (g *Greedy) Assign(q Query, v View) Decision { return buy(q, v, nil) }
