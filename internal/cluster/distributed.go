package cluster

import (
	"errors"
	"fmt"
	"slices"
	"strings"
	"sync"

	"github.com/qamarket/qamarket/internal/engine"
	"github.com/qamarket/qamarket/internal/sqldb"
)

// Distributor evaluates queries that no single node can answer — the
// setting the paper's Section 2.1 delegates to distributed query
// optimizers like MARIPOSA and the Query/Process Trading framework
// [13,14]. It decomposes a select-join query into one subquery per
// referenced relation, sends each subquery through the same query
// lifecycle as whole queries (so QA-NT's supply vectors keep gating
// admission at the subquery granularity, exactly the compatibility
// Section 4 claims), pulls the fragments concurrently, and joins them in
// a local scratch engine.
//
// Single-relation predicates from the WHERE clause are pushed into the
// corresponding subquery, and each subquery selects only the columns
// the query reads from its relation, so fragments shrink before
// travelling.
type Distributor struct {
	client *Client
	// afterNegotiate, when set, is handed to every lifecycle the
	// Distributor starts (see query.afterNegotiate), and so runs on the
	// fragments' goroutines. Tests use it to kill a node between its
	// winning a negotiation and the fetch, and assert the lifecycle
	// re-allocates on the surviving view.
	afterNegotiate func(nodeID, sql string)
}

// NewDistributor wraps a federation client.
func NewDistributor(c *Client) *Distributor { return &Distributor{client: c} }

// DistOutcome describes one distributed evaluation.
type DistOutcome struct {
	Result       *sqldb.Result
	Subqueries   int
	FragmentRows int
	AssignMs     float64 // summed negotiation time across subqueries
	Retries      int     // summed resubmission rounds across subqueries
	TotalMs      float64
	PerNode      map[string]int // fragments fetched per node, by stable node ID
}

// book adds one lifecycle's outcome.
func (out *DistOutcome) book(o Outcome) {
	out.AssignMs += o.AssignMs
	out.Retries += o.Retries
	if o.Err == nil {
		out.Subqueries++
		out.FragmentRows += o.Rows
		out.PerNode[o.Node]++
	}
}

// Run evaluates the query as a plan of at most three steps: ask the
// market once whether a single node takes the whole query — unless the
// gossiped relation filters already prove none holds all its relations
// — else pull one fragment per FROM entry, concurrently, and join them
// locally. Queries a single node can answer are delegated to the
// ordinary protocol (result rows are still fetched, since the caller
// wants them).
func (d *Distributor) Run(queryID int64, sql string) (DistOutcome, error) {
	clk := d.client.cfg.clock
	start := clk.now()
	// The root span opens first, so the plan's parse is charged to the
	// query like every other step of it.
	root := d.client.startSpan(queryID, "", "run")
	defer root.Finish()
	stmt, err := sqldb.Parse(sql)
	if err != nil {
		return DistOutcome{}, err
	}
	sel, ok := stmt.(*sqldb.SelectStmt)
	if !ok {
		return DistOutcome{}, errors.New("cluster: distributor handles SELECT only")
	}
	rels := make([]string, len(sel.From))
	for i, ref := range sel.From {
		rels[i] = ref.Table
	}
	out := DistOutcome{PerNode: make(map[string]int)}

	// A distributed evaluation shares one root span and one deadline
	// across the lifecycles of its subqueries.
	q := query{id: queryID, sub: true, afterNegotiate: d.afterNegotiate}
	if root != nil {
		q.tc = childCtx(&traceCtx{ID: queryID}, root)
	}
	if d.client.cfg.QueryTimeout > 0 {
		q.deadline = start.Add(d.client.cfg.QueryTimeout)
	}

	// Fast path: some node can run the whole query. One round at the
	// market decides; an error other than "nobody took it" is the
	// query's own.
	if !d.client.noneHoldsAll(rels) {
		whole := &sqldb.Result{}
		wq := q
		wq.sql, wq.sink, wq.oneRound = sql, accumulateSink(whole), true
		o, columns := d.client.begin(wq).run()
		out.book(o)
		switch {
		case o.Err == nil:
			whole.Columns = columns
			out.Result = whole
			out.TotalMs = millis(clk.since(start))
			return out, nil
		case !errors.Is(o.Err, errUnplaced):
			return DistOutcome{}, o.Err
		}
	} else {
		root.Annotate("relation filters: no member holds %v", rels)
	}

	// Decompose: one subquery per FROM entry, with its single-relation
	// conjuncts and its projection pushed down, each its own lifecycle on
	// its own goroutine. Fragments stay blocks: a fragment's header
	// declares a table of a per-query scratch engine, named after the
	// FROM binding and sized from the announced row count, and each
	// arriving batch's typed arrays are appended to it. The scratch is the
	// client's own buffer (dropping the table makes the sink resettable),
	// so a stream lost mid-fragment is discarded and re-pulled from any
	// node: wasteful for a read-only fragment, never incorrect, and the
	// other fragments never notice.
	bound := make(map[string]bool, len(sel.From))
	for _, ref := range sel.From {
		if bound[ref.Name()] {
			return DistOutcome{}, fmt.Errorf("cluster: relation %q appears twice in FROM; alias one", ref.Name())
		}
		bound[ref.Name()] = true
	}
	scratch := engine.Open()
	pushed, residual := splitConjuncts(sel)
	needed := fragmentColumns(sel, residual)
	frags := make([]Outcome, len(sel.From))
	var wg sync.WaitGroup
	for i, ref := range sel.From {
		fq := q
		fq.sql = buildSubquery(ref, needed[ref.Name()], pushed[i])
		fq.sink = fragmentSink(scratch, ref.Name())
		wg.Add(1)
		go func() {
			defer wg.Done()
			frags[i], _ = d.client.begin(fq).run()
		}()
	}
	wg.Wait()
	// Merged in FROM order, so the outcome and the error reported do not
	// depend on which fragment finished first.
	for i, o := range frags {
		out.book(o)
		if o.Err != nil && err == nil {
			err = fmt.Errorf("cluster: subquery for %s: %w", sel.From[i].Name(), o.Err)
		}
	}
	if err != nil {
		return DistOutcome{}, err
	}
	// Re-run the original query shape against the local fragments: the
	// fragment tables are named after the FROM aliases, so only the
	// table names (and the already-pushed WHERE) change.
	blk, err := scratch.Select(rewriteLocal(sel, residual))
	if err != nil {
		return DistOutcome{}, fmt.Errorf("cluster: local join: %w", err)
	}
	res := &sqldb.Result{Columns: blk.Columns}
	if res.Rows, err = blk.AppendRows(nil); err != nil {
		return DistOutcome{}, fmt.Errorf("cluster: local join: %w", err)
	}
	out.Result = res
	out.TotalMs = millis(clk.since(start))
	return out, nil
}

// fragmentSink lands one fragment in table name of the scratch engine:
// the header declares the table — a zero-row fragment included — and
// reserves the rows it announces, so every typed array grows once.
func fragmentSink(scratch *engine.DB, name string) *fetchSink {
	return &fetchSink{
		header: func(columns []string, rows uint64) error {
			return scratch.Reserve(name, columns, int(min(rows, engine.MaxReserveRows)))
		},
		block: func(blk *ColBlock) error { return scratch.AppendBlock(name, blk) },
		reset: func() { scratch.DropTable(name) },
	}
}

// splitConjuncts partitions the WHERE clause's AND-conjuncts into
// per-FROM-entry pushdown lists (conjuncts referencing exactly one
// binding) and the residual evaluated after the local join.
func splitConjuncts(sel *sqldb.SelectStmt) (pushed [][]sqldb.Expr, residual []sqldb.Expr) {
	pushed = make([][]sqldb.Expr, len(sel.From))
	if sel.Where == nil {
		return pushed, nil
	}
	names := make(map[string]int, len(sel.From))
	for i, f := range sel.From {
		names[f.Name()] = i
	}
	for _, c := range conjuncts(sel.Where) {
		// Pushdown is safe when every reference is qualified by one and the
		// same binding.
		binding, single := "", true
		walkRefs(c, func(r *sqldb.ColumnRef) {
			if r.Table == "" || (binding != "" && r.Table != binding) {
				single = false
			}
			binding = r.Table
		})
		if i, ok := names[binding]; ok && single {
			pushed[i] = append(pushed[i], c)
		} else {
			residual = append(residual, c)
		}
	}
	return pushed, residual
}

// conjuncts flattens a chain of ANDs.
func conjuncts(e sqldb.Expr) []sqldb.Expr {
	if b, ok := e.(*sqldb.BinaryExpr); ok && b.Op == "AND" {
		return append(conjuncts(b.Left), conjuncts(b.Right)...)
	}
	return []sqldb.Expr{e}
}

// walkRefs calls visit for every column reference in an expression.
func walkRefs(e sqldb.Expr, visit func(*sqldb.ColumnRef)) {
	switch x := e.(type) {
	case *sqldb.ColumnRef:
		visit(x)
	case *sqldb.BinaryExpr:
		walkRefs(x.Left, visit)
		walkRefs(x.Right, visit)
	case *sqldb.UnaryExpr:
		walkRefs(x.X, visit)
	case *sqldb.AggExpr:
		if x.Arg != nil {
			walkRefs(x.Arg, visit)
		}
	case *sqldb.InExpr:
		walkRefs(x.X, visit)
		for _, item := range x.List {
			walkRefs(item, visit)
		}
	case *sqldb.BetweenExpr:
		walkRefs(x.X, visit)
		walkRefs(x.Lo, visit)
		walkRefs(x.Hi, visit)
	case *sqldb.LikeExpr:
		walkRefs(x.X, visit)
		walkRefs(x.Pattern, visit)
	case *sqldb.IsNullExpr:
		walkRefs(x.X, visit)
	}
}

// fragmentColumns lists, per FROM binding, the columns the local join
// reads from it: select items, join conditions, the residual WHERE
// (pushed conjuncts are evaluated where the fragment lives), GROUP BY
// and ORDER BY. Each list is sorted, so queries that need the same
// columns ask for them in the same words and share a query class. It
// returns nil — every subquery ships whole rows — when an item is a
// star or a reference is unqualified: which binding that column comes
// from is not knowable without the nodes' schemas, the same rule that
// keeps such a conjunct out of predicate pushdown.
func fragmentColumns(sel *sqldb.SelectStmt, residual []sqldb.Expr) map[string][]string {
	needed := map[string][]string{}
	unqualified := false
	note := func(r *sqldb.ColumnRef) {
		if r.Table == "" {
			unqualified = true
		} else if !slices.Contains(needed[r.Table], r.Column) {
			needed[r.Table] = append(needed[r.Table], r.Column)
		}
	}
	for _, it := range sel.Items {
		if it.Star {
			return nil
		}
		walkRefs(it.Expr, note)
	}
	for i := range sel.Joins {
		note(&sel.Joins[i].Left)
		note(&sel.Joins[i].Right)
	}
	// ORDER BY with select aliases resolved, as the executors read it.
	orderKeys, err := sqldb.OrderKeyExprs(sel)
	if err != nil {
		return nil // the local join reports it
	}
	for _, e := range slices.Concat(residual, sel.GroupBy, orderKeys) {
		walkRefs(e, note)
	}
	if unqualified {
		return nil
	}
	for _, cols := range needed {
		slices.Sort(cols)
	}
	return needed
}

// buildSubquery renders "SELECT cols FROM rel [WHERE pushed...]" with
// the pushed conjuncts rewritten against the bare relation; no cols
// means the whole row.
func buildSubquery(ref sqldb.TableRef, cols []string, pushed []sqldb.Expr) string {
	var b strings.Builder
	items := "*"
	if len(cols) > 0 {
		items = strings.Join(cols, ", ")
	}
	fmt.Fprintf(&b, "SELECT %s FROM %s", items, ref.Table)
	if ref.Alias != "" && ref.Alias != ref.Table {
		fmt.Fprintf(&b, " AS %s", ref.Alias)
	}
	if len(pushed) > 0 {
		b.WriteString(" WHERE ")
		for i, c := range pushed {
			if i > 0 {
				b.WriteString(" AND ")
			}
			b.WriteString(c.String())
		}
	}
	return b.String()
}

// rewriteLocal adapts the original SELECT to the scratch engine: the
// FROM entries point at the fragment tables (named by binding), and
// the WHERE keeps only the residual conjuncts.
func rewriteLocal(sel *sqldb.SelectStmt, residual []sqldb.Expr) *sqldb.SelectStmt {
	local := *sel
	local.From = make([]sqldb.TableRef, len(sel.From))
	for i, f := range sel.From {
		local.From[i] = sqldb.TableRef{Table: f.Name()}
	}
	local.Where = nil
	for _, c := range residual {
		if local.Where == nil {
			local.Where = c
		} else {
			local.Where = &sqldb.BinaryExpr{Op: "AND", Left: local.Where, Right: c}
		}
	}
	return &local
}
