package main

import (
	"runtime"
	"time"

	"github.com/qamarket/qamarket/internal/driver"
	"github.com/qamarket/qamarket/internal/economics"
	"github.com/qamarket/qamarket/internal/engine"
	"github.com/qamarket/qamarket/internal/market"
	"github.com/qamarket/qamarket/internal/sqldb"
	"github.com/qamarket/qamarket/internal/trace"
)

// replayQueries is how many statements of the workload's seeded list the
// replay cycles through.
const replayQueries = 48

// minCalls is the fewest calls a replay step makes however slow they
// are; beyond that a step stops at its budget.
const minCalls = 4

// timeCalls calls fn round-robin over n items on the calling goroutine
// for about `budget` and returns each call's duration in nanoseconds.
func timeCalls(n int, budget time.Duration, fn func(i int)) []float64 {
	var ns []float64
	deadline := time.Now().Add(budget)
	for i := 0; len(ns) < minCalls || time.Now().Before(deadline); i = (i + 1) % n {
		t0 := time.Now()
		fn(i)
		ns = append(ns, float64(time.Since(t0)))
	}
	return ns
}

// timeLoop times reps back-to-back calls of fn as one interval, for
// calls too short for a per-call clock read, and returns ns per call as
// the median over the batches that fit in budget.
func timeLoop(reps int, budget time.Duration, fn func()) float64 {
	var per []float64
	deadline := time.Now().Add(budget)
	for len(per) == 0 || time.Now().Before(deadline) {
		t0 := time.Now()
		for i := 0; i < reps; i++ {
			fn()
		}
		per = append(per, float64(time.Since(t0))/float64(reps))
	}
	return median(per)
}

// inputRows counts the base-table rows a statement reads: each FROM
// relation's table, a view resolving to the table it restricts.
func inputRows(db *sqldb.DB, sql string) int {
	stmt, err := sqldb.Parse(sql)
	if err != nil {
		return 0
	}
	sel, ok := stmt.(*sqldb.SelectStmt)
	if !ok {
		return 0
	}
	total := 0
	for _, ref := range sel.From {
		name := ref.Name()
		if view, ok := db.ViewSelect(name); ok && len(view.From) > 0 {
			name = view.From[0].Name()
		}
		if n, err := db.RowCount(name); err == nil {
			total += n
		}
	}
	return total
}

// replay fills the (c) metrics: one goroutine, no federation, the
// workload's own statements, timing calls into each layer's public
// functions from outside.
func replay(s *session, budget time.Duration, out map[string]float64) {
	slice := budget / 10
	qr := newQueryRand(s.cfg.seed)
	type prepared struct {
		q      query
		row    driver.Driver
		vec    driver.Driver
		rowSt  driver.Statement
		vecSt  driver.Statement
		inRows int
	}
	rowDrv := make(map[*sqldb.DB]driver.Driver)
	vecDrv := make(map[*sqldb.DB]driver.Driver)
	stmts := make([]prepared, 0, replayQueries)
	for i := int64(0); i < replayQueries; i++ {
		q := s.fed.inst.at(qr, i)
		db := s.fed.inst.oracleDB(q)
		if rowDrv[db] == nil {
			rowDrv[db] = driver.NewLegacy(db)
			vecDrv[db] = engine.FromDB(db)
		}
		p := prepared{q: q, row: rowDrv[db], vec: vecDrv[db], inRows: inputRows(db, q.SQL)}
		var err error
		if p.rowSt, err = p.row.Prepare(q.SQL); err != nil {
			s.problemf("replay: row prepare %q: %v", q.SQL, err)
			return
		}
		if p.vecSt, err = p.vec.Prepare(q.SQL); err != nil {
			s.problemf("replay: vector prepare %q: %v", q.SQL, err)
			return
		}
		stmts = append(stmts, p)
	}
	n := len(stmts)

	// Every statement prepared without error just above; the timed calls
	// repeat exactly that.
	out["sqldb.prepare_us"] = median(timeCalls(n, slice, func(i int) { _, _ = stmts[i].row.Prepare(stmts[i].q.SQL) })) / 1e3
	out["engine.prepare_us"] = median(timeCalls(n, slice, func(i int) { _, _ = stmts[i].vec.Prepare(stmts[i].q.SQL) })) / 1e3

	// Vector Execute: time, input rows, output rows and bytes allocated.
	var (
		inRows, outRows int
		largest         *driver.Block
		classMs         = make(map[string][]float64)
		before, after   runtime.MemStats
	)
	runtime.ReadMemStats(&before)
	vecNs := timeCalls(n, 2*slice, func(i int) {
		t0 := time.Now()
		blk, err := stmts[i].vecSt.Execute()
		if err != nil {
			s.problemf("replay: vector execute %q: %v", stmts[i].q.SQL, err)
			return
		}
		sig := stmts[i].vecSt.Hints().Signature
		classMs[sig] = append(classMs[sig], msSince(t0))
		inRows += stmts[i].inRows
		outRows += blk.Rows
		if largest == nil || blk.Rows > largest.Rows {
			largest = blk
		}
	})
	runtime.ReadMemStats(&after)
	total := 0.0
	for _, v := range vecNs {
		total += v
	}
	out["engine.replay_exec_ms"] = median(vecNs) / 1e6
	out["engine.ns_per_input_row"] = total / float64(max(inRows, 1))
	out["engine.alloc_bytes_per_output_row"] = float64(after.TotalAlloc-before.TotalAlloc) / float64(max(outRows, 1))

	out["sqldb.exec_ms"] = median(timeCalls(n, 2*slice, func(i int) {
		if _, err := stmts[i].rowSt.Execute(); err != nil {
			s.problemf("replay: row execute %q: %v", stmts[i].q.SQL, err)
		}
	})) / 1e6

	// Block walks over the largest result the workload produced.
	out["driver.next_batch_ns_per_row"], out["driver.append_rows_ns_per_row"] = 0, 0
	if largest != nil && largest.Rows > 0 {
		var batch driver.Block
		rows := float64(largest.Rows)
		out["driver.next_batch_ns_per_row"] = timeLoop(8, slice, func() {
			var cur driver.Cursor
			for largest.NextBatch(&cur, 4096, &batch) {
			}
		}) / rows
		out["driver.append_rows_ns_per_row"] = timeLoop(1, slice, func() {
			if _, err := largest.AppendRows(nil); err != nil {
				s.problemf("replay: AppendRows: %v", err)
			}
		}) / rows
	}

	// The QA-NT agent over the workload's own classes: one per plan
	// signature, priced at the execution time just measured.
	costs := make([]float64, 0, len(classMs))
	for _, ms := range classMs {
		costs = append(costs, max(median(ms), 1e-3))
	}
	mcfg := marketConfig()
	mcfg.Classes = len(costs)
	agent, err := market.NewAgent(economics.TimeBudgetSupplySet{Cost: costs, Budget: float64(s.cfg.w.periodMs)}, mcfg)
	if err != nil {
		s.problemf("replay: market agent: %v", err)
		return
	}
	// Whole periods, each part on its own clock: eq. 4's supply solve,
	// one request per class, the unsold-supply price cut.
	var beginNs, tradeNs, endNs []float64
	for deadline := time.Now().Add(slice); len(beginNs) < minCalls || time.Now().Before(deadline); {
		t0 := time.Now()
		agent.BeginPeriod()
		t1 := time.Now()
		for k := range costs {
			if agent.Offer(k) {
				_ = agent.Accept(k) // an offer just made cannot fail to be accepted
			}
		}
		t2 := time.Now()
		agent.EndPeriod()
		t3 := time.Now()
		beginNs = append(beginNs, float64(t1.Sub(t0)))
		tradeNs = append(tradeNs, float64(t2.Sub(t1))/float64(len(costs)))
		endNs = append(endNs, float64(t3.Sub(t2)))
	}
	out["market.begin_period_us"] = median(beginNs) / 1e3
	out["market.offer_accept_ns"] = median(tradeNs)
	out["market.end_period_us"] = median(endNs) / 1e3

	rec := trace.NewRecorder("bench", trace.DefaultCapacity, nil)
	out["trace.span_ns"] = timeLoop(256, slice, func() {
		sp := rec.Start(1, "", "run")
		sp.Annotate("node=%s retries=%d", "n0", 0)
		sp.Finish()
	})
}
