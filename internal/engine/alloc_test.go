package engine

import (
	"fmt"
	"runtime"
	"runtime/debug"
	"testing"

	"github.com/qamarket/qamarket/internal/sqldb"
)

// TestSelectAllocBudget is the executor's allocation budget as a test:
// what a select may allocate is a function of what it returns, not of
// what it reads. Over a 20,000-row NULL-free big(a, b, c, d) joined to
// a 100-row dim, with a filter that keeps half the rows:
//
//   - a filtered scan allocates the selection it returns (4 B a kept
//     row) and nothing per output column;
//   - a filtered aggregate, grouped or not, allocates per group;
//   - a star join allocates per group too: its pairs are pooled
//     selections and it copies no column;
//   - a tiny join pays for a tiny table.
func TestSelectAllocBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops at random under -race, so pooled scratch is reallocated")
	}
	const bigRows = 20_000
	src := sqldb.Open()
	mustExecB(src, "CREATE TABLE big (a INT, b FLOAT, c TEXT, d BOOL)")
	mustExecB(src, "CREATE TABLE dim (k INT, name TEXT)")
	big := make([]sqldb.Row, bigRows)
	for i := range big {
		big[i] = sqldb.Row{
			sqldb.NewInt(int64(i * 31 % 100)),
			sqldb.NewFloat(float64(i*7919%bigRows) / 2),
			sqldb.NewText(fmt.Sprintf("t%03d", i%997)),
			sqldb.NewBool(i%2 == 0),
		}
	}
	dim := make([]sqldb.Row, 100)
	for i := range dim {
		dim[i] = sqldb.Row{sqldb.NewInt(int64(i)), sqldb.NewText(fmt.Sprintf("d%02d", i))}
	}
	if err := src.AppendTableRows("big", big); err != nil {
		t.Fatal(err)
	}
	if err := src.AppendTableRows("dim", dim); err != nil {
		t.Fatal(err)
	}
	mustExecB(src, "CREATE TABLE small (k INT, g INT)")
	mustExecB(src, "CREATE TABLE small2 (k INT, v FLOAT)")
	small, small2 := make([]sqldb.Row, 50), make([]sqldb.Row, 50)
	for i := range small {
		small[i] = sqldb.Row{sqldb.NewInt(int64(i)), sqldb.NewInt(int64(i % 8))}
		small2[i] = sqldb.Row{sqldb.NewInt(int64(49 - i)), sqldb.NewFloat(float64(i) / 4)}
	}
	if err := src.AppendTableRows("small", small); err != nil {
		t.Fatal(err)
	}
	if err := src.AppendTableRows("small2", small2); err != nil {
		t.Fatal(err)
	}
	e := FromDB(src)

	// measure reports allocations and bytes per execution, in steady
	// state: the first run fills the selection pool, and the collector
	// is held off while the runs are counted — a cycle empties every
	// sync.Pool, and one ~100 KB selection allocated again is over
	// 2 KB a run, twice the per-column budget below. The bytes are
	// counted on one P, as testing.AllocsPerRun counts allocations: a
	// goroutine that moves to another P between a selection's Put and
	// its Get misses the pooled one, since a P's private slot cannot be
	// stolen, and allocates it again.
	measure := func(sql string, wantRows int) (allocs, bytes float64) {
		t.Helper()
		defer debug.SetGCPercent(debug.SetGCPercent(-1))
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
		st, err := e.Prepare(sql)
		if err != nil {
			t.Fatal(err)
		}
		run := func() {
			blk, err := st.Execute()
			if err != nil || blk.Rows != wantRows {
				t.Fatalf("%q: %v, %d rows, want %d", sql, err, blk.Rows, wantRows)
			}
		}
		const runs = 40
		allocs = testing.AllocsPerRun(runs, run)
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for i := 0; i < runs; i++ {
			run()
		}
		runtime.ReadMemStats(&after)
		return allocs, float64(after.TotalAlloc-before.TotalAlloc) / runs
	}
	const where = " WHERE b < 5000" // keeps half: b is a permutation of 0, 0.5, …, 9999.5

	_, scan2 := measure("SELECT a, b FROM big"+where, bigRows/2)
	allocs, scan4 := measure("SELECT a, b, c, d FROM big"+where, bigRows/2)
	if perRow := scan2 / bigRows; perRow > 6 || allocs > 40 {
		t.Errorf("filtered scan: %.1f B per input row in %.0f allocations, budget 6 B and 40", perRow, allocs)
	}
	if extra := scan4 - scan2; extra > 1024 {
		t.Errorf("two more output columns cost %.0f B: a filtered scan must not allocate per column", extra)
	}

	for _, c := range []struct {
		name, sql string
		rows      int
		maxAllocs float64
		maxBytes  float64
	}{
		{"filtered aggregate", "SELECT COUNT(*), SUM(b), MIN(a), AVG(b) FROM big" + where, 1, 64, 8 << 10},
		{"filtered GROUP BY, 100 groups", "SELECT a, COUNT(*), SUM(b) FROM big" + where + " GROUP BY a", 100, 200, 48 << 10},
		{"filtered GROUP BY, 2 groups", "SELECT d, COUNT(*), MAX(b) FROM big" + where + " GROUP BY d", 2, 80, 8 << 10},
		// The pairs, the key numbers and the bucket lists are pooled
		// selections and no column is gathered, so what is left is what
		// the GROUP BY above costs — the per-group accumulators and the
		// 100 output rows — plus the key table's keys: under 4 B an input
		// row, where the gathered b and name used to cost 21.
		{"star join", "SELECT dim.name, COUNT(*), SUM(big.b) FROM big JOIN dim ON big.a = dim.k WHERE big.b < 5000 GROUP BY dim.name", 100, 200, 4 * bigRows},
		// 50 rows × 50 rows into 8 groups: the table is sized from the 50
		// rows it is fed, not from the largest selection in the pool. The
		// budget is what the parent commit, with Go maps and two
		// gathered columns, read.
		{"small join", "SELECT small.g, COUNT(*), SUM(small2.v) FROM small JOIN small2 ON small.k = small2.k GROUP BY small.g", 8, 83, 8488},
	} {
		allocs, bytes := measure(c.sql, c.rows)
		if allocs > c.maxAllocs || bytes > c.maxBytes {
			t.Errorf("%s: %.0f allocations, %.0f B; budget %.0f and %.0f", c.name, allocs, bytes, c.maxAllocs, c.maxBytes)
		}
		t.Logf("%s: %.0f allocations, %.0f B", c.name, allocs, bytes)
	}
	t.Logf("filtered scan: %.0f allocations, %.0f B (2 columns), %.0f B (4 columns)", allocs, scan2, scan4)
}
