package main

import (
	"fmt"
	"math"
	"sort"
	"strings"

	"github.com/qamarket/qamarket/internal/sqldb"
)

// oracle answers the workload's queries on the reference row engine
// (internal/sqldb, the differential oracle of the vectorized executor)
// over its own copy of the data, memoized by canonical statement.
type oracle struct {
	inst    *instance
	results map[string]*sqldb.Result
	counts  map[string]int
}

func newOracle(inst *instance) *oracle {
	return &oracle{inst: inst, results: make(map[string]*sqldb.Result), counts: make(map[string]int)}
}

// result returns the full reference result, for the cell-for-cell pass.
func (o *oracle) result(q query) (*sqldb.Result, error) {
	if res, ok := o.results[q.Canon]; ok {
		return res, nil
	}
	res, err := o.inst.oracleDB(q).Query(q.Canon)
	if err != nil {
		return nil, fmt.Errorf("oracle: %s: %w", q.Canon, err)
	}
	o.results[q.Canon] = res
	o.counts[q.Canon] = len(res.Rows)
	return res, nil
}

// rows returns the reference row count, all a timed query is checked on.
func (o *oracle) rows(q query) (int, error) {
	if n, ok := o.counts[q.Canon]; ok {
		return n, nil
	}
	res, err := o.inst.oracleDB(q).Query(q.Canon)
	if err != nil {
		return 0, fmt.Errorf("oracle: %s: %w", q.Canon, err)
	}
	o.counts[q.Canon] = len(res.Rows)
	return len(res.Rows), nil
}

// forgetResults drops the memoized rows once the cell-for-cell pass is
// over, keeping the counts: hundreds of megabytes of reference rows must
// not sit in the heap the window's peak_rss_mb is read from.
func (o *oracle) forgetResults() { o.results = make(map[string]*sqldb.Result) }

// floatTol is the relative tolerance on FLOAT cells: the two engines may
// sum in different orders.
const floatTol = 1e-9

func cellsEqual(a, b sqldb.Value) bool {
	if a.Kind == sqldb.KindFloat && b.Kind == sqldb.KindFloat {
		if a.Float == b.Float {
			return true
		}
		scale := math.Max(math.Abs(a.Float), math.Abs(b.Float))
		return math.Abs(a.Float-b.Float) <= floatTol*scale
	}
	return a.Kind == b.Kind && sqldb.Equal(a, b)
}

func rowsEqual(a, b []sqldb.Row) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if len(a[i]) != len(b[i]) {
			return false
		}
		for j := range a[i] {
			if !cellsEqual(a[i][j], b[i][j]) {
				return false
			}
		}
	}
	return true
}

// sortRows orders rows lexicographically so two engines' outputs can be
// compared as multisets.
func sortRows(rows []sqldb.Row) []sqldb.Row {
	out := append([]sqldb.Row(nil), rows...)
	sort.SliceStable(out, func(i, j int) bool {
		for c := range out[i] {
			if c >= len(out[j]) {
				return false
			}
			if d := sqldb.Compare(out[i][c], out[j][c]); d != 0 {
				return d < 0
			}
		}
		return false
	})
	return out
}

// sameResult compares got with want cell for cell: in order when the
// statement has an ORDER BY, as multisets otherwise. The in-order pass
// runs first either way — two engines scanning the same storage order
// usually agree on it, and it is linear.
func sameResult(sql string, got, want *sqldb.Result) error {
	if got == nil {
		return fmt.Errorf("no result for %q", sql)
	}
	if len(got.Rows) != len(want.Rows) {
		return fmt.Errorf("%q: %d rows, oracle has %d", sql, len(got.Rows), len(want.Rows))
	}
	if len(got.Rows) > 0 && len(got.Columns) != len(want.Columns) {
		return fmt.Errorf("%q: %d columns, oracle has %d", sql, len(got.Columns), len(want.Columns))
	}
	if rowsEqual(got.Rows, want.Rows) {
		return nil
	}
	if strings.Contains(strings.ToUpper(sql), "ORDER BY") {
		return fmt.Errorf("%q: ordered result differs from the oracle", sql)
	}
	if rowsEqual(sortRows(got.Rows), sortRows(want.Rows)) {
		return nil
	}
	return fmt.Errorf("%q: result differs from the oracle", sql)
}
