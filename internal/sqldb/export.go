package sqldb

import (
	"fmt"
	"sort"
)

// This file is the exported surface the vectorized engine builds on. It
// must agree with this one cell-for-cell — it is differential-tested
// against sqldb — so the scalar
// semantics (NULL logic, coercions, hash keys) are exported here as the
// single source of truth instead of being re-implemented per backend.

// GroupKey serializes a value for hash-aggregation and hash-join keys.
// Numeric values of equal magnitude share a key.
func (v Value) GroupKey() string { return v.groupKey() }

// AsFloat coerces numeric values to float64 for mixed arithmetic,
// reporting false for non-numeric kinds.
func (v Value) AsFloat() (float64, bool) { return v.asFloat() }

// ApplyBinary applies a binary operator (+ - * / = <> < <= > >= AND OR)
// to two already-evaluated operands under this engine's three-valued
// NULL logic. It does not short-circuit; callers that must match the
// executor's lazy AND/OR evaluation handle that before calling.
func ApplyBinary(op string, l, r Value) (Value, error) { return applyBinary(op, l, r) }

// ApplyUnary applies NOT or unary minus.
func ApplyUnary(op string, v Value) (Value, error) { return applyUnary(op, v) }

// LikeMatch implements SQL LIKE: % matches any run (including empty),
// _ matches exactly one byte. Byte-wise and case-sensitive.
func LikeMatch(s, pattern string) bool { return likeMatch(s, pattern) }

// EvalConst evaluates an expression with no column references (INSERT
// values, literal folding).
func EvalConst(e Expr) (Value, error) { return evalConst(e) }

// Coerce converts v to the column type, allowing the usual widenings
// (int literals into FLOAT columns).
func Coerce(v Value, t Type) (Value, error) { return coerce(v, t) }

// NeedsAggregation reports whether the SELECT runs through the grouped
// path: any GROUP BY clause, or an aggregate in the projection.
func NeedsAggregation(s *SelectStmt) bool { return needsAggregation(s) }

// OrderKeyExprs returns the ORDER BY key expressions with select
// aliases substituted (ORDER BY total for SELECT SUM(x) AS total).
func OrderKeyExprs(s *SelectStmt) ([]Expr, error) { return substituteAliases(s) }

// ItemName names one projection column: alias, bare column name, or the
// lower-cased expression rendering.
func ItemName(it SelectItem) string { return itemName(it) }

// IndexableEq inspects the WHERE clause for an equality conjunct
// "ref.col = literal" binding only FROM entry refIdx, the condition
// under which the planner prices an index scan.
func IndexableEq(sel *SelectStmt, refIdx int) (string, Value, bool) {
	return indexableEq(sel, refIdx)
}

// MaxViewDepth is the bound on view-over-view recursion every executor
// enforces identically.
const MaxViewDepth = maxViewDepth

// TableSchema returns the column definitions of a base table.
func (db *DB) TableSchema(name string) ([]ColumnDef, bool) {
	db.mu.RLock()
	defer db.mu.RUnlock()
	t, ok := db.tables[name]
	if !ok {
		return nil, false
	}
	return t.cols, true
}

// TableRows returns the current rows of a base table. The slice aliases
// live storage: callers must treat it as read-only and must not retain
// it across writes. It exists so another backend can ingest this
// engine's data without a per-row SQL round trip.
func (db *DB) TableRows(name string) ([]Row, bool) {
	db.mu.RLock()
	defer db.mu.RUnlock()
	t, ok := db.tables[name]
	if !ok {
		return nil, false
	}
	return t.rows, true
}

// AppendTableRows bulk-loads already-typed rows into a base table,
// bypassing SQL parsing — the ingestion twin of TableRows. Values are
// coerced to the column types exactly like INSERT, the input rows are
// copied (the caller keeps ownership of its slices), and indexes are
// refreshed once at the end.
func (db *DB) AppendTableRows(name string, rows []Row) error {
	db.mu.Lock()
	defer db.mu.Unlock()
	t, ok := db.tables[name]
	if !ok {
		return fmt.Errorf("sqldb: no table %q", name)
	}
	added := make([]Row, 0, len(rows))
	for ri, r := range rows {
		if len(r) != len(t.cols) {
			return fmt.Errorf("sqldb: row %d has %d values, table %q has %d columns",
				ri, len(r), name, len(t.cols))
		}
		row := make(Row, len(r))
		for ci, v := range r {
			cv, err := coerce(v, t.cols[ci].Type)
			if err != nil {
				return fmt.Errorf("sqldb: row %d column %q: %w", ri, t.cols[ci].Name, err)
			}
			row[ci] = cv
		}
		added = append(added, row)
	}
	firstNew := len(t.rows)
	t.rows = append(t.rows, added...)
	db.refreshIndexesAfterInsert(t, firstNew)
	return nil
}

// ViewSelect returns the SELECT a view is defined as.
func (db *DB) ViewSelect(name string) (*SelectStmt, bool) {
	db.mu.RLock()
	defer db.mu.RUnlock()
	v, ok := db.views[name]
	return v, ok
}

// IndexDefs lists (table, column) pairs for every index, in creation
// order per table, so another backend can mirror the access paths that
// feed this engine's plan signatures.
func (db *DB) IndexDefs() [][2]string {
	db.mu.RLock()
	defer db.mu.RUnlock()
	names := make([]string, 0, len(db.indexes))
	for n := range db.indexes {
		names = append(names, n)
	}
	sort.Strings(names)
	out := make([][2]string, 0, len(names))
	for _, name := range names {
		ix := db.indexes[name]
		out = append(out, [2]string{ix.table, ix.column})
	}
	return out
}
