package sqldb

import (
	"fmt"
)

// index is a hash index over one column: value key -> row positions.
// Inserts append incrementally; UPDATE and DELETE rebuild the table's
// indexes (simple and correct; these tables are read-mostly).
type index struct {
	name   string
	table  string
	column string
	col    int              // column position
	m      map[string][]int // value groupKey -> row positions
}

func (ix *index) rebuild(t *table) {
	ix.m = make(map[string][]int, len(t.rows))
	for pos, row := range t.rows {
		k := row[ix.col].groupKey()
		ix.m[k] = append(ix.m[k], pos)
	}
}

func (ix *index) add(t *table, from int) {
	for pos := from; pos < len(t.rows); pos++ {
		k := t.rows[pos][ix.col].groupKey()
		ix.m[k] = append(ix.m[k], pos)
	}
}

// createIndex handles CREATE INDEX.
func (db *DB) createIndex(s *CreateIndexStmt) error {
	db.mu.Lock()
	defer db.mu.Unlock()
	if _, dup := db.indexes[s.Name]; dup {
		return fmt.Errorf("sqldb: index %q already exists", s.Name)
	}
	t, ok := db.tables[s.Table]
	if !ok {
		return fmt.Errorf("sqldb: no table %q", s.Table)
	}
	col, ok := t.idx[s.Column]
	if !ok {
		return fmt.Errorf("sqldb: no column %q in table %q", s.Column, s.Table)
	}
	ix := &index{name: s.Name, table: s.Table, column: s.Column, col: col}
	ix.rebuild(t)
	db.indexes[s.Name] = ix
	db.tableIndexes[s.Table] = append(db.tableIndexes[s.Table], ix)
	return nil
}

// lookupIndex finds an index on (table, column), if any. Caller holds
// at least a read lock.
func (db *DB) lookupIndex(table, column string) *index {
	for _, ix := range db.tableIndexes[table] {
		if ix.column == column {
			return ix
		}
	}
	return nil
}

// refreshIndexesAfterInsert incrementally extends the table's indexes.
// Caller holds the write lock.
func (db *DB) refreshIndexesAfterInsert(t *table, firstNew int) {
	for _, ix := range db.tableIndexes[t.name] {
		ix.add(t, firstNew)
	}
}

// rebuildIndexes recomputes all indexes of a table after UPDATE or
// DELETE. Caller holds the write lock.
func (db *DB) rebuildIndexes(t *table) {
	for _, ix := range db.tableIndexes[t.name] {
		ix.rebuild(t)
	}
}

// indexableEq inspects the WHERE clause for an equality conjunct
// "ref.col = literal" (or reversed) that binds only the given FROM
// entry, returning the column and constant. Unqualified columns only
// count when the query has a single FROM entry.
func indexableEq(sel *SelectStmt, refIdx int) (string, Value, bool) {
	if sel.Where == nil {
		return "", Null, false
	}
	ref := sel.From[refIdx]
	single := len(sel.From) == 1
	for _, c := range andConjuncts(sel.Where) {
		b, ok := c.(*BinaryExpr)
		if !ok || b.Op != "=" {
			continue
		}
		col, lit := asColLit(b.Left, b.Right)
		if col == nil {
			col, lit = asColLit(b.Right, b.Left)
		}
		if col == nil || lit == nil || lit.Val.IsNull() {
			continue
		}
		if col.Table == ref.Name() || (col.Table == "" && single) {
			return col.Column, lit.Val, true
		}
	}
	return "", Null, false
}

func asColLit(a, b Expr) (*ColumnRef, *Literal) {
	col, ok := a.(*ColumnRef)
	if !ok {
		return nil, nil
	}
	lit, ok := b.(*Literal)
	if !ok {
		return nil, nil
	}
	return col, lit
}

func andConjuncts(e Expr) []Expr {
	if b, ok := e.(*BinaryExpr); ok && b.Op == "AND" {
		return append(andConjuncts(b.Left), andConjuncts(b.Right)...)
	}
	return []Expr{e}
}
