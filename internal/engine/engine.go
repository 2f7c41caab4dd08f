// Package engine is the vectorized columnar executor behind the
// "vector" storage driver. Tables are stored column-wise, and a query
// runs over one intermediate form — column vectors that alias storage,
// each read through a selection vector (erel) — so that filtering
// replaces a selection instead of copying rows: the leading conjuncts
// of WHERE that cannot raise refine the selection on the scan, below
// any join; a join's output is its inputs' vectors behind the two
// halves of the matching pairs, and copies no value; aggregates and
// GROUP BY fold over (vector, selection) with typed keys numbered in
// one open-addressing table. Results are emitted as driver.Blocks whose
// arrays alias the engine's own column vectors — through Block.Sel when
// the result is a selection of them — so the cluster's binary frame
// lane serializes them with zero transposition and copies only the rows
// it ships.
//
// The engine is a semantic mirror of the row-based reference engine
// (internal/sqldb): same SQL dialect (it reuses sqldb's parser and
// planner), same NULL logic and coercions (it calls sqldb's exported
// scalar kernels), same hash keys, and the same error text — "sqldb:"
// prefix included — so that which backend served a query is invisible
// to clients. The differential harness in internal/driver/difftest
// holds it to that cell-for-cell.
package engine

import (
	"fmt"
	"sort"
	"sync"

	"github.com/qamarket/qamarket/internal/driver"
	"github.com/qamarket/qamarket/internal/sqldb"
)

// DB is one columnar database instance. It implements driver.Driver.
type DB struct {
	mu           sync.RWMutex
	tables       map[string]*table
	views        map[string]*sqldb.SelectStmt
	indexes      map[string]*index
	tableIndexes map[string][]*index
}

// Open creates an empty instance.
func Open() *DB {
	return &DB{
		tables:       make(map[string]*table),
		views:        make(map[string]*sqldb.SelectStmt),
		indexes:      make(map[string]*index),
		tableIndexes: make(map[string][]*index),
	}
}

// FromDB builds a columnar instance holding the same catalog and data
// as a row-engine instance: tables are transposed into column vectors,
// views share the parsed SELECT, and every index is mirrored so the
// planner prices identical access paths (identical plan signatures and
// cost hints being what keeps a mixed federation's query classes
// coherent).
func FromDB(src *sqldb.DB) *DB {
	e := Open()
	for _, name := range src.Tables() {
		cols, _ := src.TableSchema(name)
		rows, _ := src.TableRows(name)
		e.newTable(name, cols).load(rows)
	}
	for _, name := range src.Views() {
		v, _ := src.ViewSelect(name)
		e.views[name] = v
	}
	for i, def := range src.IndexDefs() {
		name := fmt.Sprintf("%s_%s_ix%d", def[0], def[1], i)
		e.addIndex(name, def[0], def[1])
	}
	return e
}

// newTable registers an empty table. Caller guarantees the name is
// free and the columns valid.
func (e *DB) newTable(name string, cols []sqldb.ColumnDef) *table {
	idx := make(map[string]int, len(cols))
	vecs := make([]*colVec, len(cols))
	for i, c := range cols {
		idx[c.Name] = i
		vecs[i] = &colVec{}
	}
	t := &table{name: name, cols: cols, idx: idx, vecs: vecs}
	e.tables[name] = t
	return t
}

// load fills a new table's vectors from row-major rows, sizing every
// array once: one pass counts each column's kinds, a second writes in
// place. Cells beyond a short row are NULL.
func (t *table) load(rows []sqldb.Row) {
	counts := make([][sqldb.KindBool + 1]int, len(t.vecs))
	for _, row := range rows {
		for ci := range row[:min(len(row), len(counts))] {
			counts[ci][row[ci].Kind]++
		}
	}
	for ci, v := range t.vecs {
		n := &counts[ci]
		v.kinds = make([]byte, len(rows))
		v.offs = make([]int32, len(rows))
		if n[sqldb.KindInt] > 0 {
			v.ints = make([]int64, 0, n[sqldb.KindInt])
		}
		if n[sqldb.KindFloat] > 0 {
			v.floats = make([]float64, 0, n[sqldb.KindFloat])
		}
		if n[sqldb.KindText] > 0 {
			v.texts = make([]string, 0, n[sqldb.KindText])
		}
		if n[sqldb.KindBool] > 0 {
			v.bools = make([]bool, 0, n[sqldb.KindBool])
		}
	}
	for i, row := range rows {
		for ci, v := range t.vecs {
			cell := &sqldb.Null
			if ci < len(row) {
				cell = &row[ci]
			}
			switch cell.Kind {
			case sqldb.KindInt:
				v.kinds[i], v.offs[i] = driver.KindByteInt, int32(len(v.ints))
				v.ints = append(v.ints, cell.Int)
			case sqldb.KindFloat:
				v.kinds[i], v.offs[i] = driver.KindByteFloat, int32(len(v.floats))
				v.floats = append(v.floats, cell.Float)
			case sqldb.KindText:
				v.kinds[i], v.offs[i] = driver.KindByteText, int32(len(v.texts))
				v.texts = append(v.texts, cell.Str)
			case sqldb.KindBool:
				v.kinds[i], v.offs[i] = driver.KindByteBool, int32(len(v.bools))
				v.bools = append(v.bools, cell.Bool)
			default:
				v.kinds[i] = driver.KindByteNull
			}
		}
	}
}

// addIndex registers and builds an index. Caller guarantees the table
// and column exist and the name is free.
func (e *DB) addIndex(name, tbl, column string) {
	t := e.tables[tbl]
	ix := &index{name: name, table: tbl, column: column, col: t.idx[column]}
	ix.rebuild(t)
	e.indexes[name] = ix
	e.tableIndexes[tbl] = append(e.tableIndexes[tbl], ix)
}

// Tables lists base tables, sorted.
func (e *DB) Tables() []string {
	e.mu.RLock()
	defer e.mu.RUnlock()
	return sortedKeys(e.tables)
}

// Views lists views, sorted.
func (e *DB) Views() []string {
	e.mu.RLock()
	defer e.mu.RUnlock()
	return sortedKeys(e.views)
}

// HasRelation reports whether name is a table or view here.
func (e *DB) HasRelation(name string) bool {
	e.mu.RLock()
	defer e.mu.RUnlock()
	_, t := e.tables[name]
	_, v := e.views[name]
	return t || v
}

// Exec parses and executes one statement, returning rows affected.
// SELECT (and EXPLAIN) run and discard their result, like the row
// engine's Exec.
func (e *DB) Exec(sql string) (int, error) {
	stmt, err := sqldb.Parse(sql)
	if err != nil {
		return 0, err
	}
	switch s := stmt.(type) {
	case *sqldb.CreateTableStmt:
		return 0, e.createTable(s)
	case *sqldb.CreateViewStmt:
		return 0, e.createView(s)
	case *sqldb.CreateIndexStmt:
		return 0, e.createIndex(s)
	case *sqldb.InsertStmt:
		return e.insert(s)
	case *sqldb.UpdateStmt:
		return e.update(s)
	case *sqldb.DeleteStmt:
		return e.delete(s)
	case *sqldb.SelectStmt:
		_, err := e.Select(s)
		return 0, err
	case *sqldb.ExplainStmt:
		e.mu.RLock()
		defer e.mu.RUnlock()
		_, err := sqldb.PlanSelectOn(planCat{e}, s.Select)
		return 0, err
	default:
		return 0, fmt.Errorf("sqldb: unhandled statement %T", stmt)
	}
}

// Prepare plans one SELECT (or EXPLAIN SELECT) without executing it.
func (e *DB) Prepare(sql string) (driver.Statement, error) {
	stmt, err := sqldb.Parse(sql)
	if err != nil {
		return nil, err
	}
	var sel *sqldb.SelectStmt
	switch s := stmt.(type) {
	case *sqldb.SelectStmt:
		sel = s
	case *sqldb.ExplainStmt:
		sel = s.Select
	default:
		return nil, fmt.Errorf("sqldb: Explain requires a SELECT, got %T", stmt)
	}
	e.mu.RLock()
	plan, err := sqldb.PlanSelectOn(planCat{e}, sel)
	e.mu.RUnlock()
	if err != nil {
		return nil, err
	}
	return &vecStmt{
		e:    e,
		stmt: stmt,
		hints: driver.CostHints{
			Signature: plan.Signature(),
			IOCost:    plan.IOCost(),
			CPUCost:   plan.CPUCost(),
			EstRows:   plan.Rows(),
		},
	}, nil
}

type vecStmt struct {
	e     *DB
	stmt  sqldb.Statement
	hints driver.CostHints
}

func (s *vecStmt) Hints() driver.CostHints { return s.hints }

// Execute runs the statement. Like the row engine's Query, only a bare
// SELECT is executable — EXPLAIN is prepared for its plan but answers
// through Exec, and the error text matches the row engine's so the
// backends stay indistinguishable.
func (s *vecStmt) Execute() (*driver.Block, error) {
	sel, ok := s.stmt.(*sqldb.SelectStmt)
	if !ok {
		return nil, fmt.Errorf("sqldb: Query requires a SELECT, got %T", s.stmt)
	}
	return s.e.Select(sel)
}

// Select executes a parsed SELECT.
func (e *DB) Select(s *sqldb.SelectStmt) (*driver.Block, error) {
	e.mu.RLock()
	defer e.mu.RUnlock()
	var sc scratch
	defer sc.release()
	names, out, err := e.selectLocked(s, 0, &sc)
	if err != nil {
		return nil, err
	}
	return out.block(names), nil
}

// Query parses and executes a SELECT.
func (e *DB) Query(sql string) (*driver.Block, error) {
	stmt, err := sqldb.Parse(sql)
	if err != nil {
		return nil, err
	}
	sel, ok := stmt.(*sqldb.SelectStmt)
	if !ok {
		return nil, fmt.Errorf("sqldb: Query requires a SELECT, got %T", stmt)
	}
	return e.Select(sel)
}

// planCat adapts an engine whose mu is already held to the shared
// planner's catalog interface.
type planCat struct{ e *DB }

func (c planCat) TableRowCount(name string) (int, bool) {
	t, ok := c.e.tables[name]
	if !ok {
		return 0, false
	}
	return t.nrows(), true
}

func (c planCat) ViewSelect(name string) (*sqldb.SelectStmt, bool) {
	v, ok := c.e.views[name]
	return v, ok
}

func (c planCat) IndexDistinct(tbl, column string) (int, bool) {
	ix := c.e.lookupIndex(tbl, column)
	if ix == nil {
		return 0, false
	}
	return len(ix.m), true
}

func (e *DB) lookupIndex(tbl, column string) *index {
	for _, ix := range e.tableIndexes[tbl] {
		if ix.column == column {
			return ix
		}
	}
	return nil
}

func (e *DB) createTable(s *sqldb.CreateTableStmt) error {
	e.mu.Lock()
	defer e.mu.Unlock()
	if _, ok := e.tables[s.Name]; ok {
		return fmt.Errorf("sqldb: table %q already exists", s.Name)
	}
	if _, ok := e.views[s.Name]; ok {
		return fmt.Errorf("sqldb: %q already exists as a view", s.Name)
	}
	if len(s.Columns) == 0 {
		return fmt.Errorf("sqldb: table %q has no columns", s.Name)
	}
	seen := make(map[string]bool, len(s.Columns))
	for _, c := range s.Columns {
		if seen[c.Name] {
			return fmt.Errorf("sqldb: duplicate column %q in table %q", c.Name, s.Name)
		}
		seen[c.Name] = true
	}
	e.newTable(s.Name, s.Columns)
	return nil
}

func (e *DB) createView(s *sqldb.CreateViewStmt) error {
	e.mu.Lock()
	defer e.mu.Unlock()
	if _, ok := e.tables[s.Name]; ok {
		return fmt.Errorf("sqldb: %q already exists as a table", s.Name)
	}
	if _, ok := e.views[s.Name]; ok {
		return fmt.Errorf("sqldb: view %q already exists", s.Name)
	}
	for _, f := range s.Select.From {
		if _, t := e.tables[f.Table]; !t {
			if _, v := e.views[f.Table]; !v {
				return fmt.Errorf("sqldb: view %q references unknown relation %q", s.Name, f.Table)
			}
		}
	}
	e.views[s.Name] = s.Select
	return nil
}

func (e *DB) createIndex(s *sqldb.CreateIndexStmt) error {
	e.mu.Lock()
	defer e.mu.Unlock()
	if _, dup := e.indexes[s.Name]; dup {
		return fmt.Errorf("sqldb: index %q already exists", s.Name)
	}
	t, ok := e.tables[s.Table]
	if !ok {
		return fmt.Errorf("sqldb: no table %q", s.Table)
	}
	if _, ok := t.idx[s.Column]; !ok {
		return fmt.Errorf("sqldb: no column %q in table %q", s.Column, s.Table)
	}
	e.addIndex(s.Name, s.Table, s.Column)
	return nil
}

func (e *DB) insert(s *sqldb.InsertStmt) (int, error) {
	e.mu.Lock()
	defer e.mu.Unlock()
	t, ok := e.tables[s.Table]
	if !ok {
		return 0, fmt.Errorf("sqldb: no table %q", s.Table)
	}
	// Validate every row before appending anything, like the row
	// engine: a failed INSERT leaves the table untouched.
	added := make([]sqldb.Row, 0, len(s.Rows))
	for ri, exprs := range s.Rows {
		if len(exprs) != len(t.cols) {
			return 0, fmt.Errorf("sqldb: row %d has %d values, table %q has %d columns",
				ri, len(exprs), s.Table, len(t.cols))
		}
		row := make(sqldb.Row, len(exprs))
		for ci, ex := range exprs {
			v, err := sqldb.EvalConst(ex)
			if err != nil {
				return 0, fmt.Errorf("sqldb: row %d column %d: %w", ri, ci, err)
			}
			cv, err := sqldb.Coerce(v, t.cols[ci].Type)
			if err != nil {
				return 0, fmt.Errorf("sqldb: row %d column %q: %w", ri, t.cols[ci].Name, err)
			}
			row[ci] = cv
		}
		added = append(added, row)
	}
	firstNew := t.nrows()
	for _, row := range added {
		for ci := range t.vecs {
			t.vecs[ci].appendVal(row[ci])
		}
	}
	for _, ix := range e.tableIndexes[t.name] {
		ix.add(t, firstNew)
	}
	return len(added), nil
}

// update applies UPDATE t SET ... WHERE ... . Changed rows land in
// fresh column vectors (never mutating committed arrays in place, so
// previously emitted blocks stay valid); expressions evaluate against
// the pre-update row like the row engine. On an evaluation error the
// rows already processed keep their new values and indexes are not
// rebuilt — the same partially-applied state the row engine exposes.
func (e *DB) update(s *sqldb.UpdateStmt) (int, error) {
	e.mu.Lock()
	defer e.mu.Unlock()
	t, ok := e.tables[s.Table]
	if !ok {
		return 0, fmt.Errorf("sqldb: no table %q", s.Table)
	}
	targets := make([]int, len(s.Set))
	for i, a := range s.Set {
		pos, ok := t.idx[a.Column]
		if !ok {
			return 0, fmt.Errorf("sqldb: no column %q in table %q", a.Column, s.Table)
		}
		targets[i] = pos
	}
	rel := t.erel()
	n := t.nrows()
	next := make([]*colVec, len(t.vecs))
	for ci := range next {
		next[ci] = &colVec{}
	}
	changed := 0
	commit := func(upTo int) {
		// Copy the untouched tail, swap the fresh vectors in.
		for ri := upTo; ri < n; ri++ {
			for ci := range next {
				next[ci].appendFrom(t.vecs[ci], ri)
			}
		}
		t.vecs = next
	}
	for ri := 0; ri < n; ri++ {
		match, err := e.rowMatches(s.Where, &rel, ri)
		if err != nil {
			commit(ri)
			return changed, err
		}
		if !match {
			for ci := range next {
				next[ci].appendFrom(t.vecs[ci], ri)
			}
			continue
		}
		row := make(sqldb.Row, len(t.vecs))
		for ci := range t.vecs {
			row[ci] = t.vecs[ci].value(ri)
		}
		for i, a := range s.Set {
			v, err := e.evalScalar(a.Value, &rel, ri)
			if err != nil {
				commit(ri)
				return changed, err
			}
			cv, err := sqldb.Coerce(v, t.cols[targets[i]].Type)
			if err != nil {
				commit(ri)
				return changed, fmt.Errorf("sqldb: column %q: %w", a.Column, err)
			}
			row[targets[i]] = cv
		}
		for ci := range next {
			next[ci].appendVal(row[ci])
		}
		changed++
	}
	t.vecs = next
	if changed > 0 {
		for _, ix := range e.tableIndexes[t.name] {
			ix.rebuild(t)
		}
	}
	return changed, nil
}

// delete applies DELETE FROM t WHERE ... . Kept rows move into fresh
// vectors; an evaluation error leaves the table untouched, like the
// row engine.
func (e *DB) delete(s *sqldb.DeleteStmt) (int, error) {
	e.mu.Lock()
	defer e.mu.Unlock()
	t, ok := e.tables[s.Table]
	if !ok {
		return 0, fmt.Errorf("sqldb: no table %q", s.Table)
	}
	rel := t.erel()
	n := t.nrows()
	kept := make([]*colVec, len(t.vecs))
	for ci := range kept {
		kept[ci] = &colVec{}
	}
	removed := 0
	for ri := 0; ri < n; ri++ {
		match, err := e.rowMatches(s.Where, &rel, ri)
		if err != nil {
			return 0, err
		}
		if match {
			removed++
			continue
		}
		for ci := range kept {
			kept[ci].appendFrom(t.vecs[ci], ri)
		}
	}
	t.vecs = kept
	if removed > 0 {
		for _, ix := range e.tableIndexes[t.name] {
			ix.rebuild(t)
		}
	}
	return removed, nil
}

// rowMatches evaluates a WHERE predicate against one row (nil = true).
func (e *DB) rowMatches(where sqldb.Expr, rel *erel, ri int) (bool, error) {
	if where == nil {
		return true, nil
	}
	v, err := e.evalScalar(where, rel, ri)
	if err != nil {
		return false, err
	}
	return v.Kind == sqldb.KindBool && v.Bool, nil
}

// erel views the table as an intermediate relation.
func (t *table) erel() erel {
	cols := make([]ecol, len(t.cols))
	for i, c := range t.cols {
		cols[i] = ecol{qual: t.name, name: c.Name, vec: t.vecs[i]}
	}
	return erel{cols: cols, n: t.nrows()}
}

func sortedKeys[M ~map[string]V, V any](m M) []string {
	out := make([]string, 0, len(m))
	for n := range m {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}
