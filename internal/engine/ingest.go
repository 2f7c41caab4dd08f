package engine

import (
	"fmt"
	"slices"

	"github.com/qamarket/qamarket/internal/driver"
	"github.com/qamarket/qamarket/internal/sqldb"
)

// AppendBlock appends blk's rows to base table name, creating the table
// from blk.Columns when it does not exist yet — so a block with columns
// and no rows just declares the table. The typed arrays are copied (a
// decoder reuses the block's buffers for the next batch) with one bulk
// append each, and every value keeps the kind it arrived with: nothing
// is coerced to a declared column type, because an ingested table has
// none. A block whose shape disagrees with the table or with its own
// kind bytes is refused whole, before any row lands. An array that must
// grow grows once to the size Reserve set, when that is more.
func (e *DB) AppendBlock(name string, blk *driver.Block) error {
	blk = blk.Dense()
	e.mu.Lock()
	defer e.mu.Unlock()
	t, ncols, err := e.ingestTarget(name, blk.Columns)
	if err != nil {
		return err
	}
	if len(blk.Cols) != ncols && (blk.Rows > 0 || len(blk.Cols) > 0) {
		return fmt.Errorf("%w: %d columns for table %q, which has %d", driver.ErrMalformed, len(blk.Cols), name, ncols)
	}
	for j := range blk.Cols {
		c := &blk.Cols[j]
		ni, nf, ns, nb, ok := driver.CountKinds(c.Kinds)
		if !ok || len(c.Kinds) != blk.Rows || ni != len(c.Ints) || nf != len(c.Floats) || ns != len(c.Texts) || nb != len(c.Bools) {
			return fmt.Errorf("%w: column %d arrays disagree with its %d kind bytes over %d rows", driver.ErrMalformed, j, len(c.Kinds), blk.Rows)
		}
	}
	if t == nil {
		t = e.declareTable(name, blk.Columns)
	}
	firstNew := t.nrows()
	for j := range blk.Cols {
		c, v := &blk.Cols[j], t.vecs[j]
		// A row's offset is the count of earlier rows of its kind, taken
		// from the cursor its kind byte selects; NULL's never moves off 0.
		// In a column of one value kind, which the checks above have
		// counted, the offsets just count up from that kind's cursor.
		next := [len(cursorStep)]int32{0, int32(len(v.ints)), int32(len(v.floats)), int32(len(v.texts)), int32(len(v.bools))}
		base := len(v.offs)
		v.offs = growTo(v.offs, len(c.Kinds), t.reserve)[:base+len(c.Kinds)]
		offs := v.offs[base:]
		if kind := driver.SingleKind(blk.Rows, len(c.Ints), len(c.Floats), len(c.Texts), len(c.Bools)); kind != 0 {
			start := next[kindCursor[kind]]
			for r := range offs {
				offs[r] = start + int32(r)
			}
		} else {
			for r, k := range c.Kinds {
				cur := kindCursor[k]
				offs[r] = next[cur]
				next[cur] += cursorStep[cur]
			}
		}
		v.kinds = append(growTo(v.kinds, len(c.Kinds), t.reserve), c.Kinds...)
		v.ints = append(growTo(v.ints, len(c.Ints), t.reserve), c.Ints...)
		v.floats = append(growTo(v.floats, len(c.Floats), t.reserve), c.Floats...)
		v.texts = append(growTo(v.texts, len(c.Texts), t.reserve), c.Texts...)
		v.bools = append(growTo(v.bools, len(c.Bools), t.reserve), c.Bools...)
	}
	for _, ix := range e.tableIndexes[name] {
		ix.add(t, firstNew)
	}
	return nil
}

// MaxReserveRows bounds a reservation: a row count that arrives from
// outside the program sizes a table up to here and no further, and a
// table that outgrows it grows by append like an unreserved one.
const MaxReserveRows = 1 << 16

// Reserve declares base table name with columns, unless it exists, and
// sizes it for rows more rows (at most MaxReserveRows): each array the
// following appends must grow, they grow once, to that size, instead of
// repeatedly by append. It allocates nothing itself, so an array no row
// uses stays empty.
func (e *DB) Reserve(name string, columns []string, rows int) error {
	e.mu.Lock()
	defer e.mu.Unlock()
	t, ncols, err := e.ingestTarget(name, columns)
	if err != nil {
		return err
	}
	if len(columns) != ncols {
		return fmt.Errorf("%w: %d columns for table %q, which has %d", driver.ErrMalformed, len(columns), name, ncols)
	}
	if t == nil {
		t = e.declareTable(name, columns)
	}
	t.reserve = t.nrows() + min(max(rows, 0), MaxReserveRows)
	return nil
}

// ingestTarget finds the base table an ingest shaped by columns lands
// in: the table, when it exists, with its own column count; else nil
// with the count columns would declare, once checked that they can.
func (e *DB) ingestTarget(name string, columns []string) (*table, int, error) {
	if t, ok := e.tables[name]; ok {
		return t, len(t.cols), nil
	}
	if _, ok := e.views[name]; ok {
		return nil, 0, fmt.Errorf("sqldb: %q already exists as a view", name)
	}
	if len(columns) == 0 {
		return nil, 0, fmt.Errorf("sqldb: table %q has no columns", name)
	}
	return nil, len(columns), nil
}

// declareTable creates an ingested table: named columns, no types.
func (e *DB) declareTable(name string, columns []string) *table {
	cols := make([]sqldb.ColumnDef, len(columns))
	for i, c := range columns {
		cols[i].Name = c
	}
	return e.newTable(name, cols)
}

// growTo makes room for n more elements in s. When it must grow and want
// (a reservation) is larger than it needs, it grows to want in one step.
func growTo[T any](s []T, n, want int) []T {
	if n == 0 || len(s)+n <= cap(s) {
		return s
	}
	return slices.Grow(s, max(len(s)+n, want)-len(s))
}

// kindCursor maps a kind byte to AppendBlock's offset cursor: 0 for a
// NULL, then one per typed array in driver.Col's order. Every other byte
// maps to 0 too, but AppendBlock has refused such a block by then.
var kindCursor = [256]uint8{driver.KindByteInt: 1, driver.KindByteFloat: 2, driver.KindByteText: 3, driver.KindByteBool: 4}

// cursorStep is how far a row moves its cursor: NULL's stays put.
var cursorStep = [5]int32{0, 1, 1, 1, 1}

// DropTable removes base table name and its indexes; an absent table is
// not an error. It is how a consumer takes back a partially ingested
// table.
func (e *DB) DropTable(name string) {
	e.mu.Lock()
	defer e.mu.Unlock()
	for _, ix := range e.tableIndexes[name] {
		delete(e.indexes, ix.name)
	}
	delete(e.tableIndexes, name)
	delete(e.tables, name)
}
