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
// kind bytes is refused whole, before any row lands.
func (e *DB) AppendBlock(name string, blk *driver.Block) error {
	blk = blk.Dense()
	e.mu.Lock()
	defer e.mu.Unlock()
	t, exists := e.tables[name]
	ncols := len(blk.Columns)
	if exists {
		ncols = len(t.cols)
	} else if _, ok := e.views[name]; ok {
		return fmt.Errorf("sqldb: %q already exists as a view", name)
	} else if ncols == 0 {
		return fmt.Errorf("sqldb: table %q has no columns", name)
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
	if !exists {
		cols := make([]sqldb.ColumnDef, ncols)
		for i, c := range blk.Columns {
			cols[i].Name = c
		}
		t = e.newTable(name, cols)
	}
	firstNew := t.nrows()
	for j := range blk.Cols {
		c, v := &blk.Cols[j], t.vecs[j]
		// A row's offset is the count of earlier rows of its kind, taken
		// from the cursor its kind byte selects; NULL's never moves off 0.
		next := [len(cursorStep)]int32{0, int32(len(v.ints)), int32(len(v.floats)), int32(len(v.texts)), int32(len(v.bools))}
		base := len(v.offs)
		v.offs = slices.Grow(v.offs, len(c.Kinds))[:base+len(c.Kinds)]
		offs := v.offs[base:]
		for r, k := range c.Kinds {
			cur := kindCursor[k]
			offs[r] = next[cur]
			next[cur] += cursorStep[cur]
		}
		v.kinds = append(v.kinds, c.Kinds...)
		v.ints = append(v.ints, c.Ints...)
		v.floats = append(v.floats, c.Floats...)
		v.texts = append(v.texts, c.Texts...)
		v.bools = append(v.bools, c.Bools...)
	}
	for _, ix := range e.tableIndexes[name] {
		ix.add(t, firstNew)
	}
	return nil
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
