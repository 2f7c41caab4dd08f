package engine

import (
	"fmt"

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
		var n [256]int // rows per kind byte
		for _, k := range c.Kinds {
			n[k]++
		}
		known := n[driver.KindByteInt] + n[driver.KindByteFloat] + n[driver.KindByteText] + n[driver.KindByteBool] + n[driver.KindByteNull]
		if len(c.Kinds) != blk.Rows || known != blk.Rows || n[driver.KindByteInt] != len(c.Ints) ||
			n[driver.KindByteFloat] != len(c.Floats) || n[driver.KindByteText] != len(c.Texts) || n[driver.KindByteBool] != len(c.Bools) {
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
		ni, nf, ns, nb := int32(len(v.ints)), int32(len(v.floats)), int32(len(v.texts)), int32(len(v.bools))
		for _, k := range c.Kinds {
			off := int32(0)
			switch k {
			case driver.KindByteInt:
				off, ni = ni, ni+1
			case driver.KindByteFloat:
				off, nf = nf, nf+1
			case driver.KindByteText:
				off, ns = ns, ns+1
			case driver.KindByteBool:
				off, nb = nb, nb+1
			}
			v.offs = append(v.offs, off)
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
