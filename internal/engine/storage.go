package engine

import (
	"github.com/qamarket/qamarket/internal/driver"
	"github.com/qamarket/qamarket/internal/sqldb"
)

// colVec is one column stored column-wise: per-row kind bytes plus
// densely packed typed arrays, the same sparse layout as driver.Col so
// a whole column ships into a result block as slice headers — zero
// copies, zero transposition. The offs array adds what the wire format
// omits: offs[i] indexes the typed array selected by kinds[i], giving
// O(1) random row access for scalar evaluation.
type colVec struct {
	kinds  []byte
	offs   []int32
	ints   []int64
	floats []float64
	texts  []string
	bools  []bool
}

func (c *colVec) len() int { return len(c.kinds) }

// uniform reports the single kind byte every row of the column carries
// ('i', 'f', 's', 'b'), or 0 when the column is empty or mixed. A
// uniform column has no NULLs and its typed array is row-aligned
// (offs[i] == i), which is what the vectorized kernels key on.
func (c *colVec) uniform() byte {
	n := len(c.kinds)
	if n == 0 {
		return 0
	}
	switch n {
	case len(c.ints):
		return driver.KindByteInt
	case len(c.floats):
		return driver.KindByteFloat
	case len(c.texts):
		return driver.KindByteText
	case len(c.bools):
		return driver.KindByteBool
	}
	return 0
}

// value boxes row i.
func (c *colVec) value(i int) sqldb.Value {
	switch c.kinds[i] {
	case driver.KindByteInt:
		return sqldb.NewInt(c.ints[c.offs[i]])
	case driver.KindByteFloat:
		return sqldb.NewFloat(c.floats[c.offs[i]])
	case driver.KindByteText:
		return sqldb.NewText(c.texts[c.offs[i]])
	case driver.KindByteBool:
		return sqldb.NewBool(c.bools[c.offs[i]])
	default:
		return sqldb.Null
	}
}

// appendVal appends one boxed value.
func (c *colVec) appendVal(v sqldb.Value) {
	switch v.Kind {
	case sqldb.KindInt:
		c.kinds = append(c.kinds, driver.KindByteInt)
		c.offs = append(c.offs, int32(len(c.ints)))
		c.ints = append(c.ints, v.Int)
	case sqldb.KindFloat:
		c.kinds = append(c.kinds, driver.KindByteFloat)
		c.offs = append(c.offs, int32(len(c.floats)))
		c.floats = append(c.floats, v.Float)
	case sqldb.KindText:
		c.kinds = append(c.kinds, driver.KindByteText)
		c.offs = append(c.offs, int32(len(c.texts)))
		c.texts = append(c.texts, v.Str)
	case sqldb.KindBool:
		c.kinds = append(c.kinds, driver.KindByteBool)
		c.offs = append(c.offs, int32(len(c.bools)))
		c.bools = append(c.bools, v.Bool)
	default:
		c.kinds = append(c.kinds, driver.KindByteNull)
		c.offs = append(c.offs, 0)
	}
}

// appendFrom appends row i of src without boxing.
func (c *colVec) appendFrom(src *colVec, i int) {
	k := src.kinds[i]
	c.kinds = append(c.kinds, k)
	switch k {
	case driver.KindByteInt:
		c.offs = append(c.offs, int32(len(c.ints)))
		c.ints = append(c.ints, src.ints[src.offs[i]])
	case driver.KindByteFloat:
		c.offs = append(c.offs, int32(len(c.floats)))
		c.floats = append(c.floats, src.floats[src.offs[i]])
	case driver.KindByteText:
		c.offs = append(c.offs, int32(len(c.texts)))
		c.texts = append(c.texts, src.texts[src.offs[i]])
	case driver.KindByteBool:
		c.offs = append(c.offs, int32(len(c.bools)))
		c.bools = append(c.bools, src.bools[src.offs[i]])
	default:
		c.offs = append(c.offs, 0)
	}
}

// gather builds the column containing src's rows sel, in order. A
// uniform source is one typed bulk copy under constant kind bytes; a
// mixed or NULL-bearing one goes row by row.
func gather(src *colVec, sel []int32) *colVec {
	n := len(sel)
	dst := &colVec{kinds: make([]byte, n), offs: make([]int32, n)}
	u := src.uniform()
	if u == 0 {
		dst.kinds, dst.offs = dst.kinds[:0], dst.offs[:0]
		for _, i := range sel {
			dst.appendFrom(src, int(i))
		}
		return dst
	}
	for k := range dst.kinds {
		dst.kinds[k] = u
		dst.offs[k] = int32(k)
	}
	switch u {
	case driver.KindByteInt:
		dst.ints = pick(src.ints, sel)
	case driver.KindByteFloat:
		dst.floats = pick(src.floats, sel)
	case driver.KindByteText:
		dst.texts = pick(src.texts, sel)
	default:
		dst.bools = pick(src.bools, sel)
	}
	return dst
}

func pick[T any](src []T, sel []int32) []T {
	out := make([]T, len(sel))
	for k, i := range sel {
		out[k] = src[i]
	}
	return out
}

// asCol views the column as a wire-ready driver column. The returned
// column aliases the vector's arrays; the engine never mutates a
// committed array in place (DML swaps in fresh vectors), so the view
// stays valid for readers.
func (c *colVec) asCol() driver.Col {
	return driver.Col{
		Kinds:  c.kinds,
		Ints:   c.ints,
		Floats: c.floats,
		Texts:  c.texts,
		Bools:  c.bools,
	}
}

// table is one base table stored column-wise.
type table struct {
	name string
	cols []sqldb.ColumnDef
	idx  map[string]int
	vecs []*colVec
	// reserve is the row count Reserve sized the table for; ingest grows
	// an array straight to it.
	reserve int
}

func (t *table) nrows() int {
	if len(t.vecs) == 0 {
		return 0
	}
	return t.vecs[0].len()
}

// index mirrors sqldb's hash index: value group-key -> row positions in
// ascending order. Inserts extend incrementally; UPDATE and DELETE
// rebuild.
type index struct {
	name   string
	table  string
	column string
	col    int
	m      map[string][]int32
}

func (ix *index) rebuild(t *table) {
	n := t.nrows()
	ix.m = make(map[string][]int32, n)
	vec := t.vecs[ix.col]
	for pos := 0; pos < n; pos++ {
		k := vec.value(pos).GroupKey()
		ix.m[k] = append(ix.m[k], int32(pos))
	}
}

func (ix *index) add(t *table, from int) {
	vec := t.vecs[ix.col]
	for pos := from; pos < t.nrows(); pos++ {
		k := vec.value(pos).GroupKey()
		ix.m[k] = append(ix.m[k], int32(pos))
	}
}
