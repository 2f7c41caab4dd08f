package driver

import (
	"bytes"
	"errors"
	"fmt"
	"slices"

	"github.com/qamarket/qamarket/internal/sqldb"
)

// Per-row kind bytes. These are the same bytes the cluster's binary
// frame lane puts on the wire, so a driver-produced block serializes
// without any re-tagging.
const (
	KindByteNull  = 'n'
	KindByteInt   = 'i'
	KindByteFloat = 'f'
	KindByteText  = 's'
	KindByteBool  = 'b'
)

// ErrMalformed reports a column block whose typed arrays disagree with
// its kind bytes.
var ErrMalformed = errors.New("driver: malformed column block")

// Col is one column of a block: the per-row kind bytes plus the typed
// values of each kind in row order, all backed by buffers the owning
// Block reuses batch to batch.
type Col struct {
	Kinds  []byte
	Ints   []int64
	Floats []float64
	Texts  []string
	Bools  []bool
}

// Block is a typed columnar result set (or one batch of one): per-row
// kind bytes plus densely packed typed arrays per column. It is the
// unit drivers produce and the frame lane serializes with zero
// transposition. Reusing a block (decode, FillFromRows) overwrites its
// buffers in place, so a steady-state stream allocates only the
// per-batch text blobs; callers that retain values across batches must
// copy them out.
type Block struct {
	Columns []string
	Rows    int
	Cols    []Col
	// Sel, when non-nil, makes the block a selection over Cols instead
	// of a copy: row k of the block is row Sel[k] of every column and
	// Rows == len(Sel). Only a producer whose columns are row-aligned
	// may set it — each column one kind with no NULLs, so its typed
	// array is indexed by row, which the wire layout cannot say of a
	// sparse column — and the block owns the slice. Every method honours
	// it; code that reads Cols directly calls Dense first.
	Sel []int32
}

// Reset empties the block, keeping its buffers for reuse.
func (b *Block) Reset() {
	b.Columns = b.Columns[:0]
	b.Rows = 0
	b.Cols = b.Cols[:0]
	b.Sel = nil
}

// Dense returns the block with its selection applied: b itself when Sel
// is nil, otherwise a copy holding exactly the selected rows.
func (b *Block) Dense() *Block {
	if b.Sel == nil {
		return b
	}
	d := &Block{Columns: b.Columns, Rows: b.Rows, Cols: make([]Col, len(b.Cols))}
	for j := range b.Cols {
		d.Cols[j].gather(&b.Cols[j], b.Sel)
	}
	return d
}

// gather overwrites c, reusing its buffers, with rows sel of the
// row-aligned column src. A column of one value kind, which is what
// SingleKind reads from its typed arrays' lengths, has its kind bytes
// filled with that kind rather than gathered row by row.
func (c *Col) gather(src *Col, sel []int32) {
	if k := SingleKind(len(src.Kinds), len(src.Ints), len(src.Floats), len(src.Texts), len(src.Bools)); k != 0 {
		c.Kinds = FillKinds(c.Kinds, k, len(sel))
	} else {
		c.Kinds = pick(c.Kinds, src.Kinds, sel)
	}
	c.Ints = pick(c.Ints, src.Ints, sel)
	c.Floats = pick(c.Floats, src.Floats, sel)
	c.Texts = pick(c.Texts, src.Texts, sel)
	c.Bools = pick(c.Bools, src.Bools, sel)
}

// pick overwrites dst with src's entries sel; an array the column does
// not use stays empty.
func pick[T any](dst, src []T, sel []int32) []T {
	if len(src) == 0 {
		return dst[:0]
	}
	dst = slices.Grow(dst[:0], len(sel))[:len(sel)]
	for k, i := range sel {
		dst[k] = src[i]
	}
	return dst
}

// FillKinds overwrites dst, reusing its array, with n copies of the
// kind byte k, doubling the filled prefix with each copy: the kind bytes
// of a column of one value kind.
func FillKinds(dst []byte, k byte, n int) []byte {
	dst = slices.Grow(dst[:0], n)[:n]
	if n > 0 {
		dst[0] = k
		for m := 1; m < n; m *= 2 {
			copy(dst[m:], dst[:m])
		}
	}
	return dst
}

// at boxes row r of a row-aligned column.
func (c *Col) at(r int32) (sqldb.Value, error) {
	switch k := c.Kinds[r]; k {
	case KindByteInt:
		return sqldb.NewInt(c.Ints[r]), nil
	case KindByteFloat:
		return sqldb.NewFloat(c.Floats[r]), nil
	case KindByteText:
		return sqldb.NewText(c.Texts[r]), nil
	case KindByteBool:
		return sqldb.NewBool(c.Bools[r]), nil
	default:
		return sqldb.Null, fmt.Errorf("%w: kind %q in a selected column", ErrMalformed, k)
	}
}

// AppendRows materializes the block's rows onto dst, keeping one typed-
// array cursor per column so the walk is linear in cells. It allocates
// one backing cell array and one cursor array per call (the accumulate
// path; streaming consumers read the columns directly and allocate
// nothing).
func (b *Block) AppendRows(dst []sqldb.Row) ([]sqldb.Row, error) {
	ncols := len(b.Cols)
	if b.Rows == 0 || ncols == 0 {
		return dst, nil
	}
	if b.Sel != nil {
		cells := make([]sqldb.Value, b.Rows*ncols)
		for _, r := range b.Sel {
			row := cells[:ncols:ncols]
			cells = cells[ncols:]
			for j := range b.Cols {
				v, err := b.Cols[j].at(r)
				if err != nil {
					return dst, err
				}
				row[j] = v
			}
			dst = append(dst, row)
		}
		return dst, nil
	}
	type colCursor struct{ ints, floats, texts, bools int }
	curs := make([]colCursor, ncols)
	cells := make([]sqldb.Value, b.Rows*ncols)
	for i := 0; i < b.Rows; i++ {
		row := cells[:ncols:ncols]
		cells = cells[ncols:]
		for j := 0; j < ncols; j++ {
			col := &b.Cols[j]
			if i >= len(col.Kinds) {
				return dst, fmt.Errorf("%w: row %d beyond kinds", ErrMalformed, i)
			}
			cur := &curs[j]
			switch col.Kinds[i] {
			case KindByteNull:
				row[j] = sqldb.Null
			case KindByteInt:
				if cur.ints >= len(col.Ints) {
					return dst, fmt.Errorf("%w: column %d int underflow", ErrMalformed, j)
				}
				row[j] = sqldb.NewInt(col.Ints[cur.ints])
				cur.ints++
			case KindByteFloat:
				if cur.floats >= len(col.Floats) {
					return dst, fmt.Errorf("%w: column %d float underflow", ErrMalformed, j)
				}
				row[j] = sqldb.NewFloat(col.Floats[cur.floats])
				cur.floats++
			case KindByteText:
				if cur.texts >= len(col.Texts) {
					return dst, fmt.Errorf("%w: column %d text underflow", ErrMalformed, j)
				}
				row[j] = sqldb.NewText(col.Texts[cur.texts])
				cur.texts++
			case KindByteBool:
				if cur.bools >= len(col.Bools) {
					return dst, fmt.Errorf("%w: column %d bool underflow", ErrMalformed, j)
				}
				row[j] = sqldb.NewBool(col.Bools[cur.bools])
				cur.bools++
			default:
				return dst, fmt.Errorf("%w: kind %q", ErrMalformed, col.Kinds[i])
			}
		}
		dst = append(dst, row)
	}
	return dst, nil
}

// Value reads one cell. It re-derives the typed-array index by scanning
// the kind prefix, so it is for tests, spot reads, and small blocks;
// AppendRows keeps per-column counters instead.
func (b *Block) Value(i, j int) (sqldb.Value, error) {
	col := &b.Cols[j]
	if b.Sel != nil {
		return col.at(b.Sel[i])
	}
	if i >= len(col.Kinds) {
		return sqldb.Null, fmt.Errorf("%w: row %d beyond kinds", ErrMalformed, i)
	}
	idx := 0
	k := col.Kinds[i]
	for r := 0; r < i; r++ {
		if col.Kinds[r] == k {
			idx++
		}
	}
	switch k {
	case KindByteNull:
		return sqldb.Null, nil
	case KindByteInt:
		return sqldb.NewInt(col.Ints[idx]), nil
	case KindByteFloat:
		return sqldb.NewFloat(col.Floats[idx]), nil
	case KindByteText:
		return sqldb.NewText(col.Texts[idx]), nil
	case KindByteBool:
		return sqldb.NewBool(col.Bools[idx]), nil
	}
	return sqldb.Null, fmt.Errorf("%w: kind %q", ErrMalformed, k)
}

// Drop discards the block's first k rows in place, trimming each typed
// array by however many of its values the dropped kind bytes consumed.
// The cluster's resume path uses it when a dedup replay overlaps rows a
// previous attempt already delivered.
func (b *Block) Drop(k int) {
	if k <= 0 {
		return
	}
	if k > b.Rows {
		k = b.Rows
	}
	if b.Sel != nil {
		b.Sel = b.Sel[k:]
		b.Rows -= k
		return
	}
	for j := range b.Cols {
		col := &b.Cols[j]
		ni, nf, ns, nb, _ := CountKinds(col.Kinds[:k])
		col.Kinds = col.Kinds[k:]
		col.Ints = col.Ints[ni:]
		col.Floats = col.Floats[nf:]
		col.Texts = col.Texts[ns:]
		col.Bools = col.Bools[nb:]
	}
	b.Rows -= k
}

// Truncate keeps only the block's first n rows, trimming each typed
// array to the values those rows consume. The mock driver's
// partial-batch fault uses it.
func (b *Block) Truncate(n int) {
	if n < 0 {
		n = 0
	}
	if n >= b.Rows {
		return
	}
	if b.Sel != nil {
		b.Sel = b.Sel[:n]
		b.Rows = n
		return
	}
	for j := range b.Cols {
		col := &b.Cols[j]
		ni, nf, ns, nb, _ := CountKinds(col.Kinds[:n])
		col.Kinds = col.Kinds[:n]
		col.Ints = col.Ints[:ni]
		col.Floats = col.Floats[:nf]
		col.Texts = col.Texts[:ns]
		col.Bools = col.Bools[:nb]
	}
	b.Rows = n
}

// kindAlphabet is every kind byte, in the order CountKinds reports the
// typed ones.
var kindAlphabet = [...]byte{KindByteInt, KindByteFloat, KindByteText, KindByteBool, KindByteNull}

// CountKinds reports how many values of each typed array a run of kind
// bytes consumes, and whether every byte is one of the five kinds. It is
// the one place kind bytes are counted: a vectorized bytes.Count per
// kind, the first row's kind first, so a column of one kind — every
// NULL-free column — costs one pass and a mixed one a pass per kind
// present before the tally reaches the end.
func CountKinds(kinds []byte) (ni, nf, ns, nb int, ok bool) {
	var n [len(kindAlphabet)]int
	left := len(kinds)
	if left > 0 {
		if s := bytes.IndexByte(kindAlphabet[:], kinds[0]); s >= 0 {
			n[s] = bytes.Count(kinds, kindAlphabet[s:s+1])
			left -= n[s]
		}
	}
	for s := range n {
		if left > 0 && n[s] == 0 {
			n[s] = bytes.Count(kinds, kindAlphabet[s:s+1])
			left -= n[s]
		}
	}
	return n[0], n[1], n[2], n[3], left == 0
}

// SingleKind is the value kind every one of n rows has, given
// CountKinds' tallies of their kind bytes — or a well-formed column's
// typed-array lengths, which are those tallies — or 0 when the rows mix
// kinds, hold only NULLs, or there are none. A column of one value kind
// is what the frame lane writes without per-row kind bytes; its values
// still cost at least a bit a row, so the bytes a frame spends keep
// bounding its rows. A NULL costs no value bytes, so a column of NULLs
// keeps its kind bytes.
func SingleKind(n, ni, nf, ns, nb int) byte {
	switch {
	case n == 0:
		return 0
	case ni == n:
		return KindByteInt
	case nf == n:
		return KindByteFloat
	case ns == n:
		return KindByteText
	case nb == n:
		return KindByteBool
	}
	return 0
}

// FillFromRows loads already-materialized rows into the block, reusing
// its buffers — the transposition bridge for row-producing sources (the
// legacy driver). Cells beyond a short row encode as NULL.
func (b *Block) FillFromRows(columns []string, rows []sqldb.Row) {
	b.Columns = append(b.Columns[:0], columns...)
	b.Rows = len(rows)
	b.Sel = nil
	ncols := len(columns)
	if cap(b.Cols) < ncols {
		b.Cols = make([]Col, ncols)
	}
	b.Cols = b.Cols[:ncols]
	for j := range b.Cols {
		col := &b.Cols[j]
		col.Kinds = col.Kinds[:0]
		col.Ints = col.Ints[:0]
		col.Floats = col.Floats[:0]
		col.Texts = col.Texts[:0]
		col.Bools = col.Bools[:0]
		for _, row := range rows {
			if j >= len(row) {
				col.Kinds = append(col.Kinds, KindByteNull)
				continue
			}
			v := row[j]
			switch v.Kind {
			case sqldb.KindInt:
				col.Kinds = append(col.Kinds, KindByteInt)
				col.Ints = append(col.Ints, v.Int)
			case sqldb.KindFloat:
				col.Kinds = append(col.Kinds, KindByteFloat)
				col.Floats = append(col.Floats, v.Float)
			case sqldb.KindText:
				col.Kinds = append(col.Kinds, KindByteText)
				col.Texts = append(col.Texts, v.Str)
			case sqldb.KindBool:
				col.Kinds = append(col.Kinds, KindByteBool)
				col.Bools = append(col.Bools, v.Bool)
			default:
				col.Kinds = append(col.Kinds, KindByteNull)
			}
		}
	}
}

// FromResult transposes a row-engine result into a fresh block.
func FromResult(res *sqldb.Result) *Block {
	b := &Block{}
	b.FillFromRows(res.Columns, res.Rows)
	return b
}

// Cursor tracks a sequential batch walk over a block: the next row to
// emit plus per-column typed-array offsets. The zero value starts at
// row 0.
type Cursor struct {
	Row  int
	offs []colOffsets
	// own holds the batch of a walk over a block with Sel. The cursor
	// keeps these buffers, not out: out's arrays may alias the storage
	// an earlier dense walk sliced, which a gather must not write.
	own []Col
}

type colOffsets struct{ ints, floats, texts, bools int }

// NextBatch slices the next up-to-maxRows rows of b into out as
// subslices of b's arrays — no values are copied, so the only cost is
// CountKinds over each column's kind bytes, which finds each typed
// array's split point in one vectorized pass for a column of one kind. It
// returns false when the cursor is exhausted (out is left untouched).
// The batch aliases b: it is valid until b's buffers are reused. The
// block must be well-formed (driver-produced or decode-validated).
//
// A block with Sel is gathered instead, one batch at a time into
// buffers the cursor reuses: out is as dense as any other batch, valid
// until the next call, and the walk holds O(maxRows) memory however
// many rows the block selects.
func (b *Block) NextBatch(cur *Cursor, maxRows int, out *Block) bool {
	if cur.Row >= b.Rows || maxRows <= 0 {
		return false
	}
	ncols := len(b.Cols)
	if b.Sel != nil {
		sel := b.Sel[cur.Row:min(cur.Row+maxRows, b.Rows)]
		if len(cur.own) != ncols {
			cur.own = make([]Col, ncols)
		}
		out.Columns = append(out.Columns[:0], b.Columns...)
		out.Rows = len(sel)
		for j := range b.Cols {
			cur.own[j].gather(&b.Cols[j], sel)
		}
		out.Cols = append(out.Cols[:0], cur.own...)
		cur.Row += len(sel)
		return true
	}
	if cur.Row == 0 || cap(cur.offs) < ncols {
		if cap(cur.offs) < ncols {
			cur.offs = make([]colOffsets, ncols)
		}
		cur.offs = cur.offs[:ncols]
		for j := range cur.offs {
			cur.offs[j] = colOffsets{}
		}
	}
	n := b.Rows - cur.Row
	if n > maxRows {
		n = maxRows
	}
	out.Columns = append(out.Columns[:0], b.Columns...)
	out.Rows = n
	if cap(out.Cols) < ncols {
		out.Cols = make([]Col, ncols)
	}
	out.Cols = out.Cols[:ncols]
	for j := range b.Cols {
		col := &b.Cols[j]
		off := &cur.offs[j]
		kinds := col.Kinds[cur.Row : cur.Row+n]
		ni, nf, ns, nb, _ := CountKinds(kinds)
		out.Cols[j] = Col{
			Kinds:  kinds,
			Ints:   col.Ints[off.ints : off.ints+ni],
			Floats: col.Floats[off.floats : off.floats+nf],
			Texts:  col.Texts[off.texts : off.texts+ns],
			Bools:  col.Bools[off.bools : off.bools+nb],
		}
		off.ints += ni
		off.floats += nf
		off.texts += ns
		off.bools += nb
	}
	cur.Row += n
	return true
}
