package cluster

import (
	"fmt"
	"math"

	"github.com/qamarket/qamarket/internal/sqldb"
)

// Wire encoding of sqldb values for fetch replies. JSON alone cannot
// distinguish int64 from float64 or NULL from false, so every non-null
// value travels as a single-key object tagging its kind:
//
//	nil            -> NULL
//	{"i": 5}       -> INT
//	{"f": 1.5}     -> FLOAT
//	{"s": "x"}     -> TEXT
//	{"b": true}    -> BOOL

// toWire encodes one value.
func toWire(v sqldb.Value) any {
	switch v.Kind {
	case sqldb.KindNull:
		return nil
	case sqldb.KindInt:
		return map[string]any{"i": v.Int}
	case sqldb.KindFloat:
		return map[string]any{"f": v.Float}
	case sqldb.KindText:
		return map[string]any{"s": v.Str}
	case sqldb.KindBool:
		return map[string]any{"b": v.Bool}
	default:
		return nil
	}
}

// fromWire decodes one value. JSON numbers arrive as float64; integers
// round-trip exactly up to 2^53, far beyond the synthetic datasets.
func fromWire(raw any) (sqldb.Value, error) {
	if raw == nil {
		return sqldb.Null, nil
	}
	m, ok := raw.(map[string]any)
	if !ok || len(m) != 1 {
		return sqldb.Null, fmt.Errorf("cluster: malformed wire value %v", raw)
	}
	for k, v := range m {
		switch k {
		case "i":
			f, ok := v.(float64)
			if !ok || f != math.Trunc(f) {
				return sqldb.Null, fmt.Errorf("cluster: malformed wire int %v", v)
			}
			return sqldb.NewInt(int64(f)), nil
		case "f":
			f, ok := v.(float64)
			if !ok {
				return sqldb.Null, fmt.Errorf("cluster: malformed wire float %v", v)
			}
			return sqldb.NewFloat(f), nil
		case "s":
			s, ok := v.(string)
			if !ok {
				return sqldb.Null, fmt.Errorf("cluster: malformed wire string %v", v)
			}
			return sqldb.NewText(s), nil
		case "b":
			b, ok := v.(bool)
			if !ok {
				return sqldb.Null, fmt.Errorf("cluster: malformed wire bool %v", v)
			}
			return sqldb.NewBool(b), nil
		}
	}
	return sqldb.Null, fmt.Errorf("cluster: unknown wire kind in %v", raw)
}

// encodeRows converts a result to wire rows.
func encodeRows(res *sqldb.Result) [][]any {
	out := make([][]any, len(res.Rows))
	for i, row := range res.Rows {
		wr := make([]any, len(row))
		for j, v := range row {
			wr[j] = toWire(v)
		}
		out[i] = wr
	}
	return out
}

// decodeRows converts wire rows back to values.
func decodeRows(raw [][]any) ([]sqldb.Row, error) {
	out := make([]sqldb.Row, len(raw))
	for i, wr := range raw {
		row := make(sqldb.Row, len(wr))
		for j, rv := range wr {
			v, err := fromWire(rv)
			if err != nil {
				return nil, fmt.Errorf("row %d col %d: %w", i, j, err)
			}
			row[j] = v
		}
		out[i] = row
	}
	return out, nil
}

// Compact columnar encoding (encCompact). Instead of one tagged map per
// cell, each column ships a kind string (one byte per row: 'n' null,
// 'i' int, 'f' float, 's' text, 'b' bool) plus typed arrays holding the
// non-null values of that type in row order. Decoding allocates O(cols)
// slices instead of O(rows×cols) maps, and int64s ride a typed []int64
// field so they round-trip exactly (no float64 2^53 ceiling).

// Column kind bytes used in wireColumn.Kinds.
const (
	kindByteNull  = 'n'
	kindByteInt   = 'i'
	kindByteFloat = 'f'
	kindByteText  = 's'
	kindByteBool  = 'b'
)

// wireColumn is one column of an encCompact fetch reply.
type wireColumn struct {
	Kinds  string    `json:"k"` // one kind byte per row
	Ints   []int64   `json:"i,omitempty"`
	Floats []float64 `json:"f,omitempty"`
	Texts  []string  `json:"s,omitempty"`
	Bools  []bool    `json:"b,omitempty"`
}

// encodeCols converts a result to compact columns.
func encodeCols(res *sqldb.Result) []wireColumn {
	if len(res.Columns) == 0 {
		return nil
	}
	cols := make([]wireColumn, len(res.Columns))
	kinds := make([]byte, len(res.Rows))
	for j := range cols {
		c := &cols[j]
		for i, row := range res.Rows {
			v := row[j]
			switch v.Kind {
			case sqldb.KindInt:
				kinds[i] = kindByteInt
				c.Ints = append(c.Ints, v.Int)
			case sqldb.KindFloat:
				kinds[i] = kindByteFloat
				c.Floats = append(c.Floats, v.Float)
			case sqldb.KindText:
				kinds[i] = kindByteText
				c.Texts = append(c.Texts, v.Str)
			case sqldb.KindBool:
				kinds[i] = kindByteBool
				c.Bools = append(c.Bools, v.Bool)
			default:
				kinds[i] = kindByteNull
			}
		}
		c.Kinds = string(kinds)
	}
	return cols
}

// encodeColsBlock converts a driver block to compact columns. The
// block already holds exactly this layout, so encoding is a per-column
// kind-string conversion plus typed-array aliasing — no row walk.
func encodeColsBlock(blk *ColBlock) []wireColumn {
	if len(blk.Columns) == 0 {
		return nil
	}
	blk = blk.Dense()
	cols := make([]wireColumn, len(blk.Cols))
	for j := range cols {
		c := &blk.Cols[j]
		cols[j] = wireColumn{
			Kinds:  string(c.Kinds),
			Ints:   c.Ints,
			Floats: c.Floats,
			Texts:  c.Texts,
			Bools:  c.Bools,
		}
	}
	return cols
}

// encodeRowsBlock converts a driver block to legacy tagged wire rows,
// for clients that predate encCompact.
func encodeRowsBlock(blk *ColBlock) ([][]any, error) {
	rows, err := blk.AppendRows(nil)
	if err != nil {
		return nil, err
	}
	out := make([][]any, len(rows))
	for i, row := range rows {
		wr := make([]any, len(row))
		for j, v := range row {
			wr[j] = toWire(v)
		}
		out[i] = wr
	}
	return out, nil
}

// decodeCols converts compact columns back to rows, validating that
// every column agrees on the row count and that each typed array holds
// exactly as many values as its kind string promises.
func decodeCols(cols []wireColumn) ([]sqldb.Row, error) {
	if len(cols) == 0 {
		return nil, nil
	}
	nRows := len(cols[0].Kinds)
	for j := range cols {
		if len(cols[j].Kinds) != nRows {
			return nil, fmt.Errorf("cluster: column %d has %d rows, column 0 has %d",
				j, len(cols[j].Kinds), nRows)
		}
	}
	rows := make([]sqldb.Row, nRows)
	cells := make([]sqldb.Value, nRows*len(cols))
	for i := range rows {
		rows[i], cells = cells[:len(cols):len(cols)], cells[len(cols):]
	}
	for j := range cols {
		c := &cols[j]
		var ni, nf, ns, nb int
		for i := 0; i < nRows; i++ {
			switch c.Kinds[i] {
			case kindByteNull:
				rows[i][j] = sqldb.Null
			case kindByteInt:
				if ni >= len(c.Ints) {
					return nil, fmt.Errorf("cluster: column %d short int array", j)
				}
				rows[i][j] = sqldb.NewInt(c.Ints[ni])
				ni++
			case kindByteFloat:
				if nf >= len(c.Floats) {
					return nil, fmt.Errorf("cluster: column %d short float array", j)
				}
				rows[i][j] = sqldb.NewFloat(c.Floats[nf])
				nf++
			case kindByteText:
				if ns >= len(c.Texts) {
					return nil, fmt.Errorf("cluster: column %d short text array", j)
				}
				rows[i][j] = sqldb.NewText(c.Texts[ns])
				ns++
			case kindByteBool:
				if nb >= len(c.Bools) {
					return nil, fmt.Errorf("cluster: column %d short bool array", j)
				}
				rows[i][j] = sqldb.NewBool(c.Bools[nb])
				nb++
			default:
				return nil, fmt.Errorf("cluster: column %d row %d unknown kind byte %q",
					j, i, c.Kinds[i])
			}
		}
		if ni != len(c.Ints) || nf != len(c.Floats) || ns != len(c.Texts) || nb != len(c.Bools) {
			return nil, fmt.Errorf("cluster: column %d typed arrays longer than kind string", j)
		}
	}
	return rows, nil
}

// rows decodes a fetch reply's payload regardless of which encoding the
// server chose: Cols (encCompact) wins when present, otherwise the
// legacy tagged Rows. An old server that ignored the Enc field simply
// never sets Cols, so mixed-version federations keep working.
func (fr *fetchReply) rows() ([]sqldb.Row, error) {
	if fr.Cols != nil {
		return decodeCols(fr.Cols)
	}
	return decodeRows(fr.Rows)
}
