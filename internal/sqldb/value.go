// Package sqldb is a small embedded relational engine: an in-memory row
// store with a SQL-subset parser, a cost-based planner with EXPLAIN, and
// an executor for select-project-join-group-sort queries.
//
// It stands in for the "leading commercial RDBMS" of the paper's
// Section 5.2 experiments: the cluster package runs one sqldb instance
// per federation node, estimates query costs with EXPLAIN (plus past
// execution history, exactly as the paper describes), and executes the
// workload's star queries against it.
//
// Supported statements:
//
//	CREATE TABLE t (col TYPE, ...)        TYPE ∈ INT, FLOAT, TEXT, BOOL
//	CREATE VIEW v AS SELECT ...
//	INSERT INTO t VALUES (...), (...)
//	SELECT cols FROM t [JOIN u ON a = b]... [WHERE expr]
//	       [GROUP BY cols] [ORDER BY cols [ASC|DESC]] [LIMIT n]
//	EXPLAIN SELECT ...
//
// with aggregates COUNT/SUM/AVG/MIN/MAX, arithmetic, comparisons and
// AND/OR/NOT in expressions.
package sqldb

import (
	"fmt"
	"strconv"
	"strings"
)

// Type is a column type.
type Type int

// Column types.
const (
	TInt Type = iota
	TFloat
	TText
	TBool
)

// String returns the SQL name of the type.
func (t Type) String() string {
	switch t {
	case TInt:
		return "INT"
	case TFloat:
		return "FLOAT"
	case TText:
		return "TEXT"
	case TBool:
		return "BOOL"
	default:
		return fmt.Sprintf("Type(%d)", int(t))
	}
}

// Value is one cell. Exactly one arm is meaningful, selected by Kind;
// Null values have Kind == KindNull.
type Value struct {
	Kind  Kind
	Int   int64
	Float float64
	Str   string
	Bool  bool
}

// Kind discriminates the arms of Value.
type Kind int

// Value kinds.
const (
	KindNull Kind = iota
	KindInt
	KindFloat
	KindText
	KindBool
)

// Null is the SQL NULL.
var Null = Value{Kind: KindNull}

// NewInt wraps an int64.
func NewInt(v int64) Value { return Value{Kind: KindInt, Int: v} }

// NewFloat wraps a float64.
func NewFloat(v float64) Value { return Value{Kind: KindFloat, Float: v} }

// NewText wraps a string.
func NewText(v string) Value { return Value{Kind: KindText, Str: v} }

// NewBool wraps a bool.
func NewBool(v bool) Value { return Value{Kind: KindBool, Bool: v} }

// IsNull reports whether the value is NULL.
func (v Value) IsNull() bool { return v.Kind == KindNull }

// String renders the value in SQL literal syntax.
func (v Value) String() string {
	switch v.Kind {
	case KindNull:
		return "NULL"
	case KindInt:
		return strconv.FormatInt(v.Int, 10)
	case KindFloat:
		return strconv.FormatFloat(v.Float, 'g', -1, 64)
	case KindText:
		return "'" + v.Str + "'"
	case KindBool:
		if v.Bool {
			return "TRUE"
		}
		return "FALSE"
	default:
		return fmt.Sprintf("Value(kind=%d)", int(v.Kind))
	}
}

// sqlLiteral renders the value as SQL the lexer reads back to the same
// value, which String — the rendering error text uses — does not
// promise: an apostrophe in a text is doubled, and a float is written in
// fixed point (the lexer knows no exponent) with a fraction, since a
// number without one is an INT.
func (v Value) sqlLiteral() string {
	switch v.Kind {
	case KindFloat:
		s := strconv.FormatFloat(v.Float, 'f', -1, 64)
		if !strings.Contains(s, ".") {
			s += ".0"
		}
		return s
	case KindText:
		return "'" + strings.ReplaceAll(v.Str, "'", "''") + "'"
	default:
		return v.String()
	}
}

// asFloat coerces numeric values to float64 for mixed arithmetic.
func (v Value) asFloat() (float64, bool) {
	switch v.Kind {
	case KindInt:
		return float64(v.Int), true
	case KindFloat:
		return v.Float, true
	default:
		return 0, false
	}
}

// Compare orders two values: -1, 0, +1. NULL sorts before everything;
// numeric kinds compare cross-kind; distinct non-numeric kinds compare
// by kind order (deterministic, mirrors engines that coerce weakly).
func Compare(a, b Value) int {
	if a.IsNull() || b.IsNull() {
		switch {
		case a.IsNull() && b.IsNull():
			return 0
		case a.IsNull():
			return -1
		default:
			return 1
		}
	}
	if af, ok := a.asFloat(); ok {
		if bf, ok := b.asFloat(); ok {
			switch {
			case af < bf:
				return -1
			case af > bf:
				return 1
			default:
				return 0
			}
		}
	}
	if a.Kind != b.Kind {
		if a.Kind < b.Kind {
			return -1
		}
		return 1
	}
	switch a.Kind {
	case KindText:
		switch {
		case a.Str < b.Str:
			return -1
		case a.Str > b.Str:
			return 1
		default:
			return 0
		}
	case KindBool:
		switch {
		case a.Bool == b.Bool:
			return 0
		case !a.Bool:
			return -1
		default:
			return 1
		}
	default:
		return 0
	}
}

// Equal reports value equality under Compare semantics.
func Equal(a, b Value) bool { return Compare(a, b) == 0 }

// groupKey serializes a value for use in hash-aggregation and hash-join
// keys. Numeric values of equal magnitude share a key.
func (v Value) groupKey() string {
	if f, ok := v.asFloat(); ok {
		return "n:" + strconv.FormatFloat(f, 'g', -1, 64)
	}
	switch v.Kind {
	case KindNull:
		return "∅"
	case KindText:
		return "t:" + v.Str
	case KindBool:
		if v.Bool {
			return "b:1"
		}
		return "b:0"
	default:
		return "?"
	}
}

// Row is one tuple.
type Row []Value

// Clone copies the row.
func (r Row) Clone() Row {
	out := make(Row, len(r))
	copy(out, r)
	return out
}
