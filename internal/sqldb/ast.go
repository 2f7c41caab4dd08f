package sqldb

import (
	"fmt"
	"strings"
)

// Statement is any parsed SQL statement.
type Statement interface{ stmt() }

// CreateTableStmt is CREATE TABLE name (col TYPE, ...).
type CreateTableStmt struct {
	Name    string
	Columns []ColumnDef
}

// ColumnDef declares one table column.
type ColumnDef struct {
	Name string
	Type Type
}

// CreateViewStmt is CREATE VIEW name AS SELECT ... .
type CreateViewStmt struct {
	Name   string
	Select *SelectStmt
}

// InsertStmt is INSERT INTO name VALUES (...), (...).
type InsertStmt struct {
	Table string
	Rows  [][]Expr
}

// SelectStmt is the SELECT statement AST.
type SelectStmt struct {
	Distinct bool
	Items    []SelectItem
	From     []TableRef // first entry plus one per JOIN
	Joins    []JoinOn   // len(From)-1 entries; Joins[i] links From[i+1]
	Where    Expr       // nil when absent
	GroupBy  []Expr
	OrderBy  []OrderItem
	Limit    int // -1 when absent
	Offset   int // 0 when absent
}

// SelectItem is one projection: expression or star.
type SelectItem struct {
	Star  bool // SELECT *
	Expr  Expr
	Alias string
}

// TableRef names a base table or view in FROM.
type TableRef struct {
	Table string
	Alias string // defaults to Table
}

// Name returns the binding name of the reference.
func (t TableRef) Name() string {
	if t.Alias != "" {
		return t.Alias
	}
	return t.Table
}

// JoinOn is the equi-join condition "ON a.x = b.y".
type JoinOn struct {
	Left, Right ColumnRef
}

// OrderItem is one ORDER BY key.
type OrderItem struct {
	Expr Expr
	Desc bool
}

// ExplainStmt wraps a SELECT for EXPLAIN.
type ExplainStmt struct {
	Select *SelectStmt
}

// UpdateStmt is UPDATE t SET col = expr, ... [WHERE expr].
type UpdateStmt struct {
	Table string
	Set   []Assignment
	Where Expr // nil = all rows
}

// Assignment is one SET clause.
type Assignment struct {
	Column string
	Value  Expr
}

// DeleteStmt is DELETE FROM t [WHERE expr].
type DeleteStmt struct {
	Table string
	Where Expr // nil = all rows
}

// CreateIndexStmt is CREATE INDEX name ON table (column): a hash index
// accelerating equality lookups.
type CreateIndexStmt struct {
	Name   string
	Table  string
	Column string
}

func (*CreateTableStmt) stmt() {}
func (*CreateViewStmt) stmt()  {}
func (*InsertStmt) stmt()      {}
func (*SelectStmt) stmt()      {}
func (*ExplainStmt) stmt()     {}
func (*UpdateStmt) stmt()      {}
func (*DeleteStmt) stmt()      {}
func (*CreateIndexStmt) stmt() {}

// Expr is a scalar expression node.
type Expr interface {
	fmt.Stringer
	expr()
}

// Literal is a constant value.
type Literal struct{ Val Value }

// ColumnRef references table.column or column.
type ColumnRef struct {
	Table  string // empty = unqualified
	Column string
}

// BinaryExpr applies Op to two operands. Op is one of
// + - * / = <> < <= > >= AND OR.
type BinaryExpr struct {
	Op          string
	Left, Right Expr
}

// UnaryExpr is NOT x or -x.
type UnaryExpr struct {
	Op string // "NOT" or "-"
	X  Expr
}

// AggExpr is an aggregate call: COUNT/SUM/AVG/MIN/MAX. A nil Arg with
// Star set is COUNT(*).
type AggExpr struct {
	Func string
	Star bool
	Arg  Expr
}

// InExpr is "x [NOT] IN (v1, v2, ...)".
type InExpr struct {
	X    Expr
	List []Expr
	Neg  bool
}

// BetweenExpr is "x [NOT] BETWEEN lo AND hi" (inclusive).
type BetweenExpr struct {
	X, Lo, Hi Expr
	Neg       bool
}

// LikeExpr is "x [NOT] LIKE pattern" with % and _ wildcards.
type LikeExpr struct {
	X       Expr
	Pattern Expr
	Neg     bool
}

// IsNullExpr is "x IS [NOT] NULL".
type IsNullExpr struct {
	X   Expr
	Neg bool
}

func (*Literal) expr()     {}
func (*ColumnRef) expr()   {}
func (*BinaryExpr) expr()  {}
func (*UnaryExpr) expr()   {}
func (*AggExpr) expr()     {}
func (*InExpr) expr()      {}
func (*BetweenExpr) expr() {}
func (*LikeExpr) expr()    {}
func (*IsNullExpr) expr()  {}

func (l *Literal) String() string { return l.Val.sqlLiteral() }

func (c *ColumnRef) String() string {
	if c.Table != "" {
		return c.Table + "." + c.Column
	}
	return c.Column
}

func (b *BinaryExpr) String() string {
	return "(" + b.Left.String() + " " + b.Op + " " + b.Right.String() + ")"
}

func (u *UnaryExpr) String() string {
	if u.Op == "NOT" {
		return "(NOT " + u.X.String() + ")"
	}
	return "(" + u.Op + u.X.String() + ")"
}

func (a *AggExpr) String() string {
	if a.Star {
		return a.Func + "(*)"
	}
	return a.Func + "(" + a.Arg.String() + ")"
}

func (e *InExpr) String() string {
	var b strings.Builder
	b.WriteString(e.X.String())
	if e.Neg {
		b.WriteString(" NOT")
	}
	b.WriteString(" IN (")
	for i, v := range e.List {
		if i > 0 {
			b.WriteString(", ")
		}
		b.WriteString(v.String())
	}
	b.WriteByte(')')
	return b.String()
}

func (e *BetweenExpr) String() string {
	not := ""
	if e.Neg {
		not = " NOT"
	}
	return e.X.String() + not + " BETWEEN " + e.Lo.String() + " AND " + e.Hi.String()
}

func (e *LikeExpr) String() string {
	not := ""
	if e.Neg {
		not = " NOT"
	}
	return e.X.String() + not + " LIKE " + e.Pattern.String()
}

func (e *IsNullExpr) String() string {
	if e.Neg {
		return e.X.String() + " IS NOT NULL"
	}
	return e.X.String() + " IS NULL"
}

// String renders the SELECT back to SQL (used in plan signatures and
// view storage).
func (s *SelectStmt) String() string {
	var b strings.Builder
	b.WriteString("SELECT ")
	if s.Distinct {
		b.WriteString("DISTINCT ")
	}
	for i, it := range s.Items {
		if i > 0 {
			b.WriteString(", ")
		}
		if it.Star {
			b.WriteByte('*')
			continue
		}
		b.WriteString(it.Expr.String())
		if it.Alias != "" {
			b.WriteString(" AS " + it.Alias)
		}
	}
	b.WriteString(" FROM ")
	for i, f := range s.From {
		if i > 0 {
			j := s.Joins[i-1]
			b.WriteString(" JOIN ")
			writeRef(&b, f)
			fmt.Fprintf(&b, " ON %s = %s", j.Left.String(), j.Right.String())
			continue
		}
		writeRef(&b, f)
	}
	if s.Where != nil {
		b.WriteString(" WHERE " + s.Where.String())
	}
	if len(s.GroupBy) > 0 {
		b.WriteString(" GROUP BY ")
		for i, g := range s.GroupBy {
			if i > 0 {
				b.WriteString(", ")
			}
			b.WriteString(g.String())
		}
	}
	if len(s.OrderBy) > 0 {
		b.WriteString(" ORDER BY ")
		for i, o := range s.OrderBy {
			if i > 0 {
				b.WriteString(", ")
			}
			b.WriteString(o.Expr.String())
			if o.Desc {
				b.WriteString(" DESC")
			}
		}
	}
	if s.Limit >= 0 {
		fmt.Fprintf(&b, " LIMIT %d", s.Limit)
	}
	if s.Offset > 0 {
		fmt.Fprintf(&b, " OFFSET %d", s.Offset)
	}
	return b.String()
}

func writeRef(b *strings.Builder, f TableRef) {
	b.WriteString(f.Table)
	if f.Alias != "" && f.Alias != f.Table {
		b.WriteString(" AS " + f.Alias)
	}
}
