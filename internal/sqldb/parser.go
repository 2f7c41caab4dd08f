package sqldb

import (
	"fmt"
	"strconv"
	"strings"
	"sync"
)

// tokenBufs recycles token slices between parses: a statement's AST
// holds substrings of its input, never its tokens, so the slice is free
// once Parse returns.
var tokenBufs = sync.Pool{New: func() any { return new([]token) }}

// maxPooledTokens bounds the slices tokenBufs keeps; a bulk INSERT's is
// left to the collector.
const maxPooledTokens = 4096

// Parse parses one SQL statement.
func Parse(input string) (Statement, error) {
	buf := tokenBufs.Get().(*[]token)
	toks, err := lex(input, *buf)
	defer func() {
		if cap(toks) <= maxPooledTokens {
			clear(toks[:cap(toks)]) // hold no substrings of this input
			*buf = toks[:0]
			tokenBufs.Put(buf)
		}
	}()
	if err != nil {
		return nil, err
	}
	p := &parser{toks: toks, input: input}
	stmt, err := p.parseStatement()
	if err != nil {
		return nil, err
	}
	p.accept(tokSymbol, ";")
	if !p.at(tokEOF, "") {
		return nil, p.errorf("trailing input after statement")
	}
	return stmt, nil
}

type parser struct {
	toks  []token
	pos   int
	input string
}

func (p *parser) cur() token  { return p.toks[p.pos] }
func (p *parser) next() token { t := p.toks[p.pos]; p.pos++; return t }

func (p *parser) at(kind tokenKind, text string) bool {
	t := p.cur()
	return t.kind == kind && (text == "" || t.text == text)
}

func (p *parser) accept(kind tokenKind, text string) bool {
	if p.at(kind, text) {
		p.pos++
		return true
	}
	return false
}

func (p *parser) expect(kind tokenKind, text string) (token, error) {
	if p.at(kind, text) {
		return p.next(), nil
	}
	want := text
	if want == "" {
		want = fmt.Sprintf("token kind %d", kind)
	}
	return token{}, p.errorf("expected %s, found %q", want, p.cur().text)
}

func (p *parser) errorf(format string, args ...any) error {
	return fmt.Errorf("sqldb: parse error at offset %d: %s", p.cur().pos, fmt.Sprintf(format, args...))
}

func (p *parser) parseStatement() (Statement, error) {
	switch {
	case p.accept(tokKeyword, "EXPLAIN"):
		sel, err := p.parseSelect()
		if err != nil {
			return nil, err
		}
		return &ExplainStmt{Select: sel}, nil
	case p.at(tokKeyword, "SELECT"):
		return p.parseSelect()
	case p.accept(tokKeyword, "CREATE"):
		switch {
		case p.accept(tokKeyword, "TABLE"):
			return p.parseCreateTable()
		case p.accept(tokKeyword, "VIEW"):
			return p.parseCreateView()
		case p.accept(tokKeyword, "INDEX"):
			return p.parseCreateIndex()
		default:
			return nil, p.errorf("expected TABLE, VIEW or INDEX after CREATE")
		}
	case p.accept(tokKeyword, "INSERT"):
		return p.parseInsert()
	case p.accept(tokKeyword, "UPDATE"):
		return p.parseUpdate()
	case p.accept(tokKeyword, "DELETE"):
		return p.parseDelete()
	default:
		return nil, p.errorf("unsupported statement beginning with %q", p.cur().text)
	}
}

func (p *parser) parseCreateTable() (Statement, error) {
	name, err := p.expect(tokIdent, "")
	if err != nil {
		return nil, err
	}
	if _, err := p.expect(tokSymbol, "("); err != nil {
		return nil, err
	}
	var cols []ColumnDef
	for {
		cn, err := p.expect(tokIdent, "")
		if err != nil {
			return nil, err
		}
		ct, err := p.parseType()
		if err != nil {
			return nil, err
		}
		cols = append(cols, ColumnDef{Name: cn.text, Type: ct})
		if p.accept(tokSymbol, ",") {
			continue
		}
		break
	}
	if _, err := p.expect(tokSymbol, ")"); err != nil {
		return nil, err
	}
	return &CreateTableStmt{Name: name.text, Columns: cols}, nil
}

func (p *parser) parseType() (Type, error) {
	// Look before consuming: the error must not step past EOF.
	t := p.cur()
	if t.kind != tokKeyword {
		return 0, p.errorf("expected a type, found %q", t.text)
	}
	var typ Type
	switch t.text {
	case "INT":
		typ = TInt
	case "FLOAT":
		typ = TFloat
	case "TEXT":
		typ = TText
	case "BOOL":
		typ = TBool
	default:
		return 0, p.errorf("unknown type %q", t.text)
	}
	p.pos++
	return typ, nil
}

func (p *parser) parseCreateIndex() (Statement, error) {
	name, err := p.expect(tokIdent, "")
	if err != nil {
		return nil, err
	}
	if _, err := p.expect(tokKeyword, "ON"); err != nil {
		return nil, err
	}
	table, err := p.expect(tokIdent, "")
	if err != nil {
		return nil, err
	}
	if _, err := p.expect(tokSymbol, "("); err != nil {
		return nil, err
	}
	col, err := p.expect(tokIdent, "")
	if err != nil {
		return nil, err
	}
	if _, err := p.expect(tokSymbol, ")"); err != nil {
		return nil, err
	}
	return &CreateIndexStmt{Name: name.text, Table: table.text, Column: col.text}, nil
}

func (p *parser) parseCreateView() (Statement, error) {
	name, err := p.expect(tokIdent, "")
	if err != nil {
		return nil, err
	}
	if _, err := p.expect(tokKeyword, "AS"); err != nil {
		return nil, err
	}
	sel, err := p.parseSelect()
	if err != nil {
		return nil, err
	}
	return &CreateViewStmt{Name: name.text, Select: sel}, nil
}

func (p *parser) parseInsert() (Statement, error) {
	if _, err := p.expect(tokKeyword, "INTO"); err != nil {
		return nil, err
	}
	name, err := p.expect(tokIdent, "")
	if err != nil {
		return nil, err
	}
	if _, err := p.expect(tokKeyword, "VALUES"); err != nil {
		return nil, err
	}
	var rows [][]Expr
	for {
		if _, err := p.expect(tokSymbol, "("); err != nil {
			return nil, err
		}
		var row []Expr
		for {
			e, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			row = append(row, e)
			if p.accept(tokSymbol, ",") {
				continue
			}
			break
		}
		if _, err := p.expect(tokSymbol, ")"); err != nil {
			return nil, err
		}
		rows = append(rows, row)
		if p.accept(tokSymbol, ",") {
			continue
		}
		break
	}
	return &InsertStmt{Table: name.text, Rows: rows}, nil
}

func (p *parser) parseUpdate() (Statement, error) {
	name, err := p.expect(tokIdent, "")
	if err != nil {
		return nil, err
	}
	if _, err := p.expect(tokKeyword, "SET"); err != nil {
		return nil, err
	}
	var set []Assignment
	for {
		col, err := p.expect(tokIdent, "")
		if err != nil {
			return nil, err
		}
		if _, err := p.expect(tokSymbol, "="); err != nil {
			return nil, err
		}
		val, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		set = append(set, Assignment{Column: col.text, Value: val})
		if p.accept(tokSymbol, ",") {
			continue
		}
		break
	}
	stmt := &UpdateStmt{Table: name.text, Set: set}
	if p.accept(tokKeyword, "WHERE") {
		w, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		stmt.Where = w
	}
	return stmt, nil
}

func (p *parser) parseDelete() (Statement, error) {
	if _, err := p.expect(tokKeyword, "FROM"); err != nil {
		return nil, err
	}
	name, err := p.expect(tokIdent, "")
	if err != nil {
		return nil, err
	}
	stmt := &DeleteStmt{Table: name.text}
	if p.accept(tokKeyword, "WHERE") {
		w, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		stmt.Where = w
	}
	return stmt, nil
}

func (p *parser) parseSelect() (*SelectStmt, error) {
	if _, err := p.expect(tokKeyword, "SELECT"); err != nil {
		return nil, err
	}
	s := &SelectStmt{Limit: -1}
	s.Distinct = p.accept(tokKeyword, "DISTINCT")
	for {
		if p.accept(tokSymbol, "*") {
			s.Items = append(s.Items, SelectItem{Star: true})
		} else {
			e, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			item := SelectItem{Expr: e}
			if p.accept(tokKeyword, "AS") {
				a, err := p.expect(tokIdent, "")
				if err != nil {
					return nil, err
				}
				item.Alias = a.text
			} else if p.at(tokIdent, "") {
				item.Alias = p.next().text
			}
			s.Items = append(s.Items, item)
		}
		if p.accept(tokSymbol, ",") {
			continue
		}
		break
	}
	if _, err := p.expect(tokKeyword, "FROM"); err != nil {
		return nil, err
	}
	ref, err := p.parseTableRef()
	if err != nil {
		return nil, err
	}
	s.From = append(s.From, ref)
	for {
		p.accept(tokKeyword, "INNER")
		if !p.accept(tokKeyword, "JOIN") {
			break
		}
		ref, err := p.parseTableRef()
		if err != nil {
			return nil, err
		}
		if _, err := p.expect(tokKeyword, "ON"); err != nil {
			return nil, err
		}
		left, err := p.parseColumnRef()
		if err != nil {
			return nil, err
		}
		if _, err := p.expect(tokSymbol, "="); err != nil {
			return nil, err
		}
		right, err := p.parseColumnRef()
		if err != nil {
			return nil, err
		}
		s.From = append(s.From, ref)
		s.Joins = append(s.Joins, JoinOn{Left: *left, Right: *right})
	}
	if p.accept(tokKeyword, "WHERE") {
		e, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		s.Where = e
	}
	if p.accept(tokKeyword, "GROUP") {
		if _, err := p.expect(tokKeyword, "BY"); err != nil {
			return nil, err
		}
		for {
			e, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			s.GroupBy = append(s.GroupBy, e)
			if p.accept(tokSymbol, ",") {
				continue
			}
			break
		}
	}
	if p.accept(tokKeyword, "ORDER") {
		if _, err := p.expect(tokKeyword, "BY"); err != nil {
			return nil, err
		}
		for {
			e, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			item := OrderItem{Expr: e}
			if p.accept(tokKeyword, "DESC") {
				item.Desc = true
			} else {
				p.accept(tokKeyword, "ASC")
			}
			s.OrderBy = append(s.OrderBy, item)
			if p.accept(tokSymbol, ",") {
				continue
			}
			break
		}
	}
	if p.accept(tokKeyword, "LIMIT") {
		n, err := p.expect(tokNumber, "")
		if err != nil {
			return nil, err
		}
		limit, err := strconv.Atoi(n.text)
		if err != nil || limit < 0 {
			return nil, p.errorf("bad LIMIT %q", n.text)
		}
		s.Limit = limit
	}
	if p.accept(tokKeyword, "OFFSET") {
		n, err := p.expect(tokNumber, "")
		if err != nil {
			return nil, err
		}
		off, err := strconv.Atoi(n.text)
		if err != nil || off < 0 {
			return nil, p.errorf("bad OFFSET %q", n.text)
		}
		s.Offset = off
	}
	return s, nil
}

func (p *parser) parseTableRef() (TableRef, error) {
	name, err := p.expect(tokIdent, "")
	if err != nil {
		return TableRef{}, err
	}
	ref := TableRef{Table: name.text}
	if p.accept(tokKeyword, "AS") {
		a, err := p.expect(tokIdent, "")
		if err != nil {
			return TableRef{}, err
		}
		ref.Alias = a.text
	} else if p.at(tokIdent, "") {
		ref.Alias = p.next().text
	}
	return ref, nil
}

func (p *parser) parseColumnRef() (*ColumnRef, error) {
	a, err := p.expect(tokIdent, "")
	if err != nil {
		return nil, err
	}
	if p.accept(tokSymbol, ".") {
		b, err := p.expect(tokIdent, "")
		if err != nil {
			return nil, err
		}
		return &ColumnRef{Table: a.text, Column: b.text}, nil
	}
	return &ColumnRef{Column: a.text}, nil
}

// Expression grammar, loosest to tightest binding:
// OR, AND, NOT, comparison, +/-, *//, unary minus, primary.
func (p *parser) parseExpr() (Expr, error) { return p.parseOr() }

func (p *parser) parseOr() (Expr, error) {
	left, err := p.parseAnd()
	if err != nil {
		return nil, err
	}
	for p.accept(tokKeyword, "OR") {
		right, err := p.parseAnd()
		if err != nil {
			return nil, err
		}
		left = &BinaryExpr{Op: "OR", Left: left, Right: right}
	}
	return left, nil
}

func (p *parser) parseAnd() (Expr, error) {
	left, err := p.parseNot()
	if err != nil {
		return nil, err
	}
	for p.accept(tokKeyword, "AND") {
		right, err := p.parseNot()
		if err != nil {
			return nil, err
		}
		left = &BinaryExpr{Op: "AND", Left: left, Right: right}
	}
	return left, nil
}

func (p *parser) parseNot() (Expr, error) {
	if p.accept(tokKeyword, "NOT") {
		x, err := p.parseNot()
		if err != nil {
			return nil, err
		}
		return &UnaryExpr{Op: "NOT", X: x}, nil
	}
	return p.parseComparison()
}

func (p *parser) parseComparison() (Expr, error) {
	left, err := p.parseAdditive()
	if err != nil {
		return nil, err
	}
	// IS [NOT] NULL.
	if p.accept(tokKeyword, "IS") {
		neg := p.accept(tokKeyword, "NOT")
		if _, err := p.expect(tokKeyword, "NULL"); err != nil {
			return nil, err
		}
		return &IsNullExpr{X: left, Neg: neg}, nil
	}
	// [NOT] IN / BETWEEN / LIKE.
	neg := false
	if p.at(tokKeyword, "NOT") {
		switch p.toks[p.pos+1].text {
		case "IN", "BETWEEN", "LIKE":
			p.next()
			neg = true
		}
	}
	switch {
	case p.accept(tokKeyword, "IN"):
		if _, err := p.expect(tokSymbol, "("); err != nil {
			return nil, err
		}
		var list []Expr
		for {
			e, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			list = append(list, e)
			if p.accept(tokSymbol, ",") {
				continue
			}
			break
		}
		if _, err := p.expect(tokSymbol, ")"); err != nil {
			return nil, err
		}
		return &InExpr{X: left, List: list, Neg: neg}, nil
	case p.accept(tokKeyword, "BETWEEN"):
		lo, err := p.parseAdditive()
		if err != nil {
			return nil, err
		}
		if _, err := p.expect(tokKeyword, "AND"); err != nil {
			return nil, err
		}
		hi, err := p.parseAdditive()
		if err != nil {
			return nil, err
		}
		return &BetweenExpr{X: left, Lo: lo, Hi: hi, Neg: neg}, nil
	case p.accept(tokKeyword, "LIKE"):
		pat, err := p.parseAdditive()
		if err != nil {
			return nil, err
		}
		return &LikeExpr{X: left, Pattern: pat, Neg: neg}, nil
	}
	if neg {
		return nil, p.errorf("NOT must be followed by IN, BETWEEN or LIKE here")
	}
	for _, op := range []string{"<=", ">=", "<>", "!=", "=", "<", ">"} {
		if p.accept(tokSymbol, op) {
			right, err := p.parseAdditive()
			if err != nil {
				return nil, err
			}
			if op == "!=" {
				op = "<>"
			}
			return &BinaryExpr{Op: op, Left: left, Right: right}, nil
		}
	}
	return left, nil
}

func (p *parser) parseAdditive() (Expr, error) {
	left, err := p.parseMultiplicative()
	if err != nil {
		return nil, err
	}
	for {
		var op string
		switch {
		case p.accept(tokSymbol, "+"):
			op = "+"
		case p.accept(tokSymbol, "-"):
			op = "-"
		default:
			return left, nil
		}
		right, err := p.parseMultiplicative()
		if err != nil {
			return nil, err
		}
		left = &BinaryExpr{Op: op, Left: left, Right: right}
	}
}

func (p *parser) parseMultiplicative() (Expr, error) {
	left, err := p.parseUnary()
	if err != nil {
		return nil, err
	}
	for {
		var op string
		switch {
		case p.accept(tokSymbol, "*"):
			op = "*"
		case p.accept(tokSymbol, "/"):
			op = "/"
		default:
			return left, nil
		}
		right, err := p.parseUnary()
		if err != nil {
			return nil, err
		}
		left = &BinaryExpr{Op: op, Left: left, Right: right}
	}
}

func (p *parser) parseUnary() (Expr, error) {
	if p.accept(tokSymbol, "-") {
		x, err := p.parseUnary()
		if err != nil {
			return nil, err
		}
		return &UnaryExpr{Op: "-", X: x}, nil
	}
	return p.parsePrimary()
}

func (p *parser) parsePrimary() (Expr, error) {
	t := p.cur()
	switch {
	case t.kind == tokNumber:
		p.next()
		if strings.Contains(t.text, ".") {
			f, err := strconv.ParseFloat(t.text, 64)
			if err != nil {
				return nil, p.errorf("bad number %q", t.text)
			}
			return &Literal{Val: NewFloat(f)}, nil
		}
		i, err := strconv.ParseInt(t.text, 10, 64)
		if err != nil {
			return nil, p.errorf("bad number %q", t.text)
		}
		return &Literal{Val: NewInt(i)}, nil
	case t.kind == tokString:
		p.next()
		return &Literal{Val: NewText(t.text)}, nil
	case p.accept(tokKeyword, "NULL"):
		return &Literal{Val: Null}, nil
	case p.accept(tokKeyword, "TRUE"):
		return &Literal{Val: NewBool(true)}, nil
	case p.accept(tokKeyword, "FALSE"):
		return &Literal{Val: NewBool(false)}, nil
	case t.kind == tokKeyword && isAggName(t.text):
		p.next()
		if _, err := p.expect(tokSymbol, "("); err != nil {
			return nil, err
		}
		agg := &AggExpr{Func: t.text}
		if p.accept(tokSymbol, "*") {
			if t.text != "COUNT" {
				return nil, p.errorf("%s(*) is not valid", t.text)
			}
			agg.Star = true
		} else {
			arg, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			agg.Arg = arg
		}
		if _, err := p.expect(tokSymbol, ")"); err != nil {
			return nil, err
		}
		return agg, nil
	case t.kind == tokIdent:
		return p.parseColumnRef()
	case p.accept(tokSymbol, "("):
		e, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		if _, err := p.expect(tokSymbol, ")"); err != nil {
			return nil, err
		}
		return e, nil
	default:
		return nil, p.errorf("unexpected token %q in expression", t.text)
	}
}

func isAggName(s string) bool {
	switch s {
	case "COUNT", "SUM", "AVG", "MIN", "MAX":
		return true
	default:
		return false
	}
}
