// Package difftest is the differential oracle for the vectorized
// executor: the same randomized SQL runs against the row engine and the
// columnar engine over identical data, and every result must match row
// for row, byte for byte. Both engines order deterministically (stable
// sorts over identical scan orders), so comparison is positional — a
// stronger check than set equality.
package difftest

import (
	"fmt"
	"math/rand"
	"strconv"
	"strings"
	"testing"

	"github.com/qamarket/qamarket/internal/driver"
	"github.com/qamarket/qamarket/internal/engine"
	"github.com/qamarket/qamarket/internal/sqldb"
)

const (
	seed      = 0x9a9a
	nQueries  = 1200
	t1Rows    = 180
	t2Rows    = 40
	maxErrPct = 60 // sanity: generator must mostly produce runnable SQL
)

// buildDataset returns the DDL+DML script both engines load. Values are
// drawn from small domains so joins hit, filters select partially, and
// NULLs appear in every column type.
func buildDataset(rng *rand.Rand) string {
	var sb strings.Builder
	sb.WriteString("CREATE TABLE t1 (a INT, b FLOAT, c TEXT, d BOOL);\n")
	sb.WriteString("CREATE TABLE t2 (k INT, e TEXT, f FLOAT);\n")
	words := []string{"alpha", "beta", "gamma", "delta", "epsilon", "zeta"}
	sb.WriteString("INSERT INTO t1 VALUES\n")
	for i := 0; i < t1Rows; i++ {
		if i > 0 {
			sb.WriteString(",\n")
		}
		a := lit(rng, func() string { return strconv.Itoa(rng.Intn(20) - 3) })
		b := lit(rng, func() string { return strconv.FormatFloat(float64(rng.Intn(4000))/100-5, 'f', 2, 64) })
		c := lit(rng, func() string { return "'" + words[rng.Intn(len(words))] + "'" })
		d := lit(rng, func() string {
			if rng.Intn(2) == 0 {
				return "TRUE"
			}
			return "FALSE"
		})
		fmt.Fprintf(&sb, "(%s, %s, %s, %s)", a, b, c, d)
	}
	sb.WriteString(";\n")
	sb.WriteString("INSERT INTO t2 VALUES\n")
	for i := 0; i < t2Rows; i++ {
		if i > 0 {
			sb.WriteString(",\n")
		}
		k := lit(rng, func() string { return strconv.Itoa(rng.Intn(20) - 3) })
		e := lit(rng, func() string { return "'" + words[rng.Intn(len(words))] + "'" })
		f := lit(rng, func() string { return strconv.FormatFloat(float64(rng.Intn(1000))/10, 'f', 1, 64) })
		fmt.Fprintf(&sb, "(%s, %s, %s)", k, e, f)
	}
	sb.WriteString(";\n")
	sb.WriteString("CREATE INDEX t1_a ON t1 (a);\n")
	sb.WriteString("CREATE VIEW v1 AS SELECT a, b FROM t1 WHERE d = TRUE\n")
	return sb.String()
}

// lit emits NULL one time in ten, otherwise the generated literal.
func lit(rng *rand.Rand, gen func() string) string {
	if rng.Intn(10) == 0 {
		return "NULL"
	}
	return gen()
}

// qgen builds random SELECTs over the fixed schema.
type qgen struct {
	rng    *rand.Rand
	joined bool // t2 in scope for this query
}

func (g *qgen) column() string {
	t1cols := []string{"t1.a", "t1.b", "t1.c", "t1.d"}
	t2cols := []string{"t2.k", "t2.e", "t2.f"}
	if g.joined && g.rng.Intn(3) == 0 {
		return t2cols[g.rng.Intn(len(t2cols))]
	}
	return t1cols[g.rng.Intn(len(t1cols))]
}

func (g *qgen) numColumn() string {
	cols := []string{"t1.a", "t1.b"}
	if g.joined {
		cols = append(cols, "t2.k", "t2.f")
	}
	return cols[g.rng.Intn(len(cols))]
}

func (g *qgen) literal() string {
	switch g.rng.Intn(4) {
	case 0:
		return strconv.Itoa(g.rng.Intn(20) - 3)
	case 1:
		return strconv.FormatFloat(float64(g.rng.Intn(400))/10-5, 'f', 1, 64)
	case 2:
		return "'" + []string{"alpha", "beta", "gamma", "zeta"}[g.rng.Intn(4)] + "'"
	default:
		return "NULL"
	}
}

// scalar emits a scalar expression of bounded depth.
func (g *qgen) scalar(depth int) string {
	if depth <= 0 || g.rng.Intn(3) == 0 {
		if g.rng.Intn(3) == 0 {
			return g.literal()
		}
		return g.column()
	}
	switch g.rng.Intn(4) {
	case 0:
		return fmt.Sprintf("(%s %s %s)", g.scalar(depth-1),
			[]string{"+", "-", "*", "/"}[g.rng.Intn(4)], g.scalar(depth-1))
	case 1:
		return "(-" + g.numColumn() + ")"
	default:
		return g.column()
	}
}

// predicate emits a boolean expression of bounded depth covering every
// comparison and predicate form the parser accepts.
func (g *qgen) predicate(depth int) string {
	if depth <= 0 || g.rng.Intn(3) == 0 {
		switch g.rng.Intn(6) {
		case 0:
			return fmt.Sprintf("%s %s %s", g.column(),
				[]string{"=", "<>", "<", "<=", ">", ">="}[g.rng.Intn(6)], g.literal())
		case 1:
			return fmt.Sprintf("%s %s %s", g.numColumn(),
				[]string{"<", ">", "="}[g.rng.Intn(3)], g.numColumn())
		case 2:
			neg := ""
			if g.rng.Intn(3) == 0 {
				neg = "NOT "
			}
			return fmt.Sprintf("%s %sIN (%s, %s, %s)", g.column(), neg,
				g.literal(), g.literal(), g.literal())
		case 3:
			neg := ""
			if g.rng.Intn(3) == 0 {
				neg = "NOT "
			}
			lo := g.rng.Intn(10) - 3
			return fmt.Sprintf("%s %sBETWEEN %d AND %d", g.numColumn(), neg, lo, lo+g.rng.Intn(8))
		case 4:
			pat := []string{"'%a%'", "'b%'", "'%ta'", "'_e%'"}[g.rng.Intn(4)]
			neg := ""
			if g.rng.Intn(3) == 0 {
				neg = "NOT "
			}
			col := "t1.c"
			if g.joined && g.rng.Intn(2) == 0 {
				col = "t2.e"
			}
			return fmt.Sprintf("%s %sLIKE %s", col, neg, pat)
		default:
			neg := ""
			if g.rng.Intn(2) == 0 {
				neg = " NOT"
			}
			return fmt.Sprintf("%s IS%s NULL", g.column(), neg)
		}
	}
	switch g.rng.Intn(3) {
	case 0:
		return fmt.Sprintf("(%s AND %s)", g.predicate(depth-1), g.predicate(depth-1))
	case 1:
		return fmt.Sprintf("(%s OR %s)", g.predicate(depth-1), g.predicate(depth-1))
	default:
		return "NOT (" + g.predicate(depth-1) + ")"
	}
}

func (g *qgen) aggregate() string {
	fn := []string{"COUNT", "SUM", "AVG", "MIN", "MAX"}[g.rng.Intn(5)]
	if fn == "COUNT" && g.rng.Intn(2) == 0 {
		return "COUNT(*)"
	}
	if fn == "SUM" || fn == "AVG" {
		return fmt.Sprintf("%s(%s)", fn, g.numColumn())
	}
	return fmt.Sprintf("%s(%s)", fn, g.column())
}

// query emits one full SELECT.
func (g *qgen) query() string {
	g.joined = g.rng.Intn(3) == 0
	var sb strings.Builder
	sb.WriteString("SELECT ")
	if g.rng.Intn(5) == 0 {
		sb.WriteString("DISTINCT ")
	}
	grouped := g.rng.Intn(4) == 0
	var groupCols []string
	if grouped {
		for i := 0; i < 1+g.rng.Intn(2); i++ {
			groupCols = append(groupCols, g.column())
		}
	}
	var items []string
	switch {
	case grouped:
		items = append(items, groupCols...)
		for i := 0; i < 1+g.rng.Intn(2); i++ {
			items = append(items, g.aggregate())
		}
	case g.rng.Intn(6) == 0 && !g.joined:
		items = append(items, "*")
	default:
		n := 1 + g.rng.Intn(3)
		for i := 0; i < n; i++ {
			it := g.scalar(2)
			if g.rng.Intn(4) == 0 {
				it += fmt.Sprintf(" AS x%d", i)
			}
			items = append(items, it)
		}
	}
	sb.WriteString(strings.Join(items, ", "))
	if g.joined {
		sb.WriteString(" FROM t1 JOIN t2 ON t1.a = t2.k")
	} else if g.rng.Intn(8) == 0 {
		// Exercise the view path; v1 exposes only a and b.
		return g.viewQuery()
	} else {
		sb.WriteString(" FROM t1")
	}
	if g.rng.Intn(10) != 0 {
		sb.WriteString(" WHERE " + g.predicate(2))
	}
	if grouped {
		sb.WriteString(" GROUP BY " + strings.Join(groupCols, ", "))
	}
	if g.rng.Intn(2) == 0 {
		var keys []string
		for i := 0; i < 1+g.rng.Intn(2); i++ {
			k := g.column()
			if grouped {
				k = groupCols[g.rng.Intn(len(groupCols))]
			}
			if g.rng.Intn(2) == 0 {
				k += " DESC"
			}
			keys = append(keys, k)
		}
		sb.WriteString(" ORDER BY " + strings.Join(keys, ", "))
	}
	if g.rng.Intn(3) == 0 {
		sb.WriteString(fmt.Sprintf(" LIMIT %d", g.rng.Intn(30)))
		if g.rng.Intn(2) == 0 {
			sb.WriteString(fmt.Sprintf(" OFFSET %d", g.rng.Intn(10)))
		}
	}
	return sb.String()
}

func (g *qgen) viewQuery() string {
	q := "SELECT a, b FROM v1"
	if g.rng.Intn(2) == 0 {
		q += fmt.Sprintf(" WHERE a %s %d", []string{"<", ">", "="}[g.rng.Intn(3)], g.rng.Intn(15)-3)
	}
	if g.rng.Intn(2) == 0 {
		q += " ORDER BY a DESC, b"
	}
	return q
}

func TestDifferentialRowVsVector(t *testing.T) {
	rng := rand.New(rand.NewSource(seed))
	script := buildDataset(rng)

	row := driver.NewLegacy(sqldb.Open())
	vec := engine.Open()
	for name, d := range map[string]driver.Driver{"row": row, "vector": vec} {
		if _, err := driver.ExecScript(d, script); err != nil {
			t.Fatalf("loading dataset into %s: %v", name, err)
		}
	}

	g := &qgen{rng: rng}
	var errs, ran int
	for i := 0; i < nQueries; i++ {
		sql := g.query()
		same, failed := compareOne(t, row, vec, sql, i)
		if !same {
			return // compareOne already failed the test with detail
		}
		ran++
		if failed {
			errs++
		}
	}
	if pct := errs * 100 / ran; pct > maxErrPct {
		t.Fatalf("generator degenerate: %d%% of %d queries errored", pct, ran)
	}
	t.Logf("differential: %d queries, %d errored identically on both engines", ran, errs)
}

// compareOne runs sql on both drivers. Returns same=false after failing
// the test on any divergence; failed reports both-engines-errored.
func compareOne(t *testing.T, row, vec driver.Driver, sql string, i int) (same, failed bool) {
	t.Helper()
	rBlk, rErr := run(row, sql)
	vBlk, vErr := run(vec, sql)
	if (rErr == nil) != (vErr == nil) {
		t.Errorf("query %d diverges on error:\n  %s\n  row: %v\n  vec: %v", i, sql, rErr, vErr)
		return false, false
	}
	if rErr != nil {
		if rErr.Error() != vErr.Error() {
			// The engines may surface a different row's error first
			// (item-major vs row-major evaluation) but the text of each
			// error class is shared, so log rather than fail.
			t.Logf("query %d error text differs (both errored):\n  %s\n  row: %v\n  vec: %v", i, sql, rErr, vErr)
		}
		return true, true
	}
	if strings.Join(rBlk.Columns, ",") != strings.Join(vBlk.Columns, ",") {
		t.Errorf("query %d column mismatch:\n  %s\n  row: %v\n  vec: %v", i, sql, rBlk.Columns, vBlk.Columns)
		return false, false
	}
	if rBlk.Rows != vBlk.Rows {
		t.Errorf("query %d row count: row=%d vec=%d\n  %s", i, rBlk.Rows, vBlk.Rows, sql)
		return false, false
	}
	for r := 0; r < rBlk.Rows; r++ {
		for c := range rBlk.Cols {
			rv, err1 := rBlk.Value(r, c)
			vv, err2 := vBlk.Value(r, c)
			if err1 != nil || err2 != nil {
				t.Errorf("query %d block decode: %v / %v", i, err1, err2)
				return false, false
			}
			if rv.String() != vv.String() {
				t.Errorf("query %d cell (%d,%d): row=%s vec=%s\n  %s", i, r, c, rv, vv, sql)
				return false, false
			}
		}
	}
	return true, false
}

func run(d driver.Driver, sql string) (*driver.Block, error) {
	st, err := d.Prepare(sql)
	if err != nil {
		return nil, err
	}
	return st.Execute()
}

// TestDifferentialCostHints pins plan parity: both drivers plan through
// the shared catalog-driven planner, so identical schemas and data must
// produce identical plan signatures and row estimates.
func TestDifferentialCostHints(t *testing.T) {
	rng := rand.New(rand.NewSource(seed + 1))
	script := buildDataset(rng)
	row := driver.NewLegacy(sqldb.Open())
	vec := engine.Open()
	for _, d := range []driver.Driver{row, vec} {
		if _, err := driver.ExecScript(d, script); err != nil {
			t.Fatal(err)
		}
	}
	for _, sql := range []string{
		"SELECT a FROM t1 WHERE a = 3",
		"SELECT t1.c, t2.e FROM t1 JOIN t2 ON t1.a = t2.k",
		"SELECT c, COUNT(*) FROM t1 GROUP BY c ORDER BY c",
		"SELECT DISTINCT c FROM t1",
		"SELECT a, b FROM v1 WHERE a > 2",
	} {
		rs, err := row.Prepare(sql)
		if err != nil {
			t.Fatalf("%q: %v", sql, err)
		}
		vs, err := vec.Prepare(sql)
		if err != nil {
			t.Fatalf("%q: %v", sql, err)
		}
		rh, vh := rs.Hints(), vs.Hints()
		if rh.Signature != vh.Signature {
			t.Errorf("%q: signature row=%q vec=%q", sql, rh.Signature, vh.Signature)
		}
		if rh.EstRows != vh.EstRows || rh.IOCost != vh.IOCost || rh.CPUCost != vh.CPUCost {
			t.Errorf("%q: cost row=%+v vec=%+v", sql, rh, vh)
		}
	}
}
