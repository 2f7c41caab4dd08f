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

// The NULL-free twin. Every column of t1/t2 carries a NULL one value in
// ten, so none of them is ever a column of one kind and the vector
// engine's typed paths — pushed-down comparisons, typed group and join
// keys, typed folds, results that leave as a selection — are reached
// over them only by accident. u1/u2 have the same shape and no NULLs,
// and their values sit on the edges where a typed key could disagree
// with the row engine's GroupKey: ints on both sides of 2^53 that are
// one float64, -0.0 beside 0.0, repeated texts.

// usub renames the generator's relations to the twin's.
var usub = strings.NewReplacer("t1", "u1", "t2", "u2", "v1", "w1")

func buildUniformDataset(rng *rand.Rand) string {
	var sb strings.Builder
	sb.WriteString("CREATE TABLE u1 (a INT, b FLOAT, c TEXT, d BOOL);\n")
	sb.WriteString("CREATE TABLE u2 (k INT, e TEXT, f FLOAT);\n")
	words := []string{"alpha", "beta", "gamma", "delta", "epsilon", "zeta"}
	wide := []string{"9007199254740992", "9007199254740993", "9007199254740994", "-9007199254740993"}
	key := func() string {
		if rng.Intn(8) == 0 {
			return wide[rng.Intn(len(wide))]
		}
		return strconv.Itoa(rng.Intn(20) - 3)
	}
	float := func(span int, scale float64, prec int) string {
		if rng.Intn(10) == 0 {
			return []string{"0.0", "-0.0"}[rng.Intn(2)]
		}
		return strconv.FormatFloat(float64(rng.Intn(span))/scale-5, 'f', prec, 64)
	}
	sb.WriteString("INSERT INTO u1 VALUES\n")
	for i := 0; i < t1Rows; i++ {
		if i > 0 {
			sb.WriteString(",\n")
		}
		fmt.Fprintf(&sb, "(%s, %s, '%s', %s)", key(), float(4000, 100, 2),
			words[rng.Intn(len(words))], []string{"TRUE", "FALSE"}[rng.Intn(2)])
	}
	sb.WriteString(";\nINSERT INTO u2 VALUES\n")
	for i := 0; i < t2Rows; i++ {
		if i > 0 {
			sb.WriteString(",\n")
		}
		fmt.Fprintf(&sb, "(%s, '%s', %s)", key(), words[rng.Intn(len(words))], float(1000, 10, 1))
	}
	sb.WriteString(";\nCREATE INDEX u1_a ON u1 (a);\n")
	sb.WriteString("CREATE VIEW w1 AS SELECT a, b FROM u1 WHERE d = TRUE\n")
	return sb.String()
}

// openUniform loads the twin into both engines; oracle is the row
// engine's raw handle.
func openUniform(t *testing.T, rng *rand.Rand) (row *driver.Legacy, oracle *sqldb.DB, vec *engine.DB) {
	t.Helper()
	script := buildUniformDataset(rng)
	oracle, vec = sqldb.Open(), engine.Open()
	row = driver.NewLegacy(oracle)
	for name, d := range map[string]driver.Driver{"row": row, "vector": vec} {
		if _, err := driver.ExecScript(d, script); err != nil {
			t.Fatalf("loading dataset into %s: %v", name, err)
		}
	}
	return row, oracle, vec
}

// mixKeys appends rows to u2 whose INT key column k holds floats, one
// of them equal to an int already there: what a typed ingest
// (engine.AppendBlock keeps every value's kind) does to a column a
// query found uniform a moment ago. The row engine has no such ingest —
// it coerces on the way in — so the oracle's copies are appended as
// ints and then overwritten through TableRows' live rows.
func mixKeys(t *testing.T, oracle *sqldb.DB, vec *engine.DB) {
	t.Helper()
	mixed := []sqldb.Row{
		{sqldb.NewFloat(3), sqldb.NewText("beta"), sqldb.NewFloat(1.5)},
		{sqldb.NewFloat(7.5), sqldb.NewText("zeta"), sqldb.NewFloat(-0.0)},
		{sqldb.NewFloat(9007199254740992), sqldb.NewText("alpha"), sqldb.NewFloat(2)},
	}
	blk := &driver.Block{}
	blk.FillFromRows([]string{"k", "e", "f"}, mixed)
	if err := vec.AppendBlock("u2", blk); err != nil {
		t.Fatal(err)
	}
	placeholders := make([]sqldb.Row, len(mixed))
	for i, r := range mixed {
		placeholders[i] = sqldb.Row{sqldb.NewInt(0), r[1], r[2]}
	}
	if err := oracle.AppendTableRows("u2", placeholders); err != nil {
		t.Fatal(err)
	}
	live, _ := oracle.TableRows("u2")
	for i, r := range mixed {
		live[len(live)-len(mixed)+i][0] = r[0]
	}
}

// TestDifferentialUniform runs the generator of TestDifferentialRowVsVector
// over the twin: 1,200 queries while every column is of one kind, and
// 1,200 more after u2.k has turned mixed under the engine's feet.
func TestDifferentialUniform(t *testing.T) {
	rng := rand.New(rand.NewSource(seed + 2))
	row, oracle, vec := openUniform(t, rng)
	g := &qgen{rng: rng}
	var errs, ran int
	for _, phase := range []string{"uniform", "mixed keys"} {
		if phase == "mixed keys" {
			mixKeys(t, oracle, vec)
		}
		for i := 0; i < nQueries; i++ {
			same, failed := compareOne(t, row, vec, usub.Replace(g.query()), i)
			if !same {
				t.Fatalf("diverged in phase %q", phase)
			}
			ran++
			if failed {
				errs++
			}
		}
	}
	if pct := errs * 100 / ran; pct > maxErrPct {
		t.Fatalf("generator degenerate: %d%% of %d queries errored", pct, ran)
	}
	t.Logf("differential: %d queries, %d errored identically on both engines", ran, errs)
}

// TestDifferentialPinned names the cases the typed paths turn on, each
// chosen so that the plausible wrong implementation fails it. Results
// compare positionally and, unlike the generated runs, an error must
// match to the letter: each of these raises on one known row.
func TestDifferentialPinned(t *testing.T) {
	row, oracle, vec := openUniform(t, rand.New(rand.NewSource(seed+3)))
	check := func(t *testing.T, sql string, wantErr bool, minRows int) {
		t.Helper()
		same, failed := compareOne(t, row, vec, sql, 0)
		if !same {
			return
		}
		if failed != wantErr {
			t.Fatalf("errored = %v, want %v\n  %s", failed, wantErr, sql)
		}
		rBlk, rErr := run(row, sql)
		_, vErr := run(vec, sql)
		if failed && rErr.Error() != vErr.Error() {
			t.Fatalf("error text:\n  row: %v\n  vec: %v\n  %s", rErr, vErr, sql)
		}
		if !failed && rBlk.Rows < minRows {
			t.Fatalf("%d rows, the case needs at least %d to mean anything\n  %s", rBlk.Rows, minRows, sql)
		}
	}

	// The prefix b < 5 is pushed onto the scan; c + 1 raises on the first
	// row that passes it, the same row in both engines.
	t.Run("pushdown, later conjunct raises", func(t *testing.T) {
		check(t, "SELECT a FROM u1 WHERE b < 5 AND c + 1 = 2", true, 0)
	})
	// No row passes the prefix, so the raising conjunct is never
	// evaluated and there is no error to report.
	t.Run("pushdown spares a later conjunct that would raise", func(t *testing.T) {
		check(t, "SELECT a FROM u1 WHERE b < -1000 AND c + 1 = 2", false, 0)
	})
	// The raising conjunct comes first: it is evaluated on every row, so
	// b < -1000 must not be pushed past it and hide the error.
	t.Run("no pushdown past an earlier conjunct that raises", func(t *testing.T) {
		check(t, "SELECT a FROM u1 WHERE c + 1 = 2 AND b < -1000", true, 0)
		check(t, "SELECT a FROM u1 WHERE (c + 1 = 2 AND b < -1000) AND a < 3", true, 0)
	})
	// u1 has 180 rows and u2 40, so u2 is the build side and pairs come
	// out in u1's order. The filter leaves u1 fewer rows than u2: a
	// build side picked after filtering would be u1 and the pairs would
	// come out in u2's order.
	t.Run("filter does not flip the build side", func(t *testing.T) {
		check(t, "SELECT u1.a, u1.b, u2.e, u2.f FROM u1 JOIN u2 ON u1.a = u2.k WHERE u1.b < -2.5", false, 8)
		check(t, "SELECT u1.a, u2.f FROM u2 JOIN u1 ON u1.a = u2.k WHERE u1.b < -2.5 AND u2.f > 10", false, 4)
	})
	// Typed keys against GroupKey, one edge per kind.
	t.Run("group and join keys", func(t *testing.T) {
		for _, sql := range []string{
			// 2^53 and 2^53+1 are one float64 and so one group, one key.
			"SELECT a, COUNT(*), MIN(b) FROM u1 WHERE a > 100 GROUP BY a",
			"SELECT u1.a, u2.k FROM u1 JOIN u2 ON u1.a = u2.k WHERE u1.a > 100",
			// -0.0 and 0.0 compare equal and group apart.
			"SELECT b, COUNT(*) FROM u1 WHERE b > -0.5 AND b < 0.5 GROUP BY b",
			"SELECT u1.b, u2.f FROM u1 JOIN u2 ON u1.b = u2.f",
			"SELECT c, COUNT(*), SUM(b), MAX(a) FROM u1 GROUP BY c",
			"SELECT u1.c, u2.e, u1.a FROM u1 JOIN u2 ON u1.c = u2.e WHERE u1.a < 0",
			"SELECT d, COUNT(*), AVG(b) FROM u1 GROUP BY d",
			// An int column against a float column: cross-kind numerics join.
			"SELECT u1.a, u2.f FROM u1 JOIN u2 ON u1.a = u2.f",
		} {
			check(t, sql, false, 2)
		}
	})
	t.Run("global aggregate over no rows", func(t *testing.T) {
		check(t, "SELECT COUNT(*), COUNT(a), SUM(b), MIN(a), MAX(c) FROM u1 WHERE b < -1000", false, 1)
		check(t, "SELECT a, COUNT(*) FROM u1 WHERE b < -1000 GROUP BY a", false, 0)
	})
	// A selection leaves the engine as one (driver.Block.Sel) only when
	// every output column is a plain NULL-free column; each of these is
	// a shape next to that one.
	t.Run("late and gathered results", func(t *testing.T) {
		for _, sql := range []string{
			"SELECT a, b FROM u1 WHERE b < 5",
			"SELECT * FROM u1 WHERE b >= 0 AND b < 20",
			"SELECT a, b + 1 FROM u1 WHERE b < 5",
			"SELECT a, b FROM u1 WHERE b < 5 ORDER BY b DESC, a LIMIT 9 OFFSET 2",
			"SELECT a, b FROM w1 WHERE a < 8",
			"SELECT a, b FROM u1 WHERE a = 4 AND b < 30",
			"SELECT w1.a, u2.e FROM w1 JOIN u2 ON w1.a = u2.k WHERE w1.b < 10",
		} {
			check(t, sql, false, 2)
		}
	})
	// After the ingest u2.k is ints and floats: 3 and 3.0 are one key.
	t.Run("keys turned mixed", func(t *testing.T) {
		mixKeys(t, oracle, vec)
		check(t, "SELECT k, COUNT(*) FROM u2 GROUP BY k", false, 2)
		check(t, "SELECT u1.a, u2.k, u2.e FROM u1 JOIN u2 ON u1.a = u2.k WHERE u1.a >= 3", false, 2)
		check(t, "SELECT k FROM u2 WHERE k < 5 AND f < 50", false, 2)
	})
}

// TestDifferentialJoinOutput names what a join output that stays two
// selections makes reachable: columns of one relation read through
// different selections, composed by a further join, a filter, a sort or
// a view, and gathered only where the result leaves the engine. Every
// case runs over the twin while its columns are of one kind (typed keys)
// and again after u2.k has turned mixed (boxed keys), positionally and
// with error text to the letter, like TestDifferentialPinned.
func TestDifferentialJoinOutput(t *testing.T) {
	row, oracle, vec := openUniform(t, rand.New(rand.NewSource(seed+4)))
	for _, d := range []driver.Driver{row, vec} {
		if _, err := driver.ExecScript(d, "CREATE VIEW j1 AS SELECT u1.a AS a, u1.c AS c, u2.f AS f, u1.b + u2.f AS s FROM u1 JOIN u2 ON u1.a = u2.k WHERE u1.b < 20"); err != nil {
			t.Fatal(err)
		}
	}
	cases := []struct {
		name    string
		minRows int
		sqls    []string
	}{
		// x ⋈ y on the nearly unique f has about as many rows as u2 and
		// fewer than u1, so the first join's output is the second's build
		// side; u1 ⋈ u2 on the 20-valued key has more rows than u2, so
		// there it is the probe side.
		{"three tables, join output as build side", 4, []string{
			"SELECT u1.a, u1.c, x.e, y.k FROM u2 x JOIN u2 y ON x.f = y.f JOIN u1 ON u1.a = x.k",
			"SELECT y.e, COUNT(*), SUM(u1.b), MIN(x.f) FROM u2 x JOIN u2 y ON x.f = y.f JOIN u1 ON u1.a = y.k GROUP BY y.e",
		}},
		{"three tables, join output as probe side", 8, []string{
			"SELECT u1.b, u2.e, z.f FROM u1 JOIN u2 ON u1.a = u2.k JOIN u2 z ON u1.c = z.e WHERE z.f < 30",
			"SELECT z.e, u2.k, COUNT(*), SUM(u1.b), MAX(z.f) FROM u1 JOIN u2 ON u1.a = u2.k JOIN u2 z ON u2.e = z.e GROUP BY z.e, u2.k",
		}},
		{"star and mixed projection are gathered at the result", 8, []string{
			"SELECT * FROM u1 JOIN u2 ON u1.a = u2.k",
			"SELECT u2.e, u1.a, u2.f, u1.c, u1.b FROM u1 JOIN u2 ON u1.a = u2.k WHERE u1.b < 10",
			"SELECT u2.f, u1.b - u2.f, u1.c FROM u2 JOIN u1 ON u1.a = u2.k",
			"SELECT DISTINCT u1.c, u2.e FROM u1 JOIN u2 ON u1.a = u2.k",
		}},
		{"view over a join as a join input", 4, []string{
			"SELECT a, c, f, s FROM j1",
			"SELECT j1.c, j1.s, u2.e FROM j1 JOIN u2 ON j1.a = u2.k WHERE u2.f < 50",
			"SELECT u2.e, j1.f, j1.c FROM u2 JOIN j1 ON j1.f = u2.f",
			"SELECT j1.c, COUNT(*), SUM(j1.f), MIN(j1.s) FROM j1 JOIN u2 ON j1.c = u2.e GROUP BY j1.c",
		}},
		{"ORDER BY and LIMIT over join output", 5, []string{
			"SELECT u1.b, u2.f, u1.c FROM u1 JOIN u2 ON u1.a = u2.k ORDER BY u2.f DESC, u1.b LIMIT 12 OFFSET 3",
			"SELECT u1.a, u2.e FROM u1 JOIN u2 ON u1.a = u2.k WHERE u1.b < 15 ORDER BY u2.e, u1.a DESC LIMIT 7",
			"SELECT u2.e, u1.c FROM u1 JOIN u2 ON u1.a = u2.k LIMIT 5 OFFSET 40",
		}},
		{"residual WHERE names both sides", 4, []string{
			"SELECT u1.a, u1.b, u2.f FROM u1 JOIN u2 ON u1.a = u2.k WHERE u1.b < u2.f",
			"SELECT u1.c, u2.e FROM u1 JOIN u2 ON u1.a = u2.k WHERE u1.b < 20 AND (u1.c = u2.e OR u2.f > 90)",
			"SELECT u2.e, COUNT(*), AVG(u1.b) FROM u1 JOIN u2 ON u1.a = u2.k WHERE u1.c <> u2.e AND u2.f IS NOT NULL GROUP BY u2.e",
		}},
		// The dimension's text column sits behind more positions than it
		// has rows, and the fact side's behind its half of the pairs.
		{"GROUP BY a text column of either side", 4, []string{
			"SELECT u2.e, COUNT(*), SUM(u1.b), MIN(u1.a) FROM u1 JOIN u2 ON u1.a = u2.k WHERE u1.b < 25 GROUP BY u2.e",
			"SELECT u1.c, COUNT(*), SUM(u2.f), MAX(u1.b) FROM u1 JOIN u2 ON u1.a = u2.k GROUP BY u1.c",
		}},
		// The index on u1.a serves a = 4: the scan's selection is the
		// index's posting list, which every later operator reads and none
		// may write. The last statement reads it again.
		{"index-served selection", 2, []string{
			"SELECT c, COUNT(*), SUM(b) FROM u1 WHERE a = 4 GROUP BY c",
			"SELECT a, b, c FROM u1 WHERE a = 4 AND b < 15 AND c LIKE '%a%'",
			"SELECT u1.c, u2.e, COUNT(*) FROM u1 JOIN u2 ON u1.a = u2.k WHERE u1.a = 4 AND u1.b < u2.f GROUP BY u1.c, u2.e",
			"SELECT u1.b, u2.f FROM u1 JOIN u2 ON u1.a = u2.k WHERE u1.a = 4 ORDER BY u1.b DESC LIMIT 6",
			"SELECT * FROM u1 WHERE a = 4",
		}},
	}
	empty := []string{
		"SELECT u1.a, u2.e FROM u1 JOIN u2 ON u1.c = u2.e WHERE u2.f < -1000",
		"SELECT * FROM u1 JOIN u2 ON u1.d = u2.k",
		"SELECT u1.c, COUNT(*) FROM u1 JOIN u2 ON u1.d = u2.k GROUP BY u1.c",
		"SELECT u1.a, z.e FROM u1 JOIN u2 ON u1.d = u2.k JOIN u2 z ON z.k = u1.a ORDER BY z.e LIMIT 3",
	}
	count := func(sql string) int64 {
		v, err := mustAgree(t, row, vec, sql).Value(0, 0)
		if err != nil {
			t.Fatal(err)
		}
		return v.Int
	}
	for _, phase := range []string{"uniform", "mixed keys"} {
		if phase == "mixed keys" {
			mixKeys(t, oracle, vec)
		}
		xy, fact, dim := count("SELECT COUNT(*) FROM u2 x JOIN u2 y ON x.f = y.f"), count("SELECT COUNT(*) FROM u1 JOIN u2 ON u1.a = u2.k"), count("SELECT COUNT(*) FROM u2")
		if xy >= t1Rows || fact <= dim {
			t.Fatalf("fixture: x ⋈ y has %d rows (want fewer than u1's %d), u1 ⋈ u2 has %d (want more than u2's %d)", xy, t1Rows, fact, dim)
		}
		for _, c := range cases {
			t.Run(phase+"/"+c.name, func(t *testing.T) {
				for _, sql := range c.sqls {
					if blk := mustAgree(t, row, vec, sql); blk.Rows < c.minRows {
						t.Fatalf("%d rows, the case needs at least %d to mean anything\n  %s", blk.Rows, c.minRows, sql)
					}
				}
			})
		}
		t.Run(phase+"/join with zero matches", func(t *testing.T) {
			for _, sql := range empty {
				if blk := mustAgree(t, row, vec, sql); blk.Rows != 0 {
					t.Fatalf("%d rows, the case is a join that matches nothing\n  %s", blk.Rows, sql)
				}
			}
			// One group holds no rows at all.
			if blk := mustAgree(t, row, vec, "SELECT COUNT(*), SUM(u1.b), MIN(u2.e) FROM u1 JOIN u2 ON u1.d = u2.k"); blk.Rows != 1 {
				t.Fatalf("%d rows from a global aggregate", blk.Rows)
			}
		})
	}
}

// mustAgree fails the test unless both engines answer sql with the same
// cells in the same order, and returns the answer.
func mustAgree(t *testing.T, row, vec driver.Driver, sql string) *driver.Block {
	t.Helper()
	if same, failed := compareOne(t, row, vec, sql, 0); !same || failed {
		_, err := run(row, sql)
		t.Fatalf("engines diverge or fail (row engine: %v)\n  %s", err, sql)
	}
	blk, _ := run(row, sql)
	return blk
}
