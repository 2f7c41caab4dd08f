package engine

import (
	"math"
	"reflect"
	"testing"

	"github.com/qamarket/qamarket/internal/driver"
	"github.com/qamarket/qamarket/internal/sqldb"
)

// TestTypedKeysMatchBoxedKeys holds the typed group and join keys to
// GroupKey's equivalence on the values SQL text cannot write (NaN) as
// well as the ones difftest covers: a column of one kind takes the
// typed key, the same values beside one NULL take the boxed one, and
// the groups and pairs must be the same.
func TestTypedKeysMatchBoxedKeys(t *testing.T) {
	nan2 := math.Float64frombits(math.Float64bits(math.NaN()) ^ 1) // a second NaN bit pattern
	edges := map[string][]sqldb.Value{
		"floats": {
			sqldb.NewFloat(math.NaN()), sqldb.NewFloat(0), sqldb.NewFloat(math.Copysign(0, -1)), sqldb.NewFloat(nan2),
			sqldb.NewFloat(1.5), sqldb.NewFloat(math.Inf(1)), sqldb.NewFloat(0), sqldb.NewFloat(math.Inf(-1)), sqldb.NewFloat(1.5),
		},
		"ints": {
			sqldb.NewInt(1 << 53), sqldb.NewInt(1<<53 + 1), sqldb.NewInt(3), sqldb.NewInt(1<<53 + 2),
			sqldb.NewInt(-(1<<53 + 1)), sqldb.NewInt(3), sqldb.NewInt(math.MaxInt64), sqldb.NewInt(math.MaxInt64 - 1),
		},
		"texts": {sqldb.NewText("a|"), sqldb.NewText(""), sqldb.NewText("a"), sqldb.NewText("a|"), sqldb.NewText("")},
		"bools": {sqldb.NewBool(true), sqldb.NewBool(false), sqldb.NewBool(true)},
	}
	for name, vals := range edges {
		t.Run(name, func(t *testing.T) {
			e := Open()
			rows := make([]sqldb.Row, len(vals))
			for i, v := range vals {
				rows[i] = sqldb.Row{v, sqldb.NewInt(int64(i))}
			}
			load := func(table string, rows []sqldb.Row) {
				blk := &driver.Block{}
				blk.FillFromRows([]string{"x", "i"}, rows)
				if err := e.AppendBlock(table, blk); err != nil {
					t.Fatal(err)
				}
			}
			withNull := append([]sqldb.Row{{sqldb.Null, sqldb.NewInt(-1)}}, rows...)
			load("typed", rows)
			load("typed2", rows)
			load("boxed", withNull)
			load("boxed2", withNull)
			if e.tables["typed"].vecs[0].uniform() == 0 || e.tables["boxed"].vecs[0].uniform() != 0 {
				t.Fatal("fixture: typed.x must be of one kind and boxed.x must not")
			}
			queries := [][2]string{
				{"SELECT COUNT(*), MIN(i), MAX(i) FROM typed GROUP BY x",
					"SELECT COUNT(*), MIN(i), MAX(i) FROM boxed WHERE i >= 0 GROUP BY x"},
				{"SELECT typed.i, typed2.i FROM typed JOIN typed2 ON typed.x = typed2.x",
					"SELECT boxed.i, boxed2.i FROM boxed JOIN boxed2 ON boxed.x = boxed2.x"},
			}
			if name == "floats" || name == "ints" {
				// The comparison kernels against Compare, which calls a NaN
				// equal to everything: pushed down (alone), and under an OR.
				for _, op := range []string{"=", "<>", "<", "<=", ">", ">="} {
					queries = append(queries,
						[2]string{"SELECT i FROM typed WHERE x " + op + " 1.5", "SELECT i FROM boxed WHERE x " + op + " 1.5"},
						[2]string{"SELECT i FROM typed WHERE 3 " + op + " x OR i = 0", "SELECT i FROM boxed WHERE 3 " + op + " x OR i = 0"})
				}
			}
			for n, q := range queries {
				typed, boxed := queryStrings(t, e, q[0]), queryStrings(t, e, q[1])
				if (n < 2 && len(typed) < 2) || !reflect.DeepEqual(typed, boxed) {
					t.Errorf("%s\n typed keys: %v\n boxed keys: %v", q[0], typed, boxed)
				}
			}
		})
	}
}

// TestSelectLeavesSelection pins which results leave the engine as a
// selection over storage and which are gathered.
func TestSelectLeavesSelection(t *testing.T) {
	e := Open()
	mustExec(t, e, "CREATE TABLE t (a INT, b FLOAT, c TEXT, n INT)")
	mustExec(t, e, "INSERT INTO t VALUES (1, 0.5, 'x', 1), (2, 1.5, 'y', NULL), (3, 2.5, 'z', 3), (4, 3.5, 'w', 4)")
	for _, c := range []struct {
		sql  string
		late bool
		rows int
	}{
		{"SELECT a, c FROM t WHERE b > 1", true, 3},
		{"SELECT * FROM t WHERE b > 1", false, 3}, // n has a NULL: not addressable by row
		{"SELECT a, b + 1 FROM t WHERE b > 1", false, 3},
		{"SELECT a, c FROM t", false, 4}, // nothing filtered: the columns themselves
		{"SELECT a, c FROM t WHERE b > 100", false, 0},
		{"SELECT c, a FROM t WHERE b > 1 ORDER BY a DESC LIMIT 2", true, 2},
		{"SELECT a, c FROM t WHERE c = 'z' OR c = 'w'", true, 2}, // no pushdown; the residual filter's selection
	} {
		blk, err := e.Query(c.sql)
		if err != nil {
			t.Fatalf("%s: %v", c.sql, err)
		}
		if (blk.Sel != nil) != c.late || blk.Rows != c.rows {
			t.Errorf("%s: Sel set = %v, %d rows; want %v, %d", c.sql, blk.Sel != nil, blk.Rows, c.late, c.rows)
		}
		if c.late && (len(blk.Sel) != blk.Rows || cap(blk.Sel) != blk.Rows || len(blk.Cols[0].Kinds) != 4) {
			t.Errorf("%s: Sel len %d cap %d over %d-row columns; want an exact-size selection over storage", c.sql, len(blk.Sel), cap(blk.Sel), len(blk.Cols[0].Kinds))
		}
	}
}

// TestSelectionSurvivesWrites: a block that aliases storage through a
// selection keeps reading the rows it selected whatever is written to
// the table afterwards — INSERT appends past the arrays' length, UPDATE
// and DELETE swap in fresh vectors.
func TestSelectionSurvivesWrites(t *testing.T) {
	e := Open()
	mustExec(t, e, "CREATE TABLE t (a INT, b FLOAT)")
	mustExec(t, e, "INSERT INTO t VALUES (1, 0.5), (2, 1.5), (3, 2.5), (4, 3.5)")
	blk, err := e.Query("SELECT a, b FROM t WHERE b > 1")
	if err != nil || blk.Sel == nil {
		t.Fatalf("Sel set = %v, err %v", blk != nil && blk.Sel != nil, err)
	}
	want, err := blk.AppendRows(nil)
	if err != nil {
		t.Fatal(err)
	}
	mustExec(t, e, "INSERT INTO t VALUES (5, 4.5), (6, 5.5)")
	mustExec(t, e, "UPDATE t SET a = 0 WHERE b > 2")
	mustExec(t, e, "DELETE FROM t WHERE a = 2")
	got, err := blk.AppendRows(nil)
	if err != nil || !reflect.DeepEqual(got, want) {
		t.Fatalf("block reads %v after the writes, read %v before (err %v)", got, want, err)
	}
}
