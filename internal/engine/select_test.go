package engine

import (
	"fmt"
	"math"
	"reflect"
	"testing"

	"github.com/qamarket/qamarket/internal/driver"
	"github.com/qamarket/qamarket/internal/sqldb"
)

// TestTypedKeysMatchBoxedKeys holds the typed group and join keys to
// GroupKey's equivalence on the values SQL text cannot write (NaN) as
// well as the ones difftest covers. Each case is a column x and the
// column y it is joined with (x itself when nil). First the table
// alone: the key numbers it gives x typed, boxed, and read through a
// selection that repeats rows must be the numbers a Go map gives the
// GroupKey strings, and y's keys must find the same numbers either way.
// Then through SQL: a column of one kind takes the typed key, the same
// values beside one NULL take the boxed one, and the groups and pairs
// must be the same.
func TestTypedKeysMatchBoxedKeys(t *testing.T) {
	nan2 := math.Float64frombits(math.Float64bits(math.NaN()) ^ 1) // a second NaN bit pattern
	ints := func(vs ...int64) []sqldb.Value { return valuesOf(sqldb.NewInt, vs) }
	floats := func(vs ...float64) []sqldb.Value { return valuesOf(sqldb.NewFloat, vs) }
	texts := func(vs ...string) []sqldb.Value { return valuesOf(sqldb.NewText, vs) }
	// Enough distinct keys for four doublings past the largest initial
	// table, each shape twice so that every key is also a hit.
	const many = 10 * maxInitialKeys
	var smallInts, lowBits, highBits []float64
	var manyTexts []string
	for i := 0; i < 2*many; i++ {
		k := uint64(i * 7919 % many)
		smallInts = append(smallInts, float64(k))                     // 40 and more trailing zero bits
		lowBits = append(lowBits, math.Float64frombits(1<<62+k))      // one exponent, the mantissa's low bits
		highBits = append(highBits, math.Float64frombits(k%2046<<52)) // every exponent, an empty mantissa
		manyTexts = append(manyTexts, fmt.Sprintf("k%d|", k))
	}
	for _, c := range []struct {
		name string
		x, y []sqldb.Value
	}{
		{name: "floats", x: floats(math.NaN(), 0, math.Copysign(0, -1), nan2, 1.5, math.Inf(1), 0, math.Inf(-1), 1.5)},
		{name: "ints", x: ints(1<<53, 1<<53+1, 3, 1<<53+2, -(1<<53 + 1), 3, math.MaxInt64, math.MaxInt64-1)},
		{name: "ints x floats",
			x: ints(1<<53, 1<<53+1, 3, 0, -(1<<53 + 1), 3, math.MaxInt64, 7),
			y: floats(1<<53, 3, math.Copysign(0, -1), 0, 3, math.NaN(), 1<<63, 7.5, -(1 << 53))},
		{name: "texts", x: texts("a|", "", "a", "a|", "", "|", "a||"), y: texts("a", "a|", "b", "", "|a")},
		{name: "bools", x: []sqldb.Value{sqldb.NewBool(true), sqldb.NewBool(false), sqldb.NewBool(true)}},
		{name: "small ints, growing", x: floats(smallInts...), y: ints(5, many-1, many, -1)},
		{name: "low bits only, growing", x: floats(lowBits...)},
		{name: "high bits only", x: floats(highBits...)},
		{name: "texts, growing", x: texts(manyTexts...), y: texts("k5|", "k5", "|", "k77|")},
	} {
		t.Run(c.name, func(t *testing.T) {
			if c.y == nil {
				c.y = c.x
			}
			checkKeyNumbers(t, c.x, c.y)

			e := Open()
			load := func(table string, vals []sqldb.Value, null bool) {
				var rows []sqldb.Row
				if null {
					rows = append(rows, sqldb.Row{sqldb.Null, sqldb.NewInt(-1)})
				}
				for i, v := range vals {
					rows = append(rows, sqldb.Row{v, sqldb.NewInt(int64(i))})
				}
				blk := &driver.Block{}
				blk.FillFromRows([]string{"x", "i"}, rows)
				if err := e.AppendBlock(table, blk); err != nil {
					t.Fatal(err)
				}
			}
			load("typed", c.x, false)
			load("typed2", c.y, false)
			load("boxed", c.x, true)
			load("boxed2", c.y, true)
			if e.tables["typed"].vecs[0].uniform() == 0 || e.tables["boxed"].vecs[0].uniform() != 0 {
				t.Fatal("fixture: typed.x must be of one kind and boxed.x must not")
			}
			queries := [][2]string{
				{"SELECT COUNT(*), MIN(i), MAX(i) FROM typed GROUP BY x",
					"SELECT COUNT(*), MIN(i), MAX(i) FROM boxed WHERE i >= 0 GROUP BY x"},
				{"SELECT typed.i, typed2.i FROM typed JOIN typed2 ON typed.x = typed2.x",
					"SELECT boxed.i, boxed2.i FROM boxed JOIN boxed2 ON boxed.x = boxed2.x"},
				// The join's output is two selections; group on each side's
				// column through its own.
				{"SELECT COUNT(*), MIN(typed.i), MAX(typed2.i) FROM typed JOIN typed2 ON typed.x = typed2.x GROUP BY typed2.x",
					"SELECT COUNT(*), MIN(boxed.i), MAX(boxed2.i) FROM boxed JOIN boxed2 ON boxed.x = boxed2.x GROUP BY boxed2.x"},
			}
			if c.name == "floats" || c.name == "ints" {
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
				if (n < 3 && len(typed) < 2) || !reflect.DeepEqual(typed, boxed) {
					t.Errorf("%s\n typed keys: %.400v\n boxed keys: %.400v", q[0], typed, boxed)
				}
			}
		})
	}
}

func valuesOf[T any](box func(T) sqldb.Value, vs []T) []sqldb.Value {
	out := make([]sqldb.Value, len(vs))
	for i, v := range vs {
		out[i] = box(v)
	}
	return out
}

// checkKeyNumbers drives keyTable over column x (numbering) and column
// y (lookup) in each form ids has, against a map over GroupKey strings.
func checkKeyNumbers(t *testing.T, x, y []sqldb.Value) {
	t.Helper()
	xv, yv := &colVec{}, &colVec{}
	for _, v := range x {
		xv.appendVal(v)
	}
	for _, v := range y {
		yv.appendVal(v)
	}
	// sel reads x back to front three times over: more positions than
	// rows, which is what sends a text column through its row-number memo.
	sel := make([]int32, 0, 3*len(x))
	for rep := 0; rep < 3; rep++ {
		for i := len(x) - 1; i >= 0; i-- {
			sel = append(sel, int32(i))
		}
	}
	for _, form := range []struct {
		name  string
		sel   []int32
		typed bool
	}{{"typed", nil, true}, {"boxed", nil, false}, {"typed through a selection", sel, true}, {"boxed through a selection", sel, false}} {
		oracle := map[string]int32{}
		wantX := make([]int32, len(x))
		if form.sel != nil {
			wantX = make([]int32, len(form.sel))
		}
		for k := range wantX {
			key := x[rowAt(form.sel, k)].GroupKey()
			if _, seen := oracle[key]; !seen {
				oracle[key] = int32(len(oracle))
			}
			wantX[k] = oracle[key]
		}
		wantY := make([]int32, len(y))
		for k, v := range y {
			id, seen := oracle[v.GroupKey()]
			if !seen {
				id = -1
			}
			wantY[k] = id
		}
		var sc scratch
		tab := newKeyTable(&sc, 1) // from the smallest table, so that it grows
		gotX, gotY := make([]int32, len(wantX)), make([]int32, len(wantY))
		tab.ids(gotX, xv, form.sel, form.typed, true)
		tab.ids(gotY, yv, nil, form.typed, false)
		sc.release()
		if !reflect.DeepEqual(gotX, wantX) || tab.len() != len(oracle) {
			t.Errorf("%s: x numbered %.60v (%d keys), want %.60v (%d keys)", form.name, gotX, tab.len(), wantX, len(oracle))
		}
		if !reflect.DeepEqual(gotY, wantY) {
			t.Errorf("%s: y found %.60v, want %.60v", form.name, gotY, wantY)
		}
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
