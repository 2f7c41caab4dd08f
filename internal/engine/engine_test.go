package engine

import (
	"strings"
	"testing"

	"github.com/qamarket/qamarket/internal/sqldb"
)

func mustExec(t *testing.T, e *DB, sql string) int {
	t.Helper()
	n, err := e.Exec(sql)
	if err != nil {
		t.Fatalf("Exec(%q): %v", sql, err)
	}
	return n
}

func queryStrings(t *testing.T, e *DB, sql string) [][]string {
	t.Helper()
	blk, err := e.Query(sql)
	if err != nil {
		t.Fatalf("Query(%q): %v", sql, err)
	}
	rows, err := blk.AppendRows(nil) // one walk; Block.Value walks a column per cell
	if err != nil {
		t.Fatalf("AppendRows(%q): %v", sql, err)
	}
	out := make([][]string, len(rows))
	for i, r := range rows {
		out[i] = make([]string, len(r))
		for j, v := range r {
			out[i][j] = v.String()
		}
	}
	return out
}

func seedDB(t *testing.T) *DB {
	t.Helper()
	e := Open()
	mustExec(t, e, "CREATE TABLE emp (id INT, name TEXT, dept TEXT, salary FLOAT)")
	mustExec(t, e, `INSERT INTO emp VALUES
		(1, 'ann', 'eng', 100.0),
		(2, 'bob', 'eng', 90.0),
		(3, 'cal', 'ops', 80.0),
		(4, 'dee', 'ops', 70.5),
		(5, 'eve', 'mgmt', 120.0)`)
	mustExec(t, e, "CREATE TABLE dept (dept TEXT, floor INT)")
	mustExec(t, e, "INSERT INTO dept VALUES ('eng', 3), ('ops', 1), ('mgmt', 5)")
	return e
}

func TestEngineBasicSelect(t *testing.T) {
	e := seedDB(t)
	got := queryStrings(t, e, "SELECT name FROM emp WHERE salary > 85 ORDER BY id")
	want := [][]string{{"'ann'"}, {"'bob'"}, {"'eve'"}}
	if len(got) != len(want) {
		t.Fatalf("rows = %d, want %d (%v)", len(got), len(want), got)
	}
	for i := range want {
		if got[i][0] != want[i][0] {
			t.Fatalf("row %d = %v, want %v", i, got[i], want[i])
		}
	}
}

func TestEngineJoinGroupOrder(t *testing.T) {
	e := seedDB(t)
	got := queryStrings(t, e,
		"SELECT dept.floor, COUNT(*), SUM(emp.salary) FROM emp JOIN dept ON emp.dept = dept.dept GROUP BY dept.floor ORDER BY dept.floor")
	want := [][]string{
		{"1", "2", "150.5"},
		{"3", "2", "190"},
		{"5", "1", "120"},
	}
	if len(got) != len(want) {
		t.Fatalf("rows = %v, want %v", got, want)
	}
	for i := range want {
		for j := range want[i] {
			if got[i][j] != want[i][j] {
				t.Fatalf("row %d col %d = %q, want %q (full: %v)", i, j, got[i][j], want[i][j], got)
			}
		}
	}
}

func TestEngineDistinctLimitOffset(t *testing.T) {
	e := seedDB(t)
	got := queryStrings(t, e, "SELECT DISTINCT dept FROM emp ORDER BY dept LIMIT 2 OFFSET 1")
	if len(got) != 2 || got[0][0] != "'mgmt'" || got[1][0] != "'ops'" {
		t.Fatalf("got %v", got)
	}
}

func TestEngineUpdateDeleteIndexView(t *testing.T) {
	e := seedDB(t)
	mustExec(t, e, "CREATE INDEX emp_dept ON emp (dept)")
	mustExec(t, e, "CREATE VIEW engineers AS SELECT id, name FROM emp WHERE dept = 'eng'")

	if n := mustExec(t, e, "UPDATE emp SET salary = salary + 10 WHERE dept = 'eng'"); n != 2 {
		t.Fatalf("update changed %d rows, want 2", n)
	}
	if n := mustExec(t, e, "DELETE FROM emp WHERE id = 3"); n != 1 {
		t.Fatalf("delete removed %d rows, want 1", n)
	}
	got := queryStrings(t, e, "SELECT name FROM engineers ORDER BY id")
	if len(got) != 2 || got[0][0] != "'ann'" || got[1][0] != "'bob'" {
		t.Fatalf("view after DML: %v", got)
	}
	// Index-accelerated scan still consistent after DML rebuilds.
	got = queryStrings(t, e, "SELECT COUNT(*) FROM emp WHERE dept = 'ops'")
	if got[0][0] != "1" {
		t.Fatalf("ops count = %v, want 1", got)
	}
}

func TestEngineErrorTextMatchesSQLDB(t *testing.T) {
	e := Open()
	row := sqldb.Open()
	for _, sql := range []string{
		"SELECT nope FROM missing",
		"INSERT INTO missing VALUES (1)",
		"CREATE TABLE t (a INT)",
	} {
		_, eErr := e.Exec(sql)
		_, _, rErr := row.Exec(sql)
		switch {
		case (eErr == nil) != (rErr == nil):
			t.Fatalf("%q: engine err %v, sqldb err %v", sql, eErr, rErr)
		case eErr != nil && eErr.Error() != rErr.Error():
			t.Fatalf("%q: engine %q != sqldb %q", sql, eErr, rErr)
		}
	}
	_, eErr := e.Exec("CREATE TABLE t (a INT)")
	_, _, rErr := row.Exec("CREATE TABLE t (a INT)")
	if eErr == nil || rErr == nil || eErr.Error() != rErr.Error() {
		t.Fatalf("duplicate table: engine %v, sqldb %v", eErr, rErr)
	}
}

func TestEngineFromDBRoundTrip(t *testing.T) {
	src := sqldb.Open()
	script := `CREATE TABLE t (a INT, b TEXT);
		INSERT INTO t VALUES (1, 'x'), (2, 'y'), (3, NULL);
		CREATE INDEX t_a ON t (a);
		CREATE VIEW big AS SELECT a FROM t WHERE a > 1`
	if _, err := sqldb.ExecScript(src, script); err != nil {
		t.Fatal(err)
	}
	e := FromDB(src)
	got := queryStrings(t, e, "SELECT a, b FROM t ORDER BY a")
	if len(got) != 3 || got[2][0] != "3" || got[2][1] != "NULL" {
		t.Fatalf("got %v", got)
	}
	got = queryStrings(t, e, "SELECT a FROM big ORDER BY a")
	if len(got) != 2 || got[0][0] != "2" {
		t.Fatalf("view rows %v", got)
	}
	if !e.HasRelation("t") || !e.HasRelation("big") || e.HasRelation("zzz") {
		t.Fatal("HasRelation mismatch")
	}
}

func TestEnginePrepareHints(t *testing.T) {
	e := seedDB(t)
	st, err := e.Prepare("SELECT name FROM emp WHERE salary > 85")
	if err != nil {
		t.Fatal(err)
	}
	h := st.Hints()
	if h.Signature == "" || h.EstRows <= 0 {
		t.Fatalf("hints = %+v", h)
	}
	blk, err := st.Execute()
	if err != nil {
		t.Fatal(err)
	}
	if blk.Rows != 3 {
		t.Fatalf("rows = %d, want 3", blk.Rows)
	}
	// Non-SELECT prepare mirrors sqldb's Explain error.
	if _, err := e.Prepare("DELETE FROM emp"); err == nil ||
		!strings.Contains(err.Error(), "Explain requires a SELECT") {
		t.Fatalf("prepare non-select: %v", err)
	}
}

func TestEngineAggregatesAndNulls(t *testing.T) {
	e := Open()
	mustExec(t, e, "CREATE TABLE n (v INT)")
	mustExec(t, e, "INSERT INTO n VALUES (1), (NULL), (3)")
	got := queryStrings(t, e, "SELECT COUNT(*), COUNT(v), SUM(v), AVG(v), MIN(v), MAX(v) FROM n")
	want := []string{"3", "2", "4", "2", "1", "3"}
	for j, w := range want {
		if got[0][j] != w {
			t.Fatalf("col %d = %q, want %q (%v)", j, got[0][j], w, got)
		}
	}
	// Empty-input aggregate: one row of NULL/zero like sqldb.
	got = queryStrings(t, e, "SELECT COUNT(v), SUM(v) FROM n WHERE v > 99")
	if got[0][0] != "0" || got[0][1] != "NULL" {
		t.Fatalf("empty group: %v", got)
	}
}
