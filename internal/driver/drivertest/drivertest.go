// Package drivertest is the conformance suite every storage driver must
// pass: it pins the contract internal/cluster relies on — schema
// introspection, DDL/DML row counts, Prepare cost hints, block shape,
// and the exact sentinel errors for non-SELECT statements — so a new
// backend can prove itself without spinning up a federation.
package drivertest

import (
	"slices"
	"strings"
	"testing"

	"github.com/qamarket/qamarket/internal/driver"
	"github.com/qamarket/qamarket/internal/sqldb"
)

// Run exercises one driver implementation against the driver contract.
// open must return a fresh, empty driver on every call.
func Run(t *testing.T, name string, open func() driver.Driver) {
	t.Helper()
	t.Run(name+"/name", testNames(open))
	t.Run(name+"/schema", testSchema(open))
	t.Run(name+"/dml", testDML(open))
	t.Run(name+"/prepare", testPrepare(open))
	t.Run(name+"/block", testBlock(open))
	t.Run(name+"/errors", testErrors(open))
	t.Run(name+"/script", testScript(open))
}

func seed(t *testing.T, d driver.Driver) {
	t.Helper()
	script := `CREATE TABLE items (id INT, label TEXT, price FLOAT, live BOOL);
		INSERT INTO items VALUES (1, 'apple', 1.25, TRUE), (2, 'banana', 0.5, FALSE), (3, NULL, 2.0, TRUE);
		CREATE VIEW cheap AS SELECT id, label FROM items WHERE price < 1.5;
		CREATE INDEX items_id ON items (id)`
	if _, err := driver.ExecScript(d, script); err != nil {
		t.Fatalf("seed: %v", err)
	}
}

func testSchema(open func() driver.Driver) func(*testing.T) {
	return func(t *testing.T) {
		d := open()
		seed(t, d)
		tables, views := d.Tables(), d.Views()
		if len(tables) != 1 || tables[0] != "items" {
			t.Fatalf("Tables() = %v, want [items]", tables)
		}
		if len(views) != 1 || views[0] != "cheap" {
			t.Fatalf("Views() = %v, want [cheap]", views)
		}
		// Tables/Views must come back sorted: the catalog digest hashes
		// them in order, and two nodes with the same relations must agree.
		if strings.Join(tables, ",") != sortedJoin(tables) ||
			strings.Join(views, ",") != sortedJoin(views) {
			t.Fatalf("catalog listings must be sorted: tables=%v views=%v", tables, views)
		}
	}
}

// testNames pins how the catalog listings spell relation names: as the
// lexer folds them (ASCII letters lower-cased, other letters kept), which
// is how sqldb.Relations reads a query's relations. The client's shard
// probe tests those names against a filter built from Tables and Views,
// so a listing spelled any other way would hide the node from the CFP.
func testNames(open func() driver.Driver) func(*testing.T) {
	return func(t *testing.T) {
		d := open()
		if _, err := driver.ExecScript(d, `CREATE TABLE Mixed (a INT);
			CREATE TABLE té (a INT);
			CREATE VIEW Über AS SELECT a FROM MIXED`); err != nil {
			t.Fatalf("ExecScript: %v", err)
		}
		if got := strings.Join(d.Tables(), ","); got != "mixed,té" {
			t.Fatalf("Tables() = %s, want mixed,té", got)
		}
		if got := strings.Join(d.Views(), ","); got != "Über" {
			t.Fatalf("Views() = %s, want Über", got)
		}
		sql := "SELECT m.a FROM MIXED m JOIN té ON m.a = té.a JOIN Über u ON u.a = m.a"
		if got := strings.Join(sqldb.Relations(sql), ","); got != "mixed,té,Über" {
			t.Fatalf("Relations(%q) = %s, want the listed spellings", sql, got)
		}
		mustQuery(t, d, sql)
	}
}

func sortedJoin(in []string) string {
	cp := append([]string(nil), in...)
	for i := 1; i < len(cp); i++ {
		for j := i; j > 0 && cp[j] < cp[j-1]; j-- {
			cp[j], cp[j-1] = cp[j-1], cp[j]
		}
	}
	return strings.Join(cp, ",")
}

func testDML(open func() driver.Driver) func(*testing.T) {
	return func(t *testing.T) {
		d := open()
		seed(t, d)
		if n, err := d.Exec("INSERT INTO items VALUES (4, 'date', 3.0, TRUE)"); err != nil || n != 1 {
			t.Fatalf("insert: n=%d err=%v", n, err)
		}
		if n, err := d.Exec("UPDATE items SET price = price * 2 WHERE live = TRUE"); err != nil || n != 3 {
			t.Fatalf("update: n=%d err=%v", n, err)
		}
		if n, err := d.Exec("DELETE FROM items WHERE id = 2"); err != nil || n != 1 {
			t.Fatalf("delete: n=%d err=%v", n, err)
		}
		blk := mustQuery(t, d, "SELECT COUNT(*) FROM items")
		v, err := blk.Value(0, 0)
		if err != nil || v.Int != 3 {
			t.Fatalf("count after DML = %v (err %v), want 3", v, err)
		}
	}
}

func testPrepare(open func() driver.Driver) func(*testing.T) {
	return func(t *testing.T) {
		d := open()
		seed(t, d)
		st, err := d.Prepare("SELECT id, price FROM items WHERE price > 1.0 ORDER BY id")
		if err != nil {
			t.Fatalf("Prepare: %v", err)
		}
		h := st.Hints()
		if h.Signature == "" {
			t.Fatal("Hints().Signature must identify the plan shape")
		}
		if h.EstRows <= 0 || h.IOCost < 0 || h.CPUCost < 0 {
			t.Fatalf("implausible cost hints: %+v", h)
		}
		blk, err := st.Execute()
		if err != nil {
			t.Fatalf("Execute: %v", err)
		}
		if blk.Rows != 2 || len(blk.Columns) != 2 {
			t.Fatalf("block = %d rows x %v, want 2 x [id price]", blk.Rows, blk.Columns)
		}
		// A prepared statement is reusable: planning once, executing twice.
		blk2, err := st.Execute()
		if err != nil || blk2.Rows != blk.Rows {
			t.Fatalf("re-Execute: rows=%d err=%v", blk2.Rows, err)
		}
		// EXPLAIN prepares too (the negotiation path plans without running).
		if _, err := d.Prepare("EXPLAIN SELECT id FROM items"); err != nil {
			t.Fatalf("Prepare(EXPLAIN): %v", err)
		}
	}
}

func testBlock(open func() driver.Driver) func(*testing.T) {
	return func(t *testing.T) {
		d := open()
		seed(t, d)
		blk := mustQuery(t, d, "SELECT id, label, price, live FROM items ORDER BY id")
		if blk.Rows != 3 || len(blk.Cols) != 4 {
			t.Fatalf("block = %d rows x %d cols", blk.Rows, len(blk.Cols))
		}
		// Kinds must cover every row of every column.
		for j, col := range blk.Cols {
			if len(col.Kinds) != blk.Rows {
				t.Fatalf("col %d: %d kind bytes for %d rows", j, len(col.Kinds), blk.Rows)
			}
		}
		// NULL must round-trip as a kind byte, not a zero value.
		v, err := blk.Value(2, 1)
		if err != nil || !v.IsNull() {
			t.Fatalf("row 2 label = %v (err %v), want NULL", v, err)
		}
		// AppendRows must rebuild exactly Rows rows.
		rows, err := blk.AppendRows(nil)
		if err != nil || len(rows) != 3 {
			t.Fatalf("AppendRows: %d rows, err %v", len(rows), err)
		}
		if rows[0][0].Int != 1 || rows[1][2].Float != 0.5 || rows[0][3].Bool != true {
			t.Fatalf("AppendRows content mismatch: %v", rows)
		}
	}
}

func testErrors(open func() driver.Driver) func(*testing.T) {
	return func(t *testing.T) {
		d := open()
		seed(t, d)
		if _, err := d.Prepare("DELETE FROM items"); err == nil ||
			!strings.Contains(err.Error(), "requires a SELECT") {
			t.Fatalf("Prepare(non-SELECT) = %v, want 'requires a SELECT'", err)
		}
		if _, err := d.Prepare("SELECT FROM"); err == nil {
			t.Fatal("Prepare must surface parse errors")
		}
		if _, err := d.Exec("INSERT INTO missing VALUES (1)"); err == nil {
			t.Fatal("Exec against a missing table must error")
		}
		if _, err := d.Prepare("SELECT zzz FROM items"); err != nil {
			// Planning does not resolve columns; execution must.
			t.Fatalf("Prepare plans without resolving columns, got %v", err)
		} else if st, _ := d.Prepare("SELECT zzz FROM items"); st != nil {
			if _, err := st.Execute(); err == nil ||
				!strings.Contains(err.Error(), "unknown column") {
				t.Fatalf("Execute(unknown column) = %v", err)
			}
		}
	}
}

func testScript(open func() driver.Driver) func(*testing.T) {
	return func(t *testing.T) {
		d := open()
		// Blank statements and comment-only lines are skipped; a comment
		// may open a statement; affected rows sum over every DML.
		n, err := driver.ExecScript(d, `-- comment only
			CREATE TABLE s (a INT, b TEXT);

			-- seed data
			INSERT INTO s VALUES (1, 'x'), (2, 'y');
			INSERT INTO s VALUES (3, 'z');;
			`)
		if err != nil || n != 3 {
			t.Fatalf("ExecScript: n=%d err=%v, want 3 rows", n, err)
		}
		if v, err := mustQuery(t, d, "SELECT COUNT(*) FROM s").Value(0, 0); err != nil || v.Int != 3 {
			t.Fatalf("count after script = %v (err %v), want 3", v, err)
		}
		if n, err := driver.ExecScript(d, "\n  -- nothing here\n;;\n"); err != nil || n != 0 {
			t.Fatalf("comment-only script: n=%d err=%v", n, err)
		}
		// Errors carry the 1-based statement index, a type error as much
		// as a parse error, and the statements before it stay applied.
		for _, tc := range []struct{ script, applied string }{
			{"CREATE TABLE u (a INT); INSERT INTO u VALUES ('wrong type')", "u"},
			{"CREATE TABLE w (a INT); BOGUS", "w"},
		} {
			if _, err := driver.ExecScript(d, tc.script); err == nil ||
				!strings.Contains(err.Error(), "script statement 2") {
				t.Fatalf("ExecScript(%q) error = %v, want statement-indexed error", tc.script, err)
			}
			if !slices.Contains(d.Tables(), tc.applied) {
				t.Fatalf("ExecScript(%q) did not keep statement 1: tables %v", tc.script, d.Tables())
			}
		}
	}
}

func mustQuery(t *testing.T, d driver.Driver, sql string) *driver.Block {
	t.Helper()
	st, err := d.Prepare(sql)
	if err != nil {
		t.Fatalf("Prepare(%q): %v", sql, err)
	}
	blk, err := st.Execute()
	if err != nil {
		t.Fatalf("Execute(%q): %v", sql, err)
	}
	return blk
}
