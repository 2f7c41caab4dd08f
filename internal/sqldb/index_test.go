package sqldb

import (
	"fmt"
	"strings"
	"testing"
)

func indexedDB(t *testing.T) *DB {
	t.Helper()
	db := Open()
	mustExec(t, db, "CREATE TABLE ev (id INT, kind TEXT, v INT)")
	var b strings.Builder
	b.WriteString("INSERT INTO ev VALUES ")
	for i := 0; i < 200; i++ {
		if i > 0 {
			b.WriteByte(',')
		}
		fmt.Fprintf(&b, "(%d, 'k%d', %d)", i, i%5, i*3)
	}
	mustExec(t, db, b.String())
	mustExec(t, db, "CREATE INDEX ev_kind ON ev (kind)")
	return db
}

func TestIndexScanUsedAndCorrect(t *testing.T) {
	db := indexedDB(t)
	plan, err := db.Explain("SELECT COUNT(*) FROM ev WHERE kind = 'k2'")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(plan.Tree(), "ixscan(ev.kind)") {
		t.Errorf("plan does not use the index:\n%s", plan.Tree())
	}
	res := queryRows(t, db, "SELECT COUNT(*) FROM ev WHERE kind = 'k2'")
	if res.Rows[0][0].Int != 40 {
		t.Errorf("indexed count = %v, want 40", res.Rows[0][0])
	}
	// Reversed equality also uses the index.
	plan, err = db.Explain("SELECT id FROM ev WHERE 'k1' = kind")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(plan.Tree(), "ixscan") {
		t.Errorf("reversed equality missed the index:\n%s", plan.Tree())
	}
}

func TestIndexResultsMatchFullScan(t *testing.T) {
	db := indexedDB(t)
	noIdx := Open()
	mustExec(t, noIdx, "CREATE TABLE ev (id INT, kind TEXT, v INT)")
	var b strings.Builder
	b.WriteString("INSERT INTO ev VALUES ")
	for i := 0; i < 200; i++ {
		if i > 0 {
			b.WriteByte(',')
		}
		fmt.Fprintf(&b, "(%d, 'k%d', %d)", i, i%5, i*3)
	}
	mustExec(t, noIdx, b.String())
	for _, q := range []string{
		"SELECT id FROM ev WHERE kind = 'k3' ORDER BY id",
		"SELECT SUM(v) FROM ev WHERE kind = 'k0' AND v > 100",
		"SELECT id FROM ev WHERE kind = 'nope'",
	} {
		a := queryRows(t, db, q)
		bres := queryRows(t, noIdx, q)
		if len(a.Rows) != len(bres.Rows) {
			t.Fatalf("%s: %d rows with index, %d without", q, len(a.Rows), len(bres.Rows))
		}
		for i := range a.Rows {
			for j := range a.Rows[i] {
				if !Equal(a.Rows[i][j], bres.Rows[i][j]) {
					t.Fatalf("%s: row %d differs", q, i)
				}
			}
		}
	}
}

func TestIndexMaintenance(t *testing.T) {
	db := indexedDB(t)
	count := func() int64 {
		return queryRows(t, db, "SELECT COUNT(*) FROM ev WHERE kind = 'k1'").Rows[0][0].Int
	}
	before := count()
	mustExec(t, db, "INSERT INTO ev VALUES (999, 'k1', 0)")
	if count() != before+1 {
		t.Error("index not maintained after INSERT")
	}
	mustExec(t, db, "UPDATE ev SET kind = 'k9' WHERE id = 999")
	if count() != before {
		t.Error("index not rebuilt after UPDATE")
	}
	if n := queryRows(t, db, "SELECT COUNT(*) FROM ev WHERE kind = 'k9'").Rows[0][0].Int; n != 1 {
		t.Errorf("moved row not findable via index: %d", n)
	}
	mustExec(t, db, "DELETE FROM ev WHERE kind = 'k1'")
	if count() != 0 {
		t.Error("index not rebuilt after DELETE")
	}
}

func TestIndexErrors(t *testing.T) {
	db := indexedDB(t)
	bad := []string{
		"CREATE INDEX ev_kind ON ev (kind)", // duplicate name
		"CREATE INDEX i2 ON missing (kind)", // unknown table
		"CREATE INDEX i3 ON ev (missing)",   // unknown column
	}
	for _, q := range bad {
		if _, _, err := db.Exec(q); err == nil {
			t.Errorf("accepted %s", q)
		}
	}
	if len(db.indexes) != 1 || db.indexes["ev_kind"] == nil {
		t.Errorf("indexes = %v, want only ev_kind", db.indexes)
	}
}

func TestIndexNotUsedAcrossJoinAmbiguity(t *testing.T) {
	db := indexedDB(t)
	mustExec(t, db, "CREATE TABLE other (kind TEXT)")
	mustExec(t, db, "INSERT INTO other VALUES ('k1')")
	// Unqualified "kind" in a two-table query is ambiguous, so the
	// index must not fire — and execution errors on the ambiguity, same
	// as without an index.
	if _, err := db.Query("SELECT COUNT(*) FROM ev JOIN other ON ev.kind = other.kind WHERE kind = 'k1'"); err == nil {
		t.Error("ambiguous column accepted")
	}
	// Qualified use fires the index even in a join.
	plan, err := db.Explain("SELECT COUNT(*) FROM ev JOIN other ON ev.kind = other.kind WHERE ev.kind = 'k1'")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(plan.Tree(), "ixscan(ev.kind)") {
		t.Errorf("qualified join predicate missed the index:\n%s", plan.Tree())
	}
}

func TestIndexCostBelowScan(t *testing.T) {
	db := indexedDB(t)
	withIdx, err := db.Explain("SELECT id FROM ev WHERE kind = 'k1'")
	if err != nil {
		t.Fatal(err)
	}
	fullScan, err := db.Explain("SELECT id FROM ev WHERE v = 3")
	if err != nil {
		t.Fatal(err)
	}
	if withIdx.Cost() >= fullScan.Cost() {
		t.Errorf("index plan cost %.1f not below scan cost %.1f", withIdx.Cost(), fullScan.Cost())
	}
}
