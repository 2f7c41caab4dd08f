package engine

import (
	"errors"
	"reflect"
	"testing"

	"github.com/qamarket/qamarket/internal/driver"
	"github.com/qamarket/qamarket/internal/sqldb"
)

func blockOf(columns []string, rows ...sqldb.Row) *driver.Block {
	b := &driver.Block{}
	b.FillFromRows(columns, rows)
	return b
}

// TestAppendBlockCopiesOut: a stream decodes every batch into the same
// block, so ingested rows must survive the block being refilled — and
// they keep the kinds they arrived with, mixed numerics and NULLs
// included.
func TestAppendBlockCopiesOut(t *testing.T) {
	e := Open()
	cols := []string{"k", "v", "s", "ok"}
	blk := blockOf(cols,
		sqldb.Row{sqldb.NewInt(1), sqldb.NewInt(7), sqldb.NewText("it's"), sqldb.NewBool(true)},
		sqldb.Row{sqldb.NewInt(2), sqldb.NewFloat(1.5), sqldb.Null, sqldb.NewBool(false)},
	)
	if err := e.AppendBlock("frag", blk); err != nil {
		t.Fatal(err)
	}
	// The next batch overwrites the block's buffers in place.
	blk.FillFromRows(cols, []sqldb.Row{
		{sqldb.NewInt(3), sqldb.Null, sqldb.NewText("x"), sqldb.Null},
	})
	if err := e.AppendBlock("frag", blk); err != nil {
		t.Fatal(err)
	}
	blk.FillFromRows(cols, []sqldb.Row{
		{sqldb.NewInt(99), sqldb.NewInt(99), sqldb.NewText("clobber"), sqldb.NewBool(true)},
	})

	got := queryStrings(t, e, "SELECT k, v, s, ok FROM frag ORDER BY k")
	want := [][]string{
		{"1", "7", "'it's'", "TRUE"},
		{"2", "1.5", "NULL", "FALSE"},
		{"3", "NULL", "'x'", "NULL"},
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("ingested rows = %v, want %v", got, want)
	}
	if got := queryStrings(t, e, "SELECT SUM(v), COUNT(v), COUNT(*) FROM frag"); !reflect.DeepEqual(got, [][]string{{"8.5", "2", "3"}}) {
		t.Errorf("aggregates over the mixed column = %v", got)
	}
}

// TestAppendBlockDeclaresEmptyTable: a block with columns and no rows
// (a zero-row fragment's envelope) still creates the table, before or
// after rows arrive.
func TestAppendBlockDeclaresEmptyTable(t *testing.T) {
	e := Open()
	if err := e.AppendBlock("empty", &driver.Block{Columns: []string{"a", "b"}}); err != nil {
		t.Fatal(err)
	}
	if got := queryStrings(t, e, "SELECT a, b FROM empty"); len(got) != 0 {
		t.Errorf("empty table returned %v", got)
	}
	if got := queryStrings(t, e, "SELECT COUNT(*) FROM empty"); !reflect.DeepEqual(got, [][]string{{"0"}}) {
		t.Errorf("COUNT(*) = %v", got)
	}
	if err := e.AppendBlock("empty", blockOf([]string{"a", "b"}, sqldb.Row{sqldb.NewInt(1), sqldb.NewInt(2)})); err != nil {
		t.Fatal(err)
	}
	if err := e.AppendBlock("empty", &driver.Block{Columns: []string{"a", "b"}}); err != nil {
		t.Fatalf("declaring an existing table again: %v", err)
	}
	if got := queryStrings(t, e, "SELECT a + b FROM empty"); !reflect.DeepEqual(got, [][]string{{"3"}}) {
		t.Errorf("rows after declare = %v", got)
	}
	if err := e.AppendBlock("nocols", &driver.Block{}); err == nil {
		t.Error("a table without columns was created")
	}
}

// TestDropTableLeavesNothing: a partially ingested table is taken back
// whole — relation, rows and indexes — and the name is free again.
func TestDropTableLeavesNothing(t *testing.T) {
	e := Open()
	if err := e.AppendBlock("frag", blockOf([]string{"a"}, sqldb.Row{sqldb.NewInt(7)})); err != nil {
		t.Fatal(err)
	}
	mustExec(t, e, "CREATE INDEX frag_a ON frag (a)")
	e.DropTable("frag")
	e.DropTable("frag") // absent: not an error
	if e.HasRelation("frag") || len(e.Tables()) != 0 {
		t.Fatalf("dropped table still listed: %v", e.Tables())
	}
	if _, err := e.Query("SELECT a FROM frag"); err == nil {
		t.Error("dropped table still answers")
	}
	// The retry lands in a fresh table, with a different shape if need be.
	if err := e.AppendBlock("frag", blockOf([]string{"a", "b"}, sqldb.Row{sqldb.NewInt(9), sqldb.NewText("z")})); err != nil {
		t.Fatal(err)
	}
	mustExec(t, e, "CREATE INDEX frag_a ON frag (a)")
	if got := queryStrings(t, e, "SELECT a, b FROM frag WHERE a = 9"); !reflect.DeepEqual(got, [][]string{{"9", "'z'"}}) {
		t.Errorf("re-ingested fragment = %v, want one row 9", got)
	}
}

// TestAppendBlockKeepsIndexes: rows ingested into an indexed table are
// visible to index-served scans.
func TestAppendBlockKeepsIndexes(t *testing.T) {
	e := Open()
	mustExec(t, e, "CREATE TABLE t (a INT, b TEXT)")
	mustExec(t, e, "INSERT INTO t VALUES (1, 'sql')")
	mustExec(t, e, "CREATE INDEX t_a ON t (a)")
	if err := e.AppendBlock("t", blockOf([]string{"a", "b"}, sqldb.Row{sqldb.NewInt(2), sqldb.NewText("block")})); err != nil {
		t.Fatal(err)
	}
	if got := queryStrings(t, e, "SELECT b FROM t WHERE a = 2"); !reflect.DeepEqual(got, [][]string{{"'block'"}}) {
		t.Errorf("index-served lookup of an ingested row = %v", got)
	}
}

// TestAppendBlockRefusesMalformed: a block that disagrees with the
// table or with its own kind bytes is an error — never a panic, never a
// half-appended table.
func TestAppendBlockRefusesMalformed(t *testing.T) {
	e := Open()
	good := blockOf([]string{"a", "b"}, sqldb.Row{sqldb.NewInt(1), sqldb.NewText("x")})
	if err := e.AppendBlock("frag", good); err != nil {
		t.Fatal(err)
	}
	mutate := func(f func(b *driver.Block)) *driver.Block {
		b := blockOf([]string{"a", "b"},
			sqldb.Row{sqldb.NewInt(2), sqldb.NewText("y")},
			sqldb.Row{sqldb.NewInt(3), sqldb.NewText("z")})
		f(b)
		return b
	}
	cases := map[string]*driver.Block{
		"fewer columns than the table": mutate(func(b *driver.Block) { b.Cols = b.Cols[:1] }),
		"more columns than the table":  mutate(func(b *driver.Block) { b.Cols = append(b.Cols, b.Cols[0]) }),
		"kinds shorter than rows":      mutate(func(b *driver.Block) { b.Cols[1].Kinds = b.Cols[1].Kinds[:1] }),
		"kinds longer than rows":       mutate(func(b *driver.Block) { b.Rows = 1 }),
		"typed array underflow":        mutate(func(b *driver.Block) { b.Cols[1].Texts = b.Cols[1].Texts[:1] }),
		"typed array overflow":         mutate(func(b *driver.Block) { b.Cols[0].Ints = append(b.Cols[0].Ints, 4) }),
		"unknown kind byte":            mutate(func(b *driver.Block) { b.Cols[0].Kinds[1] = 'x' }),
		"rows without columns":         mutate(func(b *driver.Block) { b.Cols = nil }),
	}
	for name, blk := range cases {
		if err := e.AppendBlock("frag", blk); !errors.Is(err, driver.ErrMalformed) {
			t.Errorf("%s: err = %v, want ErrMalformed", name, err)
		}
		// The second column is the malformed one in most cases: the first
		// must not have been appended on its own.
		if got := queryStrings(t, e, "SELECT a, b FROM frag"); !reflect.DeepEqual(got, [][]string{{"1", "'x'"}}) {
			t.Fatalf("%s: table after refusal = %v", name, got)
		}
		if err := e.AppendBlock("fresh", blk); err == nil || e.HasRelation("fresh") {
			t.Errorf("%s: a refused first block created its table (err %v)", name, err)
		}
	}
	mustExec(t, e, "CREATE VIEW v AS SELECT a FROM frag")
	if err := e.AppendBlock("v", good); err == nil {
		t.Error("ingest into a view's name accepted")
	}
}

// TestReserveSizesOnce: Reserve declares the table, and the batches that
// follow grow each array they touch once, to the reserved row count —
// the same rows land as without it, and an array no row uses stays
// empty. A reservation on an existing table must name its columns.
func TestReserveSizesOnce(t *testing.T) {
	e := Open()
	const batch, batches = 100, 5
	if err := e.Reserve("frag", []string{"k", "v"}, batch*batches); err != nil {
		t.Fatal(err)
	}
	if got := queryStrings(t, e, "SELECT COUNT(*) FROM frag"); !reflect.DeepEqual(got, [][]string{{"0"}}) {
		t.Fatalf("declared table counts %v", got)
	}
	rows := make([]sqldb.Row, batch)
	for i := range rows {
		rows[i] = sqldb.Row{sqldb.NewInt(int64(i)), sqldb.NewFloat(0.5)}
	}
	blk := blockOf([]string{"k", "v"}, rows...)
	var first []*int64
	for b := 0; b < batches; b++ {
		if err := e.AppendBlock("frag", blk); err != nil {
			t.Fatal(err)
		}
		k := e.tables["frag"].vecs[0]
		first = append(first, &k.ints[0])
		if min(cap(k.kinds), cap(k.offs), cap(k.ints)) < batch*batches {
			t.Fatalf("batch %d: caps kinds %d offs %d ints %d, want the %d reserved", b, cap(k.kinds), cap(k.offs), cap(k.ints), batch*batches)
		}
	}
	for _, p := range first[1:] {
		if p != first[0] {
			t.Fatal("a reserved array moved: it grew more than once")
		}
	}
	if v := e.tables["frag"].vecs[1]; v.ints != nil || v.texts != nil || len(v.floats) != batch*batches {
		t.Errorf("float column arrays: %d ints %d texts %d floats", len(v.ints), len(v.texts), len(v.floats))
	}
	if got := queryStrings(t, e, "SELECT COUNT(*), SUM(k), SUM(v) FROM frag"); !reflect.DeepEqual(got, [][]string{{"500", "24750", "250"}}) {
		t.Errorf("aggregates over the reserved table = %v", got)
	}
	if err := e.Reserve("frag", []string{"k"}, 10); !errors.Is(err, driver.ErrMalformed) {
		t.Errorf("reserving frag with one column: err = %v, want ErrMalformed", err)
	}
	if err := e.Reserve("nocols", nil, 10); err == nil || e.HasRelation("nocols") {
		t.Errorf("a reservation without columns declared a table (err %v)", err)
	}
}

// TestReserveClamps: a row count from outside the program — a fetch
// header claiming 2^40 rows — sizes no array past MaxReserveRows, and
// the rows that really arrive still land.
func TestReserveClamps(t *testing.T) {
	e := Open()
	if err := e.Reserve("frag", []string{"k", "s"}, 1<<40); err != nil {
		t.Fatal(err)
	}
	if err := e.AppendBlock("frag", blockOf([]string{"k", "s"}, sqldb.Row{sqldb.NewInt(1), sqldb.NewText("a")})); err != nil {
		t.Fatal(err)
	}
	for j, v := range e.tables["frag"].vecs {
		for name, c := range map[string]int{"kinds": cap(v.kinds), "offs": cap(v.offs), "ints": cap(v.ints), "texts": cap(v.texts)} {
			if c > MaxReserveRows {
				t.Errorf("column %d %s cap %d, over the %d-row clamp", j, name, c, MaxReserveRows)
			}
		}
	}
	if got := queryStrings(t, e, "SELECT k, s FROM frag"); !reflect.DeepEqual(got, [][]string{{"1", "'a'"}}) {
		t.Errorf("rows = %v", got)
	}
}
