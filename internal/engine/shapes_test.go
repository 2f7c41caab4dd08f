package engine

import (
	"math"
	"sync"
	"testing"

	"github.com/qamarket/qamarket/internal/driver"
	"github.com/qamarket/qamarket/internal/sqldb"
)

// TestExecutorShapesMatchRowEngine is the differential suites' check at
// the size the benchmark runs: executorShapes over shapesSrc's 200k
// rows, on this engine and on the row engine, cell for cell, a float
// by its bits. The difftest tables are a few hundred rows; these pin the
// unique-key join emission, the n-to-m bucket walk, text keys and the
// one-group fold where each has real work.
//
// The row engine filters after its joins, so join-n-to-m as written
// would have it build all 40M pairs of big joined with itself on c
// first. It gets the same statement over a view that filters first;
// the view keeps big's order, so its pairs come out in the same order
// and its sum adds up the same way.
func TestExecutorShapesMatchRowEngine(t *testing.T) {
	row := shapesRow()
	oracle := map[string]string{
		"join-n-to-m": "SELECT COUNT(*), SUM(y.b) FROM lo x JOIN lo y ON x.c = y.c",
	}
	for _, shape := range executorShapes {
		t.Run(shape.name, func(t *testing.T) {
			sql, ok := oracle[shape.name]
			if !ok {
				sql = shape.sql
			}
			want, err := runSQL(row, sql)
			if err != nil {
				t.Fatal(err)
			}
			got, err := runSQL(shapesDB(), shape.sql)
			if err != nil {
				t.Fatal(err)
			}
			if want.Rows != shape.rows || got.Rows != want.Rows || len(got.Cols) != len(want.Cols) {
				t.Fatalf("%d×%d cells, row engine %d×%d, want %d rows", got.Rows, len(got.Cols), want.Rows, len(want.Cols), shape.rows)
			}
			wantRows, err1 := want.AppendRows(nil)
			gotRows, err2 := got.AppendRows(nil)
			if err1 != nil || err2 != nil {
				t.Fatalf("decoding: %v / %v", err1, err2)
			}
			for r, w := range wantRows {
				for c := range w {
					if !sameBits(w[c], gotRows[r][c]) {
						t.Fatalf("cell (%d,%d): %v (%v), row engine %v (%v)", r, c, gotRows[r][c], gotRows[r][c].Kind, w[c], w[c].Kind)
					}
				}
			}
		})
	}
}

// shapesRow is the row engine over its own copy of shapesSrc's data,
// with join-n-to-m's view. The view stays out of shapesSrc, whose views
// shapesDB copies, so that fixture is the same whichever test or
// benchmark builds it first.
var shapesRow = sync.OnceValue(func() driver.Driver {
	db := newShapesSrc()
	mustExecB(db, "CREATE VIEW lo AS SELECT c, b FROM big WHERE b < 5000.250")
	return driver.NewLegacy(db)
})

func runSQL(d driver.Driver, sql string) (*driver.Block, error) {
	st, err := d.Prepare(sql)
	if err != nil {
		return nil, err
	}
	return st.Execute()
}

// sameBits is value identity: one kind, and for a float the same bits.
func sameBits(a, b sqldb.Value) bool {
	if a.Kind != b.Kind {
		return false
	}
	switch a.Kind {
	case sqldb.KindInt:
		return a.Int == b.Int
	case sqldb.KindFloat:
		return math.Float64bits(a.Float) == math.Float64bits(b.Float)
	case sqldb.KindText:
		return a.Str == b.Str
	case sqldb.KindBool:
		return a.Bool == b.Bool
	}
	return true
}
