package engine

import (
	"fmt"
	"math/rand"
	"sync"
	"testing"

	"github.com/qamarket/qamarket/internal/driver"
	"github.com/qamarket/qamarket/internal/sqldb"
)

// The executor benchmarks: the same workload through the legacy
// row-at-a-time driver and the vectorized columnar engine, at scan sizes
// spanning three orders of magnitude plus a join. Divide ns/op by the
// input row count in the benchmark name for ns per input row:
//
//	go test -run NONE -bench Executor ./internal/engine
//
// The acceptance bar for the vectorized executor is >= 3x on the 100k
// filtered scan.

// benchDataset lazily builds one row database per scan size (seeding is
// the expensive part, so it is shared across sub-benchmarks) plus a
// 10k-row fact table with a 100-row dimension for the join shape.
type benchDataset struct {
	once sync.Once
	db   *sqldb.DB
}

var benchSets = map[string]*benchDataset{
	"1000": {}, "100000": {}, "1000000": {}, "join": {},
}

func benchDB(b *testing.B, key string) *sqldb.DB {
	b.Helper()
	ds := benchSets[key]
	ds.once.Do(func() {
		db := sqldb.Open()
		mustExecB(db, "CREATE TABLE big (a INT, b FLOAT, c TEXT, d BOOL)")
		n := 0
		switch key {
		case "1000":
			n = 1_000
		case "100000":
			n = 100_000
		case "1000000":
			n = 1_000_000
		case "join":
			n = 10_000
			mustExecB(db, "CREATE TABLE dim (k INT, name TEXT)")
			dim := make([]sqldb.Row, 100)
			for i := range dim {
				dim[i] = sqldb.Row{sqldb.NewInt(int64(i)), sqldb.NewText(fmt.Sprintf("d%02d", i))}
			}
			if err := db.AppendTableRows("dim", dim); err != nil {
				panic(err)
			}
		}
		const chunk = 10_000
		rows := make([]sqldb.Row, 0, chunk)
		for i := 0; i < n; i++ {
			rows = append(rows, sqldb.Row{
				sqldb.NewInt(int64(i % 100)),
				sqldb.NewFloat(float64(i) * 0.5),
				sqldb.NewText(fmt.Sprintf("t%03d", i%997)),
				sqldb.NewBool(i%2 == 0),
			})
			if len(rows) == chunk || i == n-1 {
				if err := db.AppendTableRows("big", rows); err != nil {
					panic(err)
				}
				rows = rows[:0]
			}
		}
		ds.db = db
	})
	return ds.db
}

func mustExecB(db *sqldb.DB, sql string) {
	if _, _, err := db.Exec(sql); err != nil {
		panic(err)
	}
}

// benchDrivers opens both executors over the same data.
func benchDrivers(b *testing.B, key string) map[string]driver.Driver {
	b.Helper()
	db := benchDB(b, key)
	return map[string]driver.Driver{
		"row":    driver.NewLegacy(db),
		"vector": FromDB(db),
	}
}

func runExecBench(b *testing.B, key, sql string, wantRows int) {
	for name, d := range benchDrivers(b, key) {
		b.Run(name, func(b *testing.B) {
			st, err := d.Prepare(sql)
			if err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				blk, err := st.Execute()
				if err != nil {
					b.Fatal(err)
				}
				if blk.Rows != wantRows {
					b.Fatalf("%d result rows, want %d", blk.Rows, wantRows)
				}
			}
		})
	}
}

// Filtered scans: SELECT with an arithmetic predicate selecting half
// the table, projecting two columns. The row counts in the benchmark
// names are the scanned input sizes.

func BenchmarkExecutorScan1000(b *testing.B) {
	runExecBench(b, "1000", "SELECT a, b FROM big WHERE b < 250.0", 500)
}

func BenchmarkExecutorScan100000(b *testing.B) {
	runExecBench(b, "100000", "SELECT a, b FROM big WHERE b < 25000.0", 50000)
}

func BenchmarkExecutorScan1000000(b *testing.B) {
	runExecBench(b, "1000000", "SELECT a, b FROM big WHERE b < 250000.0", 500000)
}

// The join shape: 10k-row fact filtered then hash-joined to a 100-row
// dimension with grouped aggregation — the star-query silhouette the
// paper's workload is built from.
func BenchmarkExecutorJoin10000(b *testing.B) {
	runExecBench(b, "join",
		// Even rows only (d = TRUE), so a covers the 50 even keys.
		"SELECT dim.name, COUNT(*), SUM(big.b) FROM big JOIN dim ON big.a = dim.k WHERE big.d = TRUE GROUP BY dim.name",
		50)
}

// shapesSrc is the repo benchmark's star layout (benchmark/workloads.go,
// buildBig): a 200k-row big(a INT, b FLOAT, c TEXT, d BOOL) whose b is
// half a permutation of the row numbers, so a threshold selects a known
// share of rows scattered over the table, and a 100-row dim.
var shapesSrc = sync.OnceValue(newShapesSrc)

func newShapesSrc() *sqldb.DB {
	const bigRows, dimRows = 200_000, 100
	rng := rand.New(rand.NewSource(1))
	db := sqldb.Open()
	mustExecB(db, "CREATE TABLE dim (k INT, name TEXT)")
	mustExecB(db, "CREATE TABLE big (a INT, b FLOAT, c TEXT, d BOOL)")
	dim := make([]sqldb.Row, dimRows)
	for i, name := range rng.Perm(dimRows) {
		dim[i] = sqldb.Row{sqldb.NewInt(int64(i)), sqldb.NewText(fmt.Sprintf("d%02d", name))}
	}
	big := make([]sqldb.Row, bigRows)
	for i, p := range rng.Perm(bigRows) {
		big[i] = sqldb.Row{
			sqldb.NewInt(int64(rng.Intn(dimRows))),
			sqldb.NewFloat(0.5 * float64(p)),
			sqldb.NewText(fmt.Sprintf("t%03d", rng.Intn(997))),
			sqldb.NewBool(rng.Intn(2) == 0),
		}
	}
	if err := db.AppendTableRows("dim", dim); err != nil {
		panic(err)
	}
	if err := db.AppendTableRows("big", big); err != nil {
		panic(err)
	}
	return db
}

var shapesDB = sync.OnceValue(func() *DB { return FromDB(shapesSrc()) })

// executorShapes are the statements the repo benchmark's engine-bound
// workloads execute — scan-exec's four shapes and the fragment
// dist-join pulls from each big node — and the two keyed paths those
// miss: text keys (997 of them), and a join whose build side repeats
// its keys (10,001 rows a side, about ten to a key, 100k pairs). Between
// them they reach every kernel a per-row change lands in: a compare
// compiled per operator (every shape refines all 200k rows), the
// one-group fold in a register (aggregate, join-n-to-m), numbered keys
// (groupby, groupby-text), the unique-key join emission (starjoin: dim.k
// is a primary key) and the bucket walk (join-n-to-m).
var executorShapes = []struct {
	name, sql string
	rows      int
}{
	{"scan", "SELECT a, b FROM big WHERE b < 50000.250", 100_001},
	{"aggregate", "SELECT COUNT(*), SUM(b) FROM big WHERE b < 50000.250", 1},
	{"groupby", "SELECT a, COUNT(*), SUM(b) FROM big WHERE b < 50000.250 GROUP BY a", 100},
	{"starjoin", "SELECT dim.name, COUNT(*), SUM(big.b) FROM big JOIN dim ON big.a = dim.k WHERE big.b < 50000.250 GROUP BY dim.name", 100},
	{"fragment", "SELECT a, b FROM big WHERE (big.b >= 20000.250) AND (big.b < 30000.250)", 20_000},
	{"groupby-text", "SELECT c, COUNT(*), SUM(b) FROM big WHERE b < 50000.250 GROUP BY c", 997},
	{"join-n-to-m", "SELECT COUNT(*), SUM(y.b) FROM big x JOIN big y ON x.c = y.c WHERE x.b < 5000.250 AND y.b < 5000.250", 1},
}

// BenchmarkExecutorShapes runs executorShapes through the vector engine
// alone, so a before/after of the executor does not need the 12-second
// federation harness. Results are not read: scan-exec is execute-only.
// TestExecutorShapesMatchRowEngine holds the same statements' results
// to the row engine's. Timings on a shared host drift between sets, so
// compare alternating runs, one core each:
//
//	GOMAXPROCS=1 go test -run NONE -bench ExecutorShapes ./internal/engine
func BenchmarkExecutorShapes(b *testing.B) {
	e := shapesDB()
	for _, shape := range executorShapes {
		b.Run(shape.name, func(b *testing.B) {
			st, err := e.Prepare(shape.sql)
			if err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				blk, err := st.Execute()
				if err != nil {
					b.Fatal(err)
				}
				if blk.Rows != shape.rows {
					b.Fatalf("%d result rows, want %d", blk.Rows, shape.rows)
				}
			}
		})
	}
}

// BenchmarkFromDB is set-up's transposition of the 200k-row layout.
func BenchmarkFromDB(b *testing.B) {
	src := shapesSrc()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if e := FromDB(src); len(e.tables) != 2 {
			b.Fatal("tables missing")
		}
	}
}

// BenchmarkAppendBlock is the distributed join's ingest: a 20,480-row
// fragment arrives as five 4,096-row batches and lands in a fresh
// scratch table. "fragment" is dist-join's shape (INT and FLOAT, no
// NULLs); "mixed" has a NULL in every seventh cell and a column that
// mixes all four kinds. The "reserved" variants declare the table with
// Reserve first, as a fetch header does, so each array grows once.
func BenchmarkAppendBlock(b *testing.B) {
	const batchRows, batches = 4096, 5
	for _, shape := range []struct {
		name string
		row  func(i int) sqldb.Row
	}{
		{"fragment", func(i int) sqldb.Row {
			return sqldb.Row{sqldb.NewInt(int64(i % 100)), sqldb.NewFloat(float64(i) / 2)}
		}},
		{"mixed", func(i int) sqldb.Row {
			mixed := []sqldb.Value{sqldb.NewInt(int64(i)), sqldb.NewFloat(0.5), sqldb.NewText("m"), sqldb.NewBool(true)}[i%4]
			row := sqldb.Row{sqldb.NewInt(int64(i % 100)), sqldb.NewFloat(float64(i) / 2), mixed}
			if i%7 == 0 {
				row[i%3] = sqldb.Null
			}
			return row
		}},
	} {
		for _, reserved := range []bool{false, true} {
			name := shape.name
			if reserved {
				name += "/reserved"
			}
			b.Run(name, func(b *testing.B) {
				rows := make([]sqldb.Row, batchRows)
				for i := range rows {
					rows[i] = shape.row(i)
				}
				var blk driver.Block
				blk.FillFromRows([]string{"a", "b", "c"}[:len(rows[0])], rows)
				e := Open()
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					e.DropTable("frag")
					if reserved {
						if err := e.Reserve("frag", blk.Columns, batchRows*batches); err != nil {
							b.Fatal(err)
						}
					}
					for k := 0; k < batches; k++ {
						if err := e.AppendBlock("frag", &blk); err != nil {
							b.Fatal(err)
						}
					}
				}
				b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*batchRows*batches), "ns/row")
			})
		}
	}
}
