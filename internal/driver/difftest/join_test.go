package difftest

import (
	"fmt"
	"strings"
	"testing"

	"github.com/qamarket/qamarket/internal/driver"
	"github.com/qamarket/qamarket/internal/engine"
	"github.com/qamarket/qamarket/internal/sqldb"
)

// TestDifferentialJoinEmission holds the hash join's two emission paths
// to the row engine on the build sides that decide between them. A build
// side whose every key sits on one row emits each found probe row's one
// partner directly; any repeated key sends the whole join through the
// bucket walk. Each build side below is the smaller input, so it is the
// build side whichever way the FROM clause is written:
//
//   - uniq: ten distinct keys (unique path);
//   - dup: the same with one INT key and one TEXT key repeated among
//     them (bucket walk);
//   - nul: ten distinct keys and two NULL rows, so its columns key
//     boxed and the NULLs get no key (unique path over the untyped ids);
//   - emp: no rows;
//   - far: distinct keys no probe row has.
//
// The probe sides are fact, NULL-free, and factn, whose every fifth key
// is NULL.
func TestDifferentialJoinEmission(t *testing.T) {
	var sb strings.Builder
	sb.WriteString("CREATE TABLE fact (k INT, t TEXT, v FLOAT);\nCREATE TABLE factn (k INT, t TEXT, v FLOAT);\n")
	for _, b := range []string{"uniq", "dup", "nul", "emp", "far"} {
		fmt.Fprintf(&sb, "CREATE TABLE %s (k INT, name TEXT);\n", b)
	}
	for i := 0; i < 60; i++ {
		k, name, v := fmt.Sprint(i*7%12), fmt.Sprintf("'n%d'", i*5%12), fmt.Sprintf("%.2f", float64(i)*0.25-3)
		fmt.Fprintf(&sb, "INSERT INTO fact VALUES (%s, %s, %s);\n", k, name, v)
		if i%5 == 0 {
			k, name = "NULL", "NULL"
		}
		fmt.Fprintf(&sb, "INSERT INTO factn VALUES (%s, %s, %s);\n", k, name, v)
	}
	for i := 0; i < 10; i++ {
		for _, b := range []string{"uniq", "dup", "nul"} {
			fmt.Fprintf(&sb, "INSERT INTO %s VALUES (%d, 'n%d');\n", b, i, i)
		}
		fmt.Fprintf(&sb, "INSERT INTO far VALUES (%d, 'm%d');\n", 100+i, i)
		if i == 6 {
			sb.WriteString("INSERT INTO dup VALUES (4, 'n3');\nINSERT INTO nul VALUES (NULL, NULL);\nINSERT INTO nul VALUES (NULL, NULL);\n")
		}
	}
	row, vec := driver.NewLegacy(sqldb.Open()), engine.Open()
	for name, d := range map[string]driver.Driver{"row": row, "vector": vec} {
		if _, err := driver.ExecScript(d, sb.String()); err != nil {
			t.Fatalf("loading into %s: %v", name, err)
		}
	}
	for _, b := range []string{"uniq", "dup", "nul", "emp", "far"} {
		t.Run(b, func(t *testing.T) {
			for _, q := range []string{
				"SELECT fact.v, %[1]s.name, %[1]s.k FROM fact JOIN %[1]s ON fact.k = %[1]s.k",
				"SELECT %[1]s.name, fact.v FROM %[1]s JOIN fact ON %[1]s.k = fact.k",
				"SELECT fact.t, fact.v, %[1]s.k FROM fact JOIN %[1]s ON fact.t = %[1]s.name",
				"SELECT %[1]s.name, COUNT(*), SUM(fact.v) FROM fact JOIN %[1]s ON fact.k = %[1]s.k GROUP BY %[1]s.name",
				"SELECT factn.v, %[1]s.name FROM factn JOIN %[1]s ON factn.k = %[1]s.k",
				"SELECT %[1]s.k, factn.t, factn.v FROM %[1]s JOIN factn ON factn.t = %[1]s.name",
			} {
				sql := fmt.Sprintf(q, b)
				blk := mustAgree(t, row, vec, sql)
				if matches := b != "emp" && b != "far"; matches != (blk.Rows > 0) {
					t.Fatalf("%d rows; the case needs pairs exactly when the build side shares keys with the probe\n  %s", blk.Rows, sql)
				}
			}
		})
	}
}
