package difftest

import (
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"github.com/qamarket/qamarket/internal/sqldb"
)

// edgeLiterals swaps some of the generator's tame literals for the ones
// a printer gets wrong: an apostrophe, a text that is one, a float too
// large and one too small for anything but exponent notation. (The
// generator's own "12.0" is a third kind: a float that prints like an
// int.)
var edgeLiterals = strings.NewReplacer(
	"'alpha'", "'O''Brien'",
	"'zeta'", "''''",
	"3.5", "1000000000000000000000.0",
	"7.2", "0.00000012",
)

// TestExprPrintRoundTrips is parse(print(e)) ≡ e: an expression that
// leaves a node as SQL text — a Distributor's pushed-down predicate, a
// view's stored select — must read back as the tree it was. Every
// predicate and scalar the differential generator can build is parsed,
// printed with Expr.String and parsed again.
func TestExprPrintRoundTrips(t *testing.T) {
	g := &qgen{rng: rand.New(rand.NewSource(seed + 5)), joined: true}
	parse := func(scalar, predicate string) (sqldb.Expr, sqldb.Expr) {
		t.Helper()
		sql := "SELECT " + scalar + " FROM t1 JOIN t2 ON t1.a = t2.k WHERE " + predicate
		stmt, err := sqldb.Parse(sql)
		if err != nil {
			t.Fatalf("%v\n  %s", err, sql)
		}
		sel := stmt.(*sqldb.SelectStmt)
		return sel.Items[0].Expr, sel.Where
	}
	// How often each edge is printed: the generator must keep reaching them.
	edges := map[string]int{"'O''Brien'": 0, "''''": 0, "1000000000000000000000.0": 0, "0.00000012": 0, " 12.0": 0}
	for i := 0; i < nQueries; i++ {
		scalar, predicate := edgeLiterals.Replace(g.scalar(3)), edgeLiterals.Replace(g.predicate(3))
		item, where := parse(scalar, predicate)
		item2, where2 := parse(item.String(), where.String())
		for lit := range edges {
			edges[lit] += strings.Count(item.String()+" "+where.String(), lit)
		}
		if !reflect.DeepEqual(item, item2) {
			t.Fatalf("scalar %d read back differently:\n  source  %s\n  printed %s\n  reread  %s", i, scalar, item, item2)
		}
		if !reflect.DeepEqual(where, where2) {
			t.Fatalf("predicate %d read back differently:\n  source  %s\n  printed %s\n  reread  %s", i, predicate, where, where2)
		}
	}
	for lit, n := range edges {
		if n == 0 {
			t.Errorf("no printed expression held %s: the generator no longer reaches it", lit)
		}
	}
}
