package cluster

import (
	"fmt"
	"math/rand"
	"testing"
	"time"

	"github.com/qamarket/qamarket/internal/engine"
	"github.com/qamarket/qamarket/internal/metrics"
	"github.com/qamarket/qamarket/internal/sqldb"
)

// TestFetchStreamBytesPerQuery pins what the benchmark's dist-join and
// bulk-fetch queries put on the fetch stream, at a tenth of their
// scale: the nodes' fetch_bytes_total and fetch_batches_total, per
// query, to the byte. big(a INT, b FLOAT, c TEXT, d BOOL), b being 0.5
// times a permutation of the row numbers, lives on two engine nodes
// and dim(k INT, name TEXT) on two others, so no node answers the star
// join and the Distributor fetches one fragment of each. Every number
// repeats exactly, query after query; a change to the batch layout
// moves them, and names its new numbers with the reason.
func TestFetchStreamBytesPerQuery(t *testing.T) {
	const bigRows = 20_000
	rng := rand.New(rand.NewSource(1))
	bigDB, dimDB := sqldb.Open(), sqldb.Open()
	for db, ddl := range map[*sqldb.DB]string{
		bigDB: "CREATE TABLE big (a INT, b FLOAT, c TEXT, d BOOL)",
		dimDB: "CREATE TABLE dim (k INT, name TEXT)",
	} {
		if _, _, err := db.Exec(ddl); err != nil {
			t.Fatal(err)
		}
	}
	big := make([]sqldb.Row, bigRows)
	for i, p := range rng.Perm(bigRows) {
		big[i] = sqldb.Row{
			sqldb.NewInt(int64(rng.Intn(100))),
			sqldb.NewFloat(0.5 * float64(p)),
			sqldb.NewText(fmt.Sprintf("t%03d", rng.Intn(997))),
			sqldb.NewBool(rng.Intn(2) == 0),
		}
	}
	dim := make([]sqldb.Row, 100)
	for i := range dim {
		dim[i] = sqldb.Row{sqldb.NewInt(int64(i)), sqldb.NewText(fmt.Sprintf("d%02d", i))}
	}
	if err := bigDB.AppendTableRows("big", big); err != nil {
		t.Fatal(err)
	}
	if err := dimDB.AppendTableRows("dim", dim); err != nil {
		t.Fatal(err)
	}
	client, nodes := startOver(t, ClientConfig{Mechanism: MechGreedy, PeriodMs: 50, Timeout: 5 * time.Second}, false, 0,
		engine.FromDB(bigDB), engine.FromDB(bigDB), engine.FromDB(dimDB), engine.FromDB(dimDB))
	counted := func() (bytes, batches int64) {
		for _, n := range nodes {
			bytes += n.health.Counter(metrics.FetchBytesTotal)
			batches += n.health.Counter(metrics.FetchBatchesTotal)
		}
		return bytes, batches
	}

	d := NewDistributor(client)
	for _, tc := range []struct {
		name    string
		run     func(id int64) error
		bytes   int64 // fetch-stream bytes per query
		batches int64 // batch frames per query
	}{
		// An 8,000-row fragment of (a, b) in two batches, and dim's 100
		// rows in one. b travels as 2-byte deltas of 2b.
		{"dist-join", func(id int64) error {
			out, err := d.Run(id, "SELECT dim.name, COUNT(*), SUM(big.b) FROM big JOIN dim ON big.a = dim.k WHERE big.b >= 1000 AND big.b < 5000 GROUP BY dim.name")
			if err != nil {
				return err
			}
			var n, sum float64
			for _, row := range out.Result.Rows {
				c, _ := row[1].AsFloat()
				s, _ := row[2].AsFloat()
				n, sum = n+c, sum+s
			}
			// b runs over 0.5·[2000, 10000).
			if n != 8000 || sum != 23_998_000 || out.FragmentRows != 8100 {
				return fmt.Errorf("%v joined rows summing to %v from %d fragment rows, want 8000, 23998000 and 8100", n, sum, out.FragmentRows)
			}
			return nil
		}, 24_921, 3},
		// bulk-fetch's (a, b) projection: 20,000 rows in five batches.
		{"bulk a,b", func(id int64) error {
			rows := 0
			out := client.FetchEach(id, "SELECT a, b FROM big", func(blk *ColBlock) error {
				rows += blk.Rows
				return nil
			})
			if out.Err == nil && rows != bigRows {
				return fmt.Errorf("%d rows, want %d", rows, bigRows)
			}
			return out.Err
		}, 60_515, 5},
	} {
		t.Run(tc.name, func(t *testing.T) {
			for q := int64(1); q <= 3; q++ {
				bytes0, batches0 := counted()
				if err := tc.run(q); err != nil {
					t.Fatal(err)
				}
				bytes1, batches1 := counted()
				bytes, batches := bytes1-bytes0, batches1-batches0
				t.Logf("query %d: %d fetch-stream bytes, %d batch frames", q, bytes, batches)
				if bytes != tc.bytes || batches != tc.batches {
					t.Fatalf("query %d: %d fetch-stream bytes in %d batch frames, pinned %d in %d",
						q, bytes, batches, tc.bytes, tc.batches)
				}
			}
		})
	}
}
