// Distributed: a federated join no single node can answer.
//
// Two nodes hold disjoint halves of a tiny retail schema (orders on
// one, customers on the other). The Distributor decomposes the join
// into per-relation subqueries — negotiated through the same query
// market as whole queries — pulls the fragments, and joins them
// locally. This is the Query/Process-Trading setting of the paper's
// Section 2.1 in miniature.
package main

import (
	"fmt"
	"log"
	"time"

	"github.com/qamarket/qamarket/internal/cluster"
	"github.com/qamarket/qamarket/internal/engine"
	"github.com/qamarket/qamarket/internal/sqldb"
)

func main() {
	seed := func(stmts ...string) *sqldb.DB {
		db := sqldb.Open()
		for _, s := range stmts {
			if _, _, err := db.Exec(s); err != nil {
				log.Fatalf("%s: %v", s, err)
			}
		}
		return db
	}
	ordersDB := seed(
		"CREATE TABLE orders (id INT, cust INT, amount FLOAT)",
		`INSERT INTO orders VALUES
			(1, 10, 25.0), (2, 10, 14.5), (3, 20, 99.0),
			(4, 30, 5.25), (5, 30, 42.0), (6, 20, 7.75)`,
		"CREATE INDEX orders_cust ON orders (cust)",
	)
	customersDB := seed(
		"CREATE TABLE customers (id INT, name TEXT, vip BOOL)",
		`INSERT INTO customers VALUES
			(10, 'ada', TRUE), (20, 'bob', FALSE), (30, 'cyd', TRUE)`,
	)

	var addrs []string
	for i, db := range []*sqldb.DB{ordersDB, customersDB} {
		node, err := cluster.StartNode("127.0.0.1:0", cluster.NodeConfig{
			Driver: engine.FromDB(db), MsPerCostUnit: 0.05, PeriodMs: 100,
		})
		if err != nil {
			log.Fatal(err)
		}
		defer node.Close()
		addrs = append(addrs, node.Addr())
		fmt.Printf("node %d (%s) holds %v\n", i, node.Addr(), db.Tables())
	}

	client, err := cluster.NewClient(cluster.ClientConfig{
		Addrs: addrs, Mechanism: cluster.MechQANT, PeriodMs: 100, Timeout: 5 * time.Second,
	})
	if err != nil {
		log.Fatal(err)
	}
	defer client.Close()
	d := cluster.NewDistributor(client)

	sql := `SELECT customers.name, COUNT(*) AS orders, SUM(orders.amount) AS total
		FROM orders JOIN customers ON orders.cust = customers.id
		WHERE customers.vip = TRUE AND orders.amount > 6.0
		GROUP BY customers.name ORDER BY customers.name`
	fmt.Println("\nquery:", sql)

	out, err := d.Run(1, sql)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\ndecomposed into %d subqueries (%d fragment rows, %.1f ms total):\n",
		out.Subqueries, out.FragmentRows, out.TotalMs)
	for node, n := range out.PerNode {
		fmt.Printf("  node %s supplied %d fragment(s)\n", node, n)
	}
	fmt.Println("\nresult:")
	fmt.Println(" ", out.Result.Columns)
	for _, row := range out.Result.Rows {
		fmt.Println(" ", row)
	}
}
