// Package driver is the storage-driver seam between the federation
// server (internal/cluster) and whatever engine executes its queries.
// The paper's deployment story is a federation of *autonomous* DBMSs:
// each qanode is a pricing front-end, and the engine behind it is an
// implementation detail the market must not see. This package defines
// the narrow contract that makes that true — prepare a statement, read
// its cost hints, execute it into typed column blocks. Every product
// node runs one backend, the vectorized columnar engine in
// internal/engine. This package adds the row engine's adapter (Legacy),
// which is that engine's oracle and nothing else, and a fault-injecting
// wrapper for tests (Mock).
//
// Every driver must agree with the reference engine (internal/sqldb)
// cell-for-cell: the differential harness in difftest runs randomized
// queries through a candidate and the reference and asserts identical
// results, and drivertest holds the conformance suite any new backend
// must pass.
package driver

import (
	"fmt"
	"strings"
)

// CostHints is a prepared statement's contribution to the QA-NT cost
// model: the plan signature that names the query's class (the key of
// per-class prices and of the past-execution EMA history) and the
// plan-derived cost split the node scales by its I/O and CPU slowdown
// factors. Every driver prices through sqldb.PlanSelectOn against its
// own catalog, so two backends holding the same data report
// byte-identical signatures and costs — the property that lets the row
// engine stand as the vectorized engine's oracle on prices as well as
// results.
type CostHints struct {
	// Signature is the plan-shape signature (sqldb.Plan.Signature).
	Signature string
	// IOCost is the scan-leaf portion of the plan cost.
	IOCost float64
	// CPUCost is the non-scan portion (joins, grouping, sorting).
	CPUCost float64
	// EstRows is the plan's estimated output cardinality.
	EstRows float64
}

// Statement is one prepared query. Prepare separates planning (cost
// hints for negotiation) from execution, mirroring the paper's
// EXPLAIN-then-execute lifecycle: a node prices thousands of CFPs per
// query it actually runs.
type Statement interface {
	// Hints reports the statement's cost estimate for the market layer.
	Hints() CostHints
	// Execute runs the statement and returns its full result as one
	// column block. The block is owned by the caller; drivers must not
	// reuse its buffers for a later Execute. Batch-at-a-time consumers
	// slice it with Block.NextBatch, which is how the cluster's frame
	// lane streams a result without ever materializing rows.
	Execute() (*Block, error)
}

// Driver is one storage backend behind a federation node. The surface
// is what a node calls: the catalog listings the gossip layer hashes
// into the member row (Tables/Views), DDL/DML ingestion (Exec), and the
// prepare/execute query path. Everything else — pricing, deadlines,
// dedup, wire encoding — lives above the seam, and no part of it knows
// which backend answers.
type Driver interface {
	// Tables lists base-table names, sorted.
	Tables() []string
	// Views lists view names, sorted.
	Views() []string
	// Exec parses and executes one statement (DDL, DML, or a SELECT
	// whose rows are discarded), returning the number of rows affected.
	Exec(sql string) (int, error)
	// Prepare plans one SELECT (or EXPLAIN SELECT) without running it.
	Prepare(sql string) (Statement, error)
}

// ExecScript executes a ';'-separated statement sequence against any
// driver, in the format of qanode's -init files: empty statements and
// line comments are skipped, errors report the 1-based statement index,
// and the total DML-affected row count is returned. Statements run one
// at a time with no transaction, so a failing script leaves the
// statements before the failure applied.
func ExecScript(d Driver, script string) (int, error) {
	total := 0
	idx := 0
	for _, stmt := range strings.Split(script, ";") {
		stmt = strings.TrimSpace(stmt)
		if stmt == "" || isOnlyComments(stmt) {
			continue
		}
		idx++
		n, err := d.Exec(stmt)
		if err != nil {
			return total, fmt.Errorf("driver: script statement %d: %w", idx, err)
		}
		total += n
	}
	return total, nil
}

// isOnlyComments reports whether every line is blank or a -- comment.
func isOnlyComments(s string) bool {
	for _, line := range strings.Split(s, "\n") {
		line = strings.TrimSpace(line)
		if line != "" && !strings.HasPrefix(line, "--") {
			return false
		}
	}
	return true
}
