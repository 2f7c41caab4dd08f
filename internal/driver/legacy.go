package driver

import "github.com/qamarket/qamarket/internal/sqldb"

// Legacy adapts the row-based reference engine (internal/sqldb),
// unchanged, to the driver seam, so the vectorized engine's oracle
// speaks the same contract: the differential tests, the Distributor's
// oracle test and the benchmark's replay compare through it. No
// product node runs it. Planning delegates to the engine's EXPLAIN;
// execution runs the row pipeline and transposes the result into a
// column block once.
type Legacy struct {
	db *sqldb.DB
}

// NewLegacy wraps a row-engine instance. The instance stays fully
// usable directly; the driver adds no state of its own.
func NewLegacy(db *sqldb.DB) *Legacy { return &Legacy{db: db} }

// DB exposes the wrapped engine for callers that need the raw handle
// (local oracles in tests, dataset loaders).
func (l *Legacy) DB() *sqldb.DB { return l.db }

// Tables lists base tables, sorted.
func (l *Legacy) Tables() []string { return l.db.Tables() }

// Views lists views, sorted.
func (l *Legacy) Views() []string { return l.db.Views() }

// Exec executes one statement, returning rows affected.
func (l *Legacy) Exec(sql string) (int, error) {
	_, n, err := l.db.Exec(sql)
	return n, err
}

// Prepare plans the statement through the engine's EXPLAIN path.
func (l *Legacy) Prepare(sql string) (Statement, error) {
	plan, err := l.db.Explain(sql)
	if err != nil {
		return nil, err
	}
	return &legacyStmt{
		db:  l.db,
		sql: sql,
		hints: CostHints{
			Signature: plan.Signature(),
			IOCost:    plan.IOCost(),
			CPUCost:   plan.CPUCost(),
			EstRows:   plan.Rows(),
		},
	}, nil
}

type legacyStmt struct {
	db    *sqldb.DB
	sql   string
	hints CostHints
}

func (s *legacyStmt) Hints() CostHints { return s.hints }

// Execute runs the row pipeline and transposes once into a block.
func (s *legacyStmt) Execute() (*Block, error) {
	res, err := s.db.Query(s.sql)
	if err != nil {
		return nil, err
	}
	return FromResult(res), nil
}
