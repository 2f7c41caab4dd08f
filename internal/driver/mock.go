package driver

import (
	"errors"
	"strings"
	"sync/atomic"
	"time"
)

// ErrInjected is the error the mock driver's fault knobs return;
// injectable wrappers compose messages onto it so tests can errors.Is.
var ErrInjected = errors.New("driver: injected fault")

// MockConfig holds the mock driver's fault knobs. The zero value
// injects nothing (a transparent proxy). The knobs compose with
// faultnet's transport faults: faultnet breaks the wire, Mock breaks
// the engine behind an otherwise healthy wire — the failure class the
// cluster must classify as fatal-not-retriable (a deterministic engine
// error) or absorb via dedup (a slow engine under client retransmit).
type MockConfig struct {
	// ExecDelay is added to every Execute before the inner engine runs,
	// modeling a slow backend.
	ExecDelay time.Duration
	// FailNext, while positive, makes Execute return ErrInjected and
	// decrement; queued faults burn off one per execution.
	FailNext int
	// FailMatch restricts FailNext to statements containing the
	// substring; non-matching statements pass through without consuming
	// a queued fault.
	FailMatch string
	// TruncateRows, when positive, truncates every result block to at
	// most this many rows — the partial-batch fault.
	TruncateRows int
}

// Mock wraps any driver with configurable faults for tests and smoke
// binaries. Fault state is safe for concurrent use.
type Mock struct {
	inner Driver
	cfg   MockConfig

	failNext atomic.Int64
	execs    atomic.Int64
	prepares atomic.Int64
}

// NewMock wraps inner with the given fault knobs.
func NewMock(inner Driver, cfg MockConfig) *Mock {
	m := &Mock{inner: inner, cfg: cfg}
	m.failNext.Store(int64(cfg.FailNext))
	return m
}

// Executions reports how many Execute calls reached the inner engine —
// the counter executed-once assertions read.
func (m *Mock) Executions() int64 { return m.execs.Load() }

// Prepares reports how many Prepare calls reached the inner engine —
// the counter plan-once assertions read.
func (m *Mock) Prepares() int64 { return m.prepares.Load() }

// FailNextExec queues n injected Execute failures.
func (m *Mock) FailNextExec(n int) { m.failNext.Store(int64(n)) }

// Name reports the inner executor behind a "mock:" prefix, so a
// gossip-advertised fault node is recognizable in member listings.
func (m *Mock) Name() string { return "mock:" + m.inner.Name() }

func (m *Mock) Tables() []string             { return m.inner.Tables() }
func (m *Mock) Views() []string              { return m.inner.Views() }
func (m *Mock) HasRelation(name string) bool { return m.inner.HasRelation(name) }
func (m *Mock) Exec(sql string) (int, error) { return m.inner.Exec(sql) }

// Prepare plans through the inner driver; faults fire at Execute, after
// negotiation has already priced the statement, which is where a real
// backend fails too.
func (m *Mock) Prepare(sql string) (Statement, error) {
	m.prepares.Add(1)
	inner, err := m.inner.Prepare(sql)
	if err != nil {
		return nil, err
	}
	return &mockStmt{m: m, sql: sql, inner: inner}, nil
}

type mockStmt struct {
	m     *Mock
	sql   string
	inner Statement
}

func (s *mockStmt) Hints() CostHints { return s.inner.Hints() }

func (s *mockStmt) Execute() (*Block, error) {
	m := s.m
	if m.cfg.ExecDelay > 0 {
		time.Sleep(m.cfg.ExecDelay)
	}
	if m.cfg.FailMatch == "" || strings.Contains(s.sql, m.cfg.FailMatch) {
		if n := m.failNext.Load(); n > 0 && m.failNext.CompareAndSwap(n, n-1) {
			return nil, ErrInjected
		}
	}
	blk, err := s.inner.Execute()
	if err != nil {
		return nil, err
	}
	m.execs.Add(1)
	if m.cfg.TruncateRows > 0 {
		blk.Truncate(m.cfg.TruncateRows)
	}
	return blk, nil
}
