package sat

import (
	"io"
	"time"
)

// Backend is the pluggable solving surface behind BEER's constraint layer.
// It is the contract internal/core's incremental solve sessions are written
// against: variables and clauses accumulate monotonically, learned state
// survives across solve calls (that is the whole point of keeping one
// backend alive through the uniqueness blocking-clause loop and across
// pattern-increment re-solves), and SolveUnderAssumptions answers
// satisfiability under temporary assumptions without touching the clause
// database.
//
// *Solver (the in-process CDCL engine) is the default implementation;
// Dimacs wraps any Backend and additionally records the CNF for export to
// external solvers. Backends are single-goroutine, like Solver.
type Backend interface {
	// NewVar creates a fresh variable and returns its index.
	NewVar() int
	// NumVars returns the number of variables created so far.
	NumVars() int
	// NumClauses returns the number of problem (non-learnt) clauses.
	NumClauses() int
	// Add adds a clause. It returns false when the backend is already known
	// to be unsatisfiable (now or previously).
	Add(lits ...Lit) bool
	// Solve searches for a satisfying assignment: (true, nil) when one
	// exists, (false, nil) on UNSAT, (false, ErrBudget/ErrInterrupted)
	// when the search was cut short.
	Solve() (bool, error)
	// SolveUnderAssumptions is Solve under temporary assumed literals; a
	// (false, nil) answer means unsatisfiable under the assumptions, with
	// the clause database untouched and later calls unaffected.
	SolveUnderAssumptions(assumptions ...Lit) (bool, error)
	// FailedAssumptions returns the failed-assumption core of the most
	// recent (false, nil) answer under assumptions: a subset of that
	// call's assumptions already sufficient for unsatisfiability (failing
	// assumption first; sound, not necessarily minimal). Empty after any
	// other outcome.
	FailedAssumptions() []Lit
	// Value returns variable v's value in the most recent model.
	Value(v int) bool
	// Model returns a copy of the most recent satisfying assignment.
	Model() []bool
	// Learned reports how many learnt clauses are currently alive — the
	// state incremental callers preserve by reusing one backend.
	Learned() int64
	// Interrupt installs a hook polled during search; when it returns true
	// the in-progress solve unwinds and returns ErrInterrupted. Nil removes
	// the hook.
	Interrupt(fn func() bool)
	// SetMaxConflicts bounds effort per solve call in conflicts (0 =
	// unlimited; the solve returns ErrBudget when exceeded).
	SetMaxConflicts(n int64)
	// SetTimeout bounds each solve call in wall-clock time (0 =
	// unlimited; the solve returns ErrTimeout when exceeded and the
	// backend stays reusable — HARP-style discard semantics are the
	// caller's to apply).
	SetTimeout(d time.Duration)
	// Statistics returns cumulative solver counters.
	Statistics() Stats
}

// Compile-time checks: both backends satisfy the interface, and the
// in-process solver satisfies the CNF helpers' Builder surface.
var (
	_ Backend = (*Solver)(nil)
	_ Backend = (*Dimacs)(nil)
	_ Builder = (*Solver)(nil)
)

// Dimacs is a recording Backend: it mirrors every variable and clause into
// a DIMACS CNF buffer while delegating the actual solving to an inner
// backend (the in-process CDCL engine by default). WriteDIMACS exports the
// accumulated formula in the standard "p cnf" format every external SAT
// solver accepts, which makes any BEER constraint system — a profile's
// full §5.3 encoding included — portable to Z3, kissat, CaDiCaL and
// friends without touching the encoding layer.
type Dimacs struct {
	inner   Backend
	clauses [][]Lit
	// lastAssumptions records the most recent SolveUnderAssumptions call;
	// WriteDIMACS emits them as a comment (DIMACS has no assumption
	// syntax), so an exported incremental query stays reproducible.
	lastAssumptions []Lit
}

// NewDimacs returns a recording backend over inner; a nil inner selects a
// fresh in-process CDCL solver.
func NewDimacs(inner Backend) *Dimacs {
	if inner == nil {
		inner = New()
	}
	return &Dimacs{inner: inner}
}

// NewVar implements Backend.
func (d *Dimacs) NewVar() int { return d.inner.NewVar() }

// NumVars implements Backend.
func (d *Dimacs) NumVars() int { return d.inner.NumVars() }

// NumClauses returns the number of recorded clauses. Unlike the in-process
// solver — which drops tautologies and root-satisfied clauses on Add —
// the recording backend keeps every clause it was handed, so the export is
// faithful to what the encoder produced.
func (d *Dimacs) NumClauses() int { return len(d.clauses) }

// Add implements Backend: record, then delegate.
func (d *Dimacs) Add(lits ...Lit) bool {
	d.clauses = append(d.clauses, append([]Lit(nil), lits...))
	return d.inner.Add(lits...)
}

// Solve implements Backend.
func (d *Dimacs) Solve() (bool, error) {
	d.lastAssumptions = nil
	return d.inner.Solve()
}

// SolveUnderAssumptions implements Backend.
func (d *Dimacs) SolveUnderAssumptions(assumptions ...Lit) (bool, error) {
	d.lastAssumptions = append(d.lastAssumptions[:0], assumptions...)
	return d.inner.SolveUnderAssumptions(assumptions...)
}

// FailedAssumptions implements Backend.
func (d *Dimacs) FailedAssumptions() []Lit { return d.inner.FailedAssumptions() }

// Value implements Backend.
func (d *Dimacs) Value(v int) bool { return d.inner.Value(v) }

// Model implements Backend.
func (d *Dimacs) Model() []bool { return d.inner.Model() }

// Learned implements Backend.
func (d *Dimacs) Learned() int64 { return d.inner.Learned() }

// Interrupt implements Backend.
func (d *Dimacs) Interrupt(fn func() bool) { d.inner.Interrupt(fn) }

// SetMaxConflicts implements Backend.
func (d *Dimacs) SetMaxConflicts(n int64) { d.inner.SetMaxConflicts(n) }

// SetTimeout implements Backend.
func (d *Dimacs) SetTimeout(t time.Duration) { d.inner.SetTimeout(t) }

// Statistics implements Backend.
func (d *Dimacs) Statistics() Stats { return d.inner.Statistics() }

// dimacsLit renders a literal in DIMACS convention: 1-based variable
// numbers, negative for negated.
func dimacsLit(l Lit) int {
	v := l.variable() + 1
	if l.sign() {
		return -v
	}
	return v
}

// Snapshot returns the recorded formula as a CNF value: the live variable
// count, a shallow view of the recorded clauses (valid until the next Add),
// and the most recent solve's assumptions. This is the export surface the
// corpus generator and WriteDIMACS share.
func (d *Dimacs) Snapshot() *CNF {
	return &CNF{
		Vars:        d.NumVars(),
		Clauses:     d.clauses,
		Assumptions: d.lastAssumptions,
	}
}

// WriteDIMACS writes the recorded formula in DIMACS CNF format. When the
// last solve ran under assumptions, they are emitted as a "c assumptions:"
// comment so the exact incremental query can be reproduced externally (by
// appending them as unit clauses). The "p cnf" header is recounted from
// the live formula on every call — vars and clauses added after an earlier
// WriteDIMACS are reflected, never a cached count (the header additionally
// covers any clause literal beyond the inner backend's variable count, so
// the export always parses back to a formula at least as wide as its
// widest clause).
func (d *Dimacs) WriteDIMACS(w io.Writer) error {
	return d.Snapshot().Write(w)
}
