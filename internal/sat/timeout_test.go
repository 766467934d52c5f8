package sat

import (
	"errors"
	"testing"
	"time"
)

// TestTimeoutStopsSearch: a hard pigeonhole instance under a tiny wall-clock
// budget must return ErrTimeout instead of running to an answer, and the
// solver must stay reusable for the next sample — the HARP discard
// semantics: a timed-out solve drops that sample, the loop continues on the
// same solver.
func TestTimeoutStopsSearch(t *testing.T) {
	s := New()
	php(s, 8, 7) // large enough that no machine proves UNSAT in 1ns
	s.SetTimeout(time.Nanosecond)
	ok, err := s.Solve()
	if ok || !errors.Is(err, ErrTimeout) {
		t.Fatalf("Solve = (%v, %v), want (false, ErrTimeout)", ok, err)
	}
	// Discard semantics: clear the budget and the same solver answers.
	s.SetTimeout(0)
	ok, err = s.Solve()
	if err != nil {
		t.Fatal(err)
	}
	if ok {
		t.Fatal("PHP(8,7) reported SAT")
	}
}

// TestTimeoutPolledOnDecisions: a conflict-free satisfiable formula only
// observes the deadline through the decision-path poll, mirroring the
// interrupt-hook coverage.
func TestTimeoutPolledOnDecisions(t *testing.T) {
	s := New()
	for i := 0; i < 100000; i++ {
		s.NewVar()
	}
	s.Add(NegLit(0), NegLit(1))
	s.SetTimeout(time.Nanosecond)
	ok, err := s.Solve()
	if ok || !errors.Is(err, ErrTimeout) {
		t.Fatalf("Solve = (%v, %v), want (false, ErrTimeout) via the decision-path poll", ok, err)
	}
	s.SetTimeout(0)
	if ok, err := s.Solve(); err != nil || !ok {
		t.Fatalf("post-timeout Solve = (%v, %v), want SAT", ok, err)
	}
}

// TestTimeoutGenerousBudgetSolves: a budget the solve comfortably fits in
// must not perturb the answer.
func TestTimeoutGenerousBudgetSolves(t *testing.T) {
	s := New()
	php(s, 5, 4)
	s.SetTimeout(time.Minute)
	ok, err := s.Solve()
	if err != nil {
		t.Fatal(err)
	}
	if ok {
		t.Fatal("PHP(5,4) reported SAT")
	}
}

// TestFailedAssumptionsCore: guard three constraint groups behind
// assumption literals where only one pairing is contradictory; the failed
// core must contain exactly the contradictory guards and never the
// irrelevant one.
func TestFailedAssumptionsCore(t *testing.T) {
	s := New()
	x := s.NewVar()
	y := s.NewVar()
	gA := s.NewVar() // guards x = true
	gB := s.NewVar() // guards x = false
	gC := s.NewVar() // guards y = true (irrelevant)
	s.Add(NegLit(gA), PosLit(x))
	s.Add(NegLit(gB), NegLit(x))
	s.Add(NegLit(gC), PosLit(y))

	ok, err := s.SolveUnderAssumptions(PosLit(gC), PosLit(gA), PosLit(gB))
	if ok || err != nil {
		t.Fatalf("SolveUnderAssumptions = (%v, %v), want (false, nil)", ok, err)
	}
	core := s.FailedAssumptions()
	if len(core) == 0 {
		t.Fatal("empty failed-assumption core on UNSAT-under-assumptions")
	}
	inCore := map[Lit]bool{}
	for _, l := range core {
		inCore[l] = true
	}
	if !inCore[PosLit(gA)] || !inCore[PosLit(gB)] {
		t.Fatalf("core %v missing a contradictory guard (want gA=%v and gB=%v)", core, PosLit(gA), PosLit(gB))
	}
	if inCore[PosLit(gC)] {
		t.Fatalf("core %v includes the irrelevant guard gC=%v", core, PosLit(gC))
	}

	// Soundness: re-solving under just the reported core must stay UNSAT.
	ok, err = s.SolveUnderAssumptions(core...)
	if ok || err != nil {
		t.Fatalf("re-solve under core %v = (%v, %v), want (false, nil)", core, ok, err)
	}

	// And after a SAT answer the core must be empty again.
	if ok, err := s.SolveUnderAssumptions(PosLit(gA), PosLit(gC)); !ok || err != nil {
		t.Fatalf("SolveUnderAssumptions(gA,gC) = (%v, %v), want SAT", ok, err)
	}
	if got := s.FailedAssumptions(); len(got) != 0 {
		t.Fatalf("FailedAssumptions after SAT = %v, want empty", got)
	}
}

// TestFailedAssumptionsDeepCore: the failing assumption is forced false
// only through a propagation chain, so the core requires the transitive
// reason-clause walk (not just the directly conflicting pair).
func TestFailedAssumptionsDeepCore(t *testing.T) {
	s := New()
	const n = 6
	v := make([]int, n)
	for i := range v {
		v[i] = s.NewVar()
	}
	// Implication chain v0 -> v1 -> ... -> v5.
	for i := 0; i+1 < n; i++ {
		s.Add(NegLit(v[i]), PosLit(v[i+1]))
	}
	free := s.NewVar() // unrelated assumption
	ok, err := s.SolveUnderAssumptions(PosLit(free), PosLit(v[0]), NegLit(v[n-1]))
	if ok || err != nil {
		t.Fatalf("SolveUnderAssumptions = (%v, %v), want (false, nil)", ok, err)
	}
	core := s.FailedAssumptions()
	inCore := map[Lit]bool{}
	for _, l := range core {
		inCore[l] = true
	}
	if !inCore[PosLit(v[0])] || !inCore[NegLit(v[n-1])] {
		t.Fatalf("core %v must contain both chain endpoints", core)
	}
	if inCore[PosLit(free)] {
		t.Fatalf("core %v includes the unrelated assumption", core)
	}
	if ok, err := s.SolveUnderAssumptions(core...); ok || err != nil {
		t.Fatalf("re-solve under core %v = (%v, %v), want (false, nil)", core, ok, err)
	}
}
