package satlib

import (
	"errors"
	"testing"

	"repro/internal/sat"
)

// TestCorpusWellFormed pins the corpus composition: every grade present,
// with at least one SAT and one UNSAT instance somewhere, and every BEER
// snapshot nontrivially sized.
func TestCorpusWellFormed(t *testing.T) {
	insts, err := Load()
	if err != nil {
		t.Fatal(err)
	}
	byGrade := ByGrade(insts)
	for _, grade := range []string{"uf20", "uf50", "uuf50", "beer"} {
		if len(byGrade[grade]) == 0 {
			t.Errorf("grade %q has no instances", grade)
		}
	}
	sawSAT, sawUNSAT := false, false
	for _, in := range insts {
		if in.Expect {
			sawSAT = true
		} else {
			sawUNSAT = true
		}
		if len(in.CNF.Clauses) == 0 {
			t.Errorf("%s: empty formula", in.Name)
		}
	}
	if !sawSAT || !sawUNSAT {
		t.Errorf("corpus needs both answers: sawSAT=%v sawUNSAT=%v", sawSAT, sawUNSAT)
	}
}

// TestSolverGraded is the solver-regression gate: every grade's instances
// must be settled within the committed conflict budget at the committed
// pass rate (grading.json). A wrong answer fails the run outright — the
// grading only tolerates running out of budget, never unsoundness.
func TestSolverGraded(t *testing.T) {
	insts, err := Load()
	if err != nil {
		t.Fatal(err)
	}
	grading, err := Grading()
	if err != nil {
		t.Fatal(err)
	}
	for grade, group := range ByGrade(insts) {
		g := grading[grade]
		t.Run(grade, func(t *testing.T) {
			passed := 0
			var conflicts int64
			for _, in := range group {
				s := sat.New()
				in.CNF.Feed(s)
				s.SetMaxConflicts(g.MaxConflicts)
				isSat, err := s.Solve()
				conflicts += s.Statistics().Conflicts
				switch {
				case errors.Is(err, sat.ErrBudget):
					t.Logf("%s: budget of %d conflicts exhausted", in.Name, g.MaxConflicts)
				case err != nil:
					t.Fatalf("%s: %v", in.Name, err)
				case isSat != in.Expect:
					t.Fatalf("%s: solver says sat=%v, corpus says sat=%v — WRONG ANSWER", in.Name, isSat, in.Expect)
				default:
					if isSat {
						if ok, cl := in.CNF.Satisfied(s.Model()); !ok {
							t.Fatalf("%s: model violates clause %v", in.Name, cl)
						}
					}
					passed++
				}
			}
			ratio := float64(passed) / float64(len(group))
			t.Logf("%s: %d/%d within %d conflicts (total spent %d), need %.0f%%",
				grade, passed, len(group), g.MaxConflicts, conflicts, g.MinPass*100)
			if ratio < g.MinPass {
				t.Errorf("%s: pass rate %.2f below committed threshold %.2f", grade, ratio, g.MinPass)
			}
		})
	}
}

// TestDifferentialBackends runs every corpus instance, unbudgeted, through
// the in-process CDCL engine and through the recording Dimacs wrapper
// around it. Both must agree with the corpus ground truth, every SAT model
// must check out against the original clauses, and the wrapper must have
// recorded every clause it was fed: recording never changes an answer.
func TestDifferentialBackends(t *testing.T) {
	insts, err := Load()
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name string
		make func() sat.Backend
	}{
		{"cdcl", func() sat.Backend { return sat.New() }},
		{"dimacs", func() sat.Backend { return sat.NewDimacs(nil) }},
	}
	for _, bc := range cases {
		t.Run(bc.name, func(t *testing.T) {
			for _, in := range insts {
				b := bc.make()
				in.CNF.Feed(b)
				if d, ok := b.(*sat.Dimacs); ok && d.NumClauses() != len(in.CNF.Clauses) {
					t.Fatalf("%s: recorded %d clauses, fed %d", in.Name, d.NumClauses(), len(in.CNF.Clauses))
				}
				isSat, err := b.Solve()
				if err != nil {
					t.Fatalf("%s: %v", in.Name, err)
				}
				if isSat != in.Expect {
					t.Fatalf("%s: %s says sat=%v, corpus says sat=%v", in.Name, bc.name, isSat, in.Expect)
				}
				if isSat {
					if ok, cl := in.CNF.Satisfied(b.Model()); !ok {
						t.Fatalf("%s: %s model violates clause %v", in.Name, bc.name, cl)
					}
				}
			}
		})
	}
}

// TestGradingRatchetSane guards the grading file itself: thresholds must
// stay in range and must not silently drop a grade.
func TestGradingRatchetSane(t *testing.T) {
	grading, err := Grading()
	if err != nil {
		t.Fatal(err)
	}
	for grade, g := range grading {
		if g.MaxConflicts <= 0 {
			t.Errorf("%s: max_conflicts must be positive (the budget IS the regression gate)", grade)
		}
		if g.MinPass <= 0 || g.MinPass > 1 {
			t.Errorf("%s: min_pass %v outside (0,1]", grade, g.MinPass)
		}
	}
}
