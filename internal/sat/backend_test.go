package sat

import (
	"strings"
	"testing"
)

func TestSolveUnderAssumptionsBasic(t *testing.T) {
	s := New()
	x, y := s.NewVar(), s.NewVar()
	s.Add(PosLit(x), PosLit(y))

	ok, err := s.SolveUnderAssumptions(NegLit(x))
	if err != nil || !ok {
		t.Fatalf("SolveUnderAssumptions(~x) = (%v, %v), want SAT", ok, err)
	}
	if s.Value(x) || !s.Value(y) {
		t.Fatalf("model (x=%v, y=%v) violates assumption or clause", s.Value(x), s.Value(y))
	}

	// UNSAT under assumptions must not poison the solver.
	ok, err = s.SolveUnderAssumptions(NegLit(x), NegLit(y))
	if err != nil || ok {
		t.Fatalf("SolveUnderAssumptions(~x, ~y) = (%v, %v), want (false, nil)", ok, err)
	}
	ok, err = s.Solve()
	if err != nil || !ok {
		t.Fatalf("Solve after failed assumptions = (%v, %v), want SAT", ok, err)
	}
}

func TestSolveUnderAssumptionsContradictory(t *testing.T) {
	s := New()
	x := s.NewVar()
	ok, err := s.SolveUnderAssumptions(PosLit(x), NegLit(x))
	if err != nil || ok {
		t.Fatalf("contradictory assumptions = (%v, %v), want (false, nil)", ok, err)
	}
	if ok, err := s.Solve(); err != nil || !ok {
		t.Fatalf("empty formula after contradictory assumptions = (%v, %v), want SAT", ok, err)
	}
}

// TestSolveUnderAssumptionsGuards exercises the standard incremental
// pattern: clauses guarded by an activation literal are active only while
// the guard is assumed, and learned state survives across queries.
func TestSolveUnderAssumptionsGuards(t *testing.T) {
	s := New()
	g := PosLit(s.NewVar())
	// Under guard g the formula embeds PHP(5,4) — UNSAT when activated.
	pigeons, holes := 5, 4
	vars := make([][]int, pigeons)
	for p := range vars {
		vars[p] = make([]int, holes)
		for h := range vars[p] {
			vars[p][h] = s.NewVar()
		}
	}
	for p := 0; p < pigeons; p++ {
		lits := []Lit{g.Not()}
		for h := 0; h < holes; h++ {
			lits = append(lits, PosLit(vars[p][h]))
		}
		s.Add(lits...)
	}
	for h := 0; h < holes; h++ {
		for p1 := 0; p1 < pigeons; p1++ {
			for p2 := p1 + 1; p2 < pigeons; p2++ {
				s.Add(g.Not(), NegLit(vars[p1][h]), NegLit(vars[p2][h]))
			}
		}
	}

	if ok, err := s.SolveUnderAssumptions(g); err != nil || ok {
		t.Fatalf("guarded PHP(5,4) under g = (%v, %v), want (false, nil)", ok, err)
	}
	if s.Learned() == 0 && s.Stats.Conflicts == 0 {
		t.Fatal("refuting guarded PHP produced no conflicts at all")
	}
	// Without the assumption the guard is free: SAT (solver sets g false).
	if ok, err := s.Solve(); err != nil || !ok {
		t.Fatalf("guarded PHP without assumption = (%v, %v), want SAT", ok, err)
	}
	if s.Value(g.variable()) {
		t.Fatal("model satisfies guarded UNSAT core with the guard asserted")
	}
	// Permanently disabling the guard keeps everything satisfiable.
	s.Add(g.Not())
	if ok, err := s.Solve(); err != nil || !ok {
		t.Fatalf("after disabling guard = (%v, %v), want SAT", ok, err)
	}
}

// TestSolveUnderAssumptionsMatchesUnitClauses cross-checks assumption
// solving against the ground truth of adding the assumptions as unit
// clauses to a fresh solver, over a deterministic batch of small formulas.
func TestSolveUnderAssumptionsMatchesUnitClauses(t *testing.T) {
	rng := uint64(0x9E3779B97F4A7C15)
	next := func(n int) int {
		rng ^= rng << 13
		rng ^= rng >> 7
		rng ^= rng << 17
		return int(rng % uint64(n))
	}
	for trial := 0; trial < 200; trial++ {
		nvars := 3 + next(6)
		var clauses [][]Lit
		for c := 0; c < 2+next(12); c++ {
			var cl []Lit
			for l := 0; l < 1+next(3); l++ {
				cl = append(cl, mkLit(next(nvars), next(2) == 1))
			}
			clauses = append(clauses, cl)
		}
		var assumps []Lit
		for a := 0; a < 1+next(2); a++ {
			assumps = append(assumps, mkLit(next(nvars), next(2) == 1))
		}

		inc := New()
		for i := 0; i < nvars; i++ {
			inc.NewVar()
		}
		for _, cl := range clauses {
			inc.Add(cl...)
		}
		gotInc, err := inc.SolveUnderAssumptions(assumps...)
		if err != nil {
			t.Fatal(err)
		}

		ref := New()
		for i := 0; i < nvars; i++ {
			ref.NewVar()
		}
		for _, cl := range clauses {
			ref.Add(cl...)
		}
		for _, a := range assumps {
			ref.Add(a)
		}
		gotRef, err := ref.Solve()
		if err != nil {
			t.Fatal(err)
		}
		if gotInc != gotRef {
			t.Fatalf("trial %d: assumptions=%v incremental=%v, unit-clause reference=%v\nclauses: %v",
				trial, assumps, gotInc, gotRef, clauses)
		}
		// The incremental query must not have changed the formula.
		plain, err := inc.Solve()
		if err != nil {
			t.Fatal(err)
		}
		refPlain := New()
		for i := 0; i < nvars; i++ {
			refPlain.NewVar()
		}
		for _, cl := range clauses {
			refPlain.Add(cl...)
		}
		wantPlain, err := refPlain.Solve()
		if err != nil {
			t.Fatal(err)
		}
		if plain != wantPlain {
			t.Fatalf("trial %d: formula satisfiability changed after assumption query (%v vs %v)",
				trial, plain, wantPlain)
		}
	}
}

func TestDimacsBackendDelegates(t *testing.T) {
	d := NewDimacs(nil)
	x, y := d.NewVar(), d.NewVar()
	xor := ReifyXor2(d, PosLit(x), PosLit(y))
	d.Add(xor) // force x XOR y
	ok, err := d.Solve()
	if err != nil || !ok {
		t.Fatalf("Solve = (%v, %v), want SAT", ok, err)
	}
	if d.Value(x) == d.Value(y) {
		t.Fatalf("model (x=%v, y=%v) violates x XOR y", d.Value(x), d.Value(y))
	}
	if ok, err := d.SolveUnderAssumptions(PosLit(x), PosLit(y)); err != nil || ok {
		t.Fatalf("x=y=true under XOR = (%v, %v), want (false, nil)", ok, err)
	}
}

func TestDimacsExport(t *testing.T) {
	d := NewDimacs(nil)
	x, y := d.NewVar(), d.NewVar()
	d.Add(PosLit(x), NegLit(y))
	d.Add(NegLit(x))
	if _, err := d.SolveUnderAssumptions(NegLit(y)); err != nil {
		t.Fatal(err)
	}
	var sb strings.Builder
	if err := d.WriteDIMACS(&sb); err != nil {
		t.Fatal(err)
	}
	got := sb.String()
	want := "p cnf 2 2\nc assumptions: -2\n1 -2 0\n-1 0\n"
	if got != want {
		t.Fatalf("WriteDIMACS:\n%s\nwant:\n%s", got, want)
	}
}
