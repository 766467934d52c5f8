package sat

import (
	"math/rand/v2"
	"testing"
)

func mustSolve(t *testing.T, s *Solver) bool {
	t.Helper()
	ok, err := s.Solve()
	if err != nil {
		t.Fatalf("Solve: %v", err)
	}
	return ok
}

func TestTrivialSat(t *testing.T) {
	s := New()
	a := PosLit(s.NewVar())
	b := PosLit(s.NewVar())
	s.AddClause(a, b)
	s.AddClause(a.Not())
	if !mustSolve(t, s) {
		t.Fatal("expected SAT")
	}
	if s.ValueLit(a) || !s.ValueLit(b) {
		t.Fatalf("model a=%v b=%v, want a=false b=true", s.ValueLit(a), s.ValueLit(b))
	}
}

func TestTrivialUnsat(t *testing.T) {
	s := New()
	a := PosLit(s.NewVar())
	s.AddClause(a)
	s.AddClause(a.Not())
	if mustSolve(t, s) {
		t.Fatal("expected UNSAT")
	}
	// Solver stays UNSAT afterwards.
	if s.AddClause(a) {
		t.Fatal("AddClause after UNSAT should report false")
	}
}

func TestEmptyClauseIsUnsat(t *testing.T) {
	s := New()
	s.NewVar()
	if s.AddClause() {
		t.Fatal("empty clause must make the formula UNSAT")
	}
	if mustSolve(t, s) {
		t.Fatal("expected UNSAT")
	}
}

func TestTautologyIgnored(t *testing.T) {
	s := New()
	a := PosLit(s.NewVar())
	if !s.AddClause(a, a.Not()) {
		t.Fatal("tautology should be accepted")
	}
	if s.NumClauses() != 0 {
		t.Fatal("tautology should not be stored")
	}
	if !mustSolve(t, s) {
		t.Fatal("expected SAT")
	}
}

func TestUnitPropagationChain(t *testing.T) {
	// x0; x0->x1; x1->x2; ... x9 must all become true.
	s := New()
	n := 10
	lits := make([]Lit, n)
	for i := range lits {
		lits[i] = PosLit(s.NewVar())
	}
	s.AddClause(lits[0])
	for i := 0; i+1 < n; i++ {
		s.Implies(lits[i], lits[i+1])
	}
	if !mustSolve(t, s) {
		t.Fatal("expected SAT")
	}
	for i, l := range lits {
		if !s.ValueLit(l) {
			t.Fatalf("x%d should be forced true", i)
		}
	}
}

// pigeonhole builds the classic PHP(p, h) instance: p pigeons into h holes,
// one pigeon per hole. UNSAT whenever p > h.
func pigeonhole(p, h int) *Solver {
	s := New()
	x := make([][]Lit, p)
	for i := range x {
		x[i] = make([]Lit, h)
		for j := range x[i] {
			x[i][j] = PosLit(s.NewVar())
		}
	}
	for i := 0; i < p; i++ {
		s.AddClause(x[i]...) // every pigeon somewhere
	}
	for j := 0; j < h; j++ {
		for i1 := 0; i1 < p; i1++ {
			for i2 := i1 + 1; i2 < p; i2++ {
				s.AddClause(x[i1][j].Not(), x[i2][j].Not())
			}
		}
	}
	return s
}

func TestPigeonhole(t *testing.T) {
	if mustSolve(t, pigeonhole(5, 4)) {
		t.Fatal("PHP(5,4) must be UNSAT")
	}
	if !mustSolve(t, pigeonhole(4, 4)) {
		t.Fatal("PHP(4,4) must be SAT")
	}
	if mustSolve(t, pigeonhole(7, 6)) {
		t.Fatal("PHP(7,6) must be UNSAT")
	}
}

// bruteForceSat exhaustively checks a CNF over n variables.
func bruteForceSat(n int, cnf [][]Lit) (bool, int) {
	count := 0
	sat := false
	for m := 0; m < 1<<uint(n); m++ {
		good := true
		for _, cl := range cnf {
			clauseOK := false
			for _, l := range cl {
				val := m>>uint(l.Var())&1 == 1
				if val != l.Sign() {
					clauseOK = true
					break
				}
			}
			if !clauseOK {
				good = false
				break
			}
		}
		if good {
			sat = true
			count++
		}
	}
	return sat, count
}

// TestRandomCNFAgainstBruteForce cross-checks the solver on hundreds of small
// random formulas, including both SAT/UNSAT answers and full model counts via
// enumeration.
func TestRandomCNFAgainstBruteForce(t *testing.T) {
	rng := rand.New(rand.NewPCG(42, 43))
	for trial := 0; trial < 400; trial++ {
		n := 3 + rng.IntN(10)
		nc := 2 + rng.IntN(5*n)
		cnf := make([][]Lit, nc)
		for i := range cnf {
			width := 1 + rng.IntN(3)
			cl := make([]Lit, width)
			for j := range cl {
				cl[j] = MkLit(rng.IntN(n), rng.IntN(2) == 1)
			}
			cnf[i] = cl
		}
		wantSat, wantCount := bruteForceSat(n, cnf)

		s := New()
		for i := 0; i < n; i++ {
			s.NewVar()
		}
		for _, cl := range cnf {
			s.AddClause(cl...)
		}
		gotSat := mustSolve(t, s)
		if gotSat != wantSat {
			t.Fatalf("trial %d: solver says %v, brute force says %v", trial, gotSat, wantSat)
		}
		if !gotSat {
			continue
		}
		// Verify the model actually satisfies the formula.
		for ci, cl := range cnf {
			ok := false
			for _, l := range cl {
				if s.ValueLit(l) {
					ok = true
					break
				}
			}
			if !ok {
				t.Fatalf("trial %d: model violates clause %d", trial, ci)
			}
		}
		// Count all models by enumeration and compare.
		s2 := New()
		vars := make([]int, n)
		for i := 0; i < n; i++ {
			vars[i] = s2.NewVar()
		}
		for _, cl := range cnf {
			s2.AddClause(cl...)
		}
		gotCount, err := s2.EnumerateModels(vars, 0, nil)
		if err != nil {
			t.Fatal(err)
		}
		if gotCount != wantCount {
			t.Fatalf("trial %d: enumeration found %d models, brute force %d", trial, gotCount, wantCount)
		}
	}
}

func TestXorConstraints(t *testing.T) {
	rng := rand.New(rand.NewPCG(7, 8))
	for trial := 0; trial < 100; trial++ {
		n := 2 + rng.IntN(8)
		s := New()
		lits := make([]Lit, n)
		vars := make([]int, n)
		for i := range lits {
			vars[i] = s.NewVar()
			lits[i] = PosLit(vars[i])
		}
		rhs := rng.IntN(2) == 1
		s.AddXor(lits, rhs)
		count, err := s.EnumerateModels(vars, 0, func(m []bool) bool {
			parity := false
			for _, b := range m {
				parity = parity != b
			}
			if parity != rhs {
				t.Fatalf("model parity %v, want %v", parity, rhs)
			}
			return true
		})
		if err != nil {
			t.Fatal(err)
		}
		if count != 1<<uint(n-1) {
			t.Fatalf("n=%d: %d parity models, want %d", n, count, 1<<uint(n-1))
		}
	}
}

func TestAddXorEmpty(t *testing.T) {
	s := New()
	s.AddXor(nil, false)
	if !mustSolve(t, s) {
		t.Fatal("XOR() == false should be SAT")
	}
	s2 := New()
	s2.AddXor(nil, true)
	if mustSolve(t, s2) {
		t.Fatal("XOR() == true should be UNSAT")
	}
}

func TestReifyAndOr(t *testing.T) {
	// Enumerate every input assignment and check both gates agree with the
	// Boolean functions they reify.
	s := New()
	a, b, c := PosLit(s.NewVar()), PosLit(s.NewVar()), PosLit(s.NewVar())
	and := s.ReifyAnd(a, b, c)
	or := s.ReifyOr(a, b, c)
	vars := []int{a.Var(), b.Var(), c.Var(), and.Var(), or.Var()}
	count, err := s.EnumerateModels(vars, 0, func(m []bool) bool {
		wantAnd := m[0] && m[1] && m[2]
		wantOr := m[0] || m[1] || m[2]
		gotAnd := m[3] != and.Sign()
		gotOr := m[4] != or.Sign()
		if gotAnd != wantAnd || gotOr != wantOr {
			t.Fatalf("inputs %v: and=%v (want %v), or=%v (want %v)",
				m[:3], gotAnd, wantAnd, gotOr, wantOr)
		}
		return true
	})
	if err != nil {
		t.Fatal(err)
	}
	if count != 8 {
		t.Fatalf("enumerated %d gate models, want 8", count)
	}

	// Fresh solver: forcing the AND gate true forces every input.
	s2 := New()
	a2, b2, c2 := PosLit(s2.NewVar()), PosLit(s2.NewVar()), PosLit(s2.NewVar())
	and2 := s2.ReifyAnd(a2, b2, c2)
	or2 := s2.ReifyOr(a2, b2, c2)
	s2.AddClause(and2)
	if !mustSolve(t, s2) {
		t.Fatal("AND forced true should be SAT")
	}
	if !(s2.ValueLit(a2) && s2.ValueLit(b2) && s2.ValueLit(c2)) {
		t.Fatal("AND true must force all inputs true")
	}
	s2.AddClause(or2.Not())
	if mustSolve(t, s2) {
		t.Fatal("AND(a,b,c) and NOT OR(a,b,c) together must be UNSAT")
	}
}

func TestExactlyOne(t *testing.T) {
	s := New()
	n := 6
	lits := make([]Lit, n)
	vars := make([]int, n)
	for i := range lits {
		vars[i] = s.NewVar()
		lits[i] = PosLit(vars[i])
	}
	s.ExactlyOne(lits...)
	count, err := s.EnumerateModels(vars, 0, func(m []bool) bool {
		ones := 0
		for _, b := range m {
			if b {
				ones++
			}
		}
		if ones != 1 {
			t.Fatalf("model has %d true literals, want 1", ones)
		}
		return true
	})
	if err != nil {
		t.Fatal(err)
	}
	if count != n {
		t.Fatalf("ExactlyOne over %d vars has %d models, want %d", n, count, n)
	}
}

func TestIncrementalSolving(t *testing.T) {
	// Solve, then add a clause contradicting the found model, re-solve.
	s := New()
	a, b := PosLit(s.NewVar()), PosLit(s.NewVar())
	s.AddClause(a, b)
	if !mustSolve(t, s) {
		t.Fatal("expected SAT")
	}
	s.AddClause(MkLit(a.Var(), s.Value(a.Var())), MkLit(b.Var(), s.Value(b.Var())))
	if !mustSolve(t, s) {
		t.Fatal("one blocked model of three should leave SAT")
	}
}

func TestConflictBudget(t *testing.T) {
	s := pigeonhole(8, 7)
	s.MaxConflicts = 5
	_, err := s.Solve()
	if err != ErrBudget {
		t.Fatalf("err = %v, want ErrBudget", err)
	}
	// Raising the budget should allow completion.
	s.MaxConflicts = 0
	if mustSolve(t, s) {
		t.Fatal("PHP(8,7) must be UNSAT")
	}
}

func TestLuby(t *testing.T) {
	want := []int64{1, 1, 2, 1, 1, 2, 4, 1, 1, 2, 1, 1, 2, 4, 8}
	for i, w := range want {
		if got := luby(int64(i)); got != w {
			t.Fatalf("luby(%d) = %d, want %d", i, got, w)
		}
	}
}

func TestLitBasics(t *testing.T) {
	l := MkLit(5, true)
	if l.Var() != 5 || !l.Sign() || l.Not().Sign() || l.Not().Var() != 5 {
		t.Fatal("literal encoding broken")
	}
	if l.String() != "~x5" || l.Not().String() != "x5" {
		t.Fatalf("String = %q / %q", l.String(), l.Not().String())
	}
}

// A larger structured instance to exercise restarts and clause deletion:
// graph coloring on a ring with a chord, 3 colors. Ring of odd length is
// 3-colorable; forcing 2 colors makes it UNSAT.
func TestGraphColoring(t *testing.T) {
	n := 51
	edges := make([][2]int, 0, n+1)
	for i := 0; i < n; i++ {
		edges = append(edges, [2]int{i, (i + 1) % n})
	}
	edges = append(edges, [2]int{0, n / 2})

	build := func(colors int) *Solver {
		s := New()
		vars := make([][]Lit, n)
		for i := range vars {
			vars[i] = make([]Lit, colors)
			for c := range vars[i] {
				vars[i][c] = PosLit(s.NewVar())
			}
			s.ExactlyOne(vars[i]...)
		}
		for _, e := range edges {
			for c := 0; c < colors; c++ {
				s.AddClause(vars[e[0]][c].Not(), vars[e[1]][c].Not())
			}
		}
		return s
	}
	if !mustSolve(t, build(3)) {
		t.Fatal("odd ring + chord should be 3-colorable")
	}
	if mustSolve(t, build(2)) {
		t.Fatal("odd ring is not 2-colorable")
	}
}

func BenchmarkSolvePigeonhole87(b *testing.B) {
	for i := 0; i < b.N; i++ {
		s := pigeonhole(8, 7)
		if ok, err := s.Solve(); err != nil || ok {
			b.Fatal("PHP(8,7) must be UNSAT")
		}
	}
}

func TestSetPolaritySteersModel(t *testing.T) {
	// With no constraints, the solver assigns each variable its preferred
	// polarity.
	s := New()
	vars := make([]int, 12)
	want := make([]bool, 12)
	for i := range vars {
		vars[i] = s.NewVar()
		want[i] = i%3 == 0
		s.SetPolarity(vars[i], want[i])
	}
	// A vacuous clause so the formula is non-empty.
	s.AddClause(PosLit(vars[0]), NegLit(vars[0]), PosLit(vars[1]))
	if !mustSolve(t, s) {
		t.Fatal("expected SAT")
	}
	for i, v := range vars {
		if s.Value(v) != want[i] {
			t.Fatalf("var %d = %v, want preferred %v", i, s.Value(v), want[i])
		}
	}
}

func TestDecisionOrderOrdersDecisions(t *testing.T) {
	// x0 and x1 are complementary under the clause set; whichever is decided
	// first wins. Put x1 first and prefer true: the model must have x1=true.
	s := New()
	x0, x1 := s.NewVar(), s.NewVar()
	s.AddClause(PosLit(x0), PosLit(x1))
	s.AddClause(NegLit(x0), NegLit(x1))
	s.SetPolarity(x0, true)
	s.SetPolarity(x1, true)
	s.SetDecisionOrder([]int{x1})
	if !mustSolve(t, s) {
		t.Fatal("expected SAT")
	}
	if !s.Value(x1) || s.Value(x0) {
		t.Fatalf("model x0=%v x1=%v; x1 should be decided first as true",
			s.Value(x0), s.Value(x1))
	}
}
