package sat

// Fuzz targets for the solver core and the CNF builder, differential-tested
// against a brute-force model enumerator. CI runs them as a short smoke
// (`go test -fuzz FuzzSolver -fuzztime ...`); the committed seed corpus
// lives under testdata/fuzz.

import (
	"errors"
	"testing"
)

// fuzzFormula decodes fuzz bytes into a small CNF: the first byte fixes the
// variable count (3..12), the rest stream literals, with 0xFF closing the
// current clause. Sizes stay small enough that brute force is exact.
func fuzzFormula(data []byte) (nvars int, clauses [][]Lit) {
	if len(data) == 0 {
		return 3, nil
	}
	nvars = 3 + int(data[0]%10)
	var cur []Lit
	for _, b := range data[1:] {
		if b == 0xFF {
			if len(cur) > 0 {
				clauses = append(clauses, cur)
				cur = nil
			}
			continue
		}
		v := int(b) % (2 * nvars)
		cur = append(cur, mkLit(v/2, v%2 == 1))
		if len(cur) == 3 {
			clauses = append(clauses, cur)
			cur = nil
		}
		if len(clauses) >= 64 {
			break
		}
	}
	if len(cur) > 0 {
		clauses = append(clauses, cur)
	}
	return nvars, clauses
}

// bruteSat reports whether some assignment over nvars variables satisfies
// every clause and every extra unit literal.
func bruteSat(nvars int, clauses [][]Lit, units []Lit) bool {
	for m := 0; m < 1<<uint(nvars); m++ {
		val := func(l Lit) bool { return (m>>uint(l.variable()))&1 == 1 != l.sign() }
		ok := true
		for _, u := range units {
			if !val(u) {
				ok = false
				break
			}
		}
		for _, cl := range clauses {
			if !ok {
				break
			}
			sat := false
			for _, l := range cl {
				if val(l) {
					sat = true
					break
				}
			}
			ok = ok && sat
		}
		if ok {
			return true
		}
	}
	return false
}

// FuzzSolver differential-tests the CDCL engine (directly and through the
// DIMACS recording backend) against brute force, including assumption
// queries and their no-side-effect contract.
func FuzzSolver(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0x05, 1, 2, 3, 0xFF, 4, 5})
	f.Add([]byte{0x00, 0, 1}) // x0 OR ~x0 style tautologies
	f.Add([]byte{0x09, 0, 0xFF, 1, 0xFF, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11})
	f.Fuzz(func(t *testing.T, data []byte) {
		nvars, clauses := fuzzFormula(data)

		s := NewDimacs(New())
		for i := 0; i < nvars; i++ {
			s.NewVar()
		}
		for _, cl := range clauses {
			s.Add(cl...)
		}
		got, err := s.Solve()
		if err != nil {
			t.Fatalf("unbudgeted solve errored: %v", err)
		}
		want := bruteSat(nvars, clauses, nil)
		if got != want {
			t.Fatalf("solver=%v brute=%v for nvars=%d clauses=%v", got, want, nvars, clauses)
		}
		if got {
			// The model must actually satisfy every clause.
			for _, cl := range clauses {
				sat := false
				for _, l := range cl {
					if s.Value(l.variable()) != l.sign() {
						sat = true
						break
					}
				}
				if !sat {
					t.Fatalf("model violates clause %v", cl)
				}
			}
		}

		// Assumption query: equivalent to unit clauses, without side effects.
		var assumps []Lit
		if len(data) > 2 {
			assumps = append(assumps, mkLit(int(data[1])%nvars, data[2]%2 == 1))
		}
		if len(data) > 4 {
			assumps = append(assumps, mkLit(int(data[3])%nvars, data[4]%2 == 1))
		}
		gotA, err := s.SolveUnderAssumptions(assumps...)
		if err != nil {
			t.Fatalf("assumption solve errored: %v", err)
		}
		if wantA := bruteSat(nvars, clauses, assumps); gotA != wantA {
			t.Fatalf("under %v: solver=%v brute=%v (clauses=%v)", assumps, gotA, wantA, clauses)
		}
		if again, err := s.Solve(); err != nil || again != want {
			t.Fatalf("assumption query changed the formula: resolve=(%v, %v), want (%v, nil)", again, err, want)
		}
	})
}

// FuzzCNFBuilder drives the Tseitin gadget builders (XOR/AND/OR chains over
// fuzz-chosen inputs with fuzz-forced input values) and checks every gadget
// output against its definition in the produced model.
func FuzzCNFBuilder(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{4, 0b1010, 0, 1, 2, 3})
	f.Add([]byte{7, 0b0110011, 6, 5, 4, 3, 2, 1, 0, 9, 8})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 2 {
			return
		}
		nvars := 2 + int(data[0]%7)
		s := New()
		vals := make([]bool, nvars)
		for i := 0; i < nvars; i++ {
			s.NewVar()
			vals[i] = (data[1]>>uint(i%8))&1 == 1
		}
		// Gadgets over fuzz-chosen input literals.
		type gadget struct {
			out  Lit
			op   byte
			args []Lit
		}
		var gadgets []gadget
		rest := data[2:]
		for len(rest) >= 2 && len(gadgets) < 16 {
			op := rest[0] % 3
			width := 1 + int(rest[1]%3)
			rest = rest[2:]
			var args []Lit
			for i := 0; i < width && i < len(rest); i++ {
				v := int(rest[i]) % (2 * nvars)
				args = append(args, mkLit(v/2, v%2 == 1))
			}
			if len(args) < width {
				break
			}
			rest = rest[width:]
			var out Lit
			switch op {
			case 0:
				out = ReifyXor(s, args...)
			case 1:
				out = ReifyAnd(s, args...)
			case 2:
				out = ReifyOr(s, args...)
			}
			gadgets = append(gadgets, gadget{out: out, op: op, args: args})
		}
		// Force every input variable to its fuzz-chosen value; the gadget
		// definitions must stay satisfiable.
		for i := 0; i < nvars; i++ {
			s.Add(mkLit(i, !vals[i]))
		}
		ok, err := s.Solve()
		if err != nil {
			t.Fatal(err)
		}
		if !ok {
			t.Fatalf("definitional gadgets with forced inputs reported UNSAT (inputs %v)", vals)
		}
		litVal := func(l Lit) bool { return s.Value(l.variable()) != l.sign() }
		for _, g := range gadgets {
			var want bool
			switch g.op {
			case 0:
				for _, a := range g.args {
					want = want != litVal(a)
				}
			case 1:
				want = true
				for _, a := range g.args {
					want = want && litVal(a)
				}
			case 2:
				for _, a := range g.args {
					want = want || litVal(a)
				}
			}
			if litVal(g.out) != want {
				t.Fatalf("gadget op=%d args=%v: out=%v, definition says %v", g.op, g.args, litVal(g.out), want)
			}
		}
	})
}

// TestFuzzSeedsPass runs the committed corpus logic once under plain `go
// test`, so corpus regressions surface without -fuzz.
func TestFuzzSeedsPass(t *testing.T) {
	nvars, clauses := fuzzFormula([]byte{0x05, 1, 2, 3, 0xFF, 4, 5})
	s := New()
	for i := 0; i < nvars; i++ {
		s.NewVar()
	}
	for _, cl := range clauses {
		s.Add(cl...)
	}
	got, err := s.Solve()
	if err != nil {
		t.Fatal(err)
	}
	if want := bruteSat(nvars, clauses, nil); got != want {
		t.Fatalf("solver=%v brute=%v", got, want)
	}
	if _, err := s.SolveUnderAssumptions(); !errors.Is(err, nil) {
		t.Fatal(err)
	}
}
