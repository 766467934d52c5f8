package sat

// CNF-building helpers layered on the core solver. BEER's constraints are
// mostly GF(2)-flavored: XOR chains (parity of parity-check matrix entries)
// and reified conjunctions/disjunctions of those parities (the per-pattern
// miscorrection conditions). Everything here Tseitin-encodes into plain
// clauses.
//
// The helpers are package-level functions generic over the Builder
// interface (usable with any Backend, including the DIMACS-export one);
// ReifyAnd also has a *Solver method form, and Solver.Implies asserts an
// implication.

// Builder is the clause-construction surface the CNF helpers need. Every
// Backend (and therefore *Solver) implements it.
type Builder interface {
	NewVar() int
	Add(lits ...Lit) bool
}

// True returns a literal that is constant true on b (backed by a
// lazily-created, unit-asserted variable).
func True(b Builder) Lit {
	v := b.NewVar()
	l := PosLit(v)
	b.Add(l)
	return l
}

// ReifyXor2 returns a fresh literal y constrained so that y <-> (a XOR c).
func ReifyXor2(b Builder, a, c Lit) Lit {
	y := PosLit(b.NewVar())
	b.Add(y.Not(), a, c)
	b.Add(y.Not(), a.Not(), c.Not())
	b.Add(y, a.Not(), c)
	b.Add(y, a, c.Not())
	return y
}

// ReifyXor returns a literal equal to the XOR of all given literals.
// XOR of no literals is constant false.
func ReifyXor(b Builder, lits ...Lit) Lit {
	if len(lits) == 0 {
		return True(b).Not()
	}
	acc := lits[0]
	for _, l := range lits[1:] {
		acc = ReifyXor2(b, acc, l)
	}
	return acc
}

// ReifyAnd returns a fresh literal y with y <-> AND(lits). The AND of no
// literals is constant true.
func ReifyAnd(b Builder, lits ...Lit) Lit {
	if len(lits) == 0 {
		return True(b)
	}
	if len(lits) == 1 {
		return lits[0]
	}
	y := PosLit(b.NewVar())
	long := make([]Lit, 0, len(lits)+1)
	long = append(long, y)
	for _, l := range lits {
		b.Add(y.Not(), l)
		long = append(long, l.Not())
	}
	b.Add(long...)
	return y
}

// ReifyOr returns a fresh literal y with y <-> OR(lits). The OR of no
// literals is constant false.
func ReifyOr(b Builder, lits ...Lit) Lit {
	if len(lits) == 0 {
		return True(b).Not()
	}
	if len(lits) == 1 {
		return lits[0]
	}
	neg := make([]Lit, len(lits))
	for i, l := range lits {
		neg[i] = l.Not()
	}
	return ReifyAnd(b, neg...).Not()
}

// BlockModel adds a clause to the backend forbidding its current assignment
// restricted to the given variables; used for model enumeration. Returns
// false when the backend became (or already was) unsatisfiable.
func BlockModel(b Backend, vars []int) bool {
	lits := make([]Lit, len(vars))
	for i, v := range vars {
		lits[i] = mkLit(v, b.Value(v)) // negate the assigned polarity
	}
	return b.Add(lits...)
}

// --- Method forms on *Solver ---

// ReifyAnd returns a fresh literal y with y <-> AND(lits).
func (s *Solver) ReifyAnd(lits ...Lit) Lit { return ReifyAnd(s, lits...) }

// Implies asserts a -> b.
func (s *Solver) Implies(a, b Lit) { s.Add(a.Not(), b) }
