package core

import (
	"context"
	"errors"
	"time"

	"repro/internal/ecc"
	"repro/internal/gf2"
	"repro/internal/sat"
)

// SolveOptions controls the SAT-based ECC-function search.
type SolveOptions struct {
	// ParityBits fixes the number of parity-check bits r. Zero selects the
	// minimum for the profile's dataword length (the paper's chips all use
	// minimum-redundancy SEC codes).
	ParityBits int
	// MaxSolutions caps how many distinct codes the search enumerates.
	// Zero means 2: enough to answer "unique or not" (the paper's
	// determine-then-check-uniqueness flow). Negative means unlimited.
	MaxSolutions int
	// MaxConflicts bounds SAT effort per Solve call (0 = unlimited).
	MaxConflicts int64
	// Backend, when set, supplies the SAT backend a solve session builds
	// on (one fresh backend per session). Nil selects the in-process CDCL
	// engine; sat.NewDimacs gives an engine that additionally records the
	// CNF for export to external solvers.
	Backend func() sat.Backend
	// Noisy, when set, runs the solve session in guarded mode (see
	// noisy.go): every profile entry becomes retractable behind a guard
	// literal, and before the first model a drop-k relaxation retracts the
	// least-supported entries of successive UNSAT cores until a code is
	// found (or the drop budget is spent). Nil keeps the exact mode, which
	// treats every entry as ground truth.
	Noisy *NoisyOptions
	// Progress, when set, receives a StageSolve event each time the search
	// finds another candidate code (with the run's cumulative solver
	// counters attached).
	Progress ProgressFunc
}

// backend materializes the configured SAT backend.
func (o SolveOptions) backend() sat.Backend {
	if o.Backend != nil {
		if b := o.Backend(); b != nil {
			return b
		}
	}
	return sat.New()
}

// interruptFromCtx wires context cancellation into a backend: the solver
// polls the hook at every conflict, restart and 64th decision. The returned
// translate function maps sat.ErrInterrupted back to the context's error.
func interruptFromCtx(ctx context.Context, b sat.Backend) (translate func(error) error) {
	b.Interrupt(func() bool { return ctx.Err() != nil })
	return func(err error) error {
		if errors.Is(err, sat.ErrInterrupted) {
			if cerr := ctx.Err(); cerr != nil {
				return cerr
			}
		}
		return err
	}
}

// Result reports the codes consistent with a miscorrection profile.
type Result struct {
	// Codes lists every ECC function found, in discovery order.
	Codes []*ecc.Code
	// Unique is true when exactly one code exists and the search proved it.
	Unique bool
	// Exhausted is true when the search space was fully explored (rather
	// than stopped by MaxSolutions).
	Exhausted bool
	// DetermineTime covers finding the first solution; UniquenessTime covers
	// proving uniqueness / enumerating the rest (paper Figure 6 reports the
	// two phases separately).
	DetermineTime  time.Duration
	UniquenessTime time.Duration
	// Vars and Clauses describe the CNF encoding size.
	Vars, Clauses int
	// PatternsUsed counts profile entries actually encoded into the CNF;
	// PatternsSkipped counts deferred entries the solve never had to
	// materialize. SolveEager uses every entry.
	PatternsUsed, PatternsSkipped int
	// LazyRefinements counts deferred pattern entries materialized because
	// a candidate model violated them (always zero for SolveEager).
	LazyRefinements int
	// Noise reports the drop-k relaxation outcome of a noisy solve
	// (SolveOptions.Noisy): entries retained vs dropped, the confidence of
	// the surviving candidate set, and the support margin between the
	// retained and dropped sets. Nil for exact solves.
	Noise *NoiseInfo
	Stats sat.Stats
}

// encoder builds the CNF over the unknown standard-form parity-check matrix
// H = [P | I]: one SAT variable per P entry.
type encoder struct {
	s    sat.Backend
	k, r int
	pVar [][]int // pVar[i][j] = variable of P[i][j]
	// rowParity[i] reifies XOR of row i of P over all k columns, built on
	// first use (needed only for anti-cell entries).
	rowParity []sat.Lit
	// guard, when guarded is set, weakens every top-level constraint clause
	// the entry encoders assert (see assert): the clause holds only when
	// the guard literal is true, so assuming the guard activates the entry
	// and leaving it unassumed retracts it — the retractable-constraint
	// primitive the solve session's guarded mode is built on. Tseitin
	// definitional clauses stay unguarded: they only define auxiliary
	// variables and are satisfiable under any P assignment, so sharing them
	// across entries (sigma, rowParity) remains sound.
	guard   sat.Lit
	guarded bool
}

func newEncoder(k, r int, b sat.Backend) *encoder {
	if b == nil {
		b = sat.New()
	}
	e := &encoder{s: b, k: k, r: r}
	e.pVar = make([][]int, r)
	for i := 0; i < r; i++ {
		e.pVar[i] = make([]int, k)
		for j := 0; j < k; j++ {
			e.pVar[i][j] = e.s.NewVar()
		}
	}
	e.addCodeValidity()
	e.addSymmetryBreaking()
	return e
}

func (e *encoder) p(i, j int) sat.Lit { return sat.PosLit(e.pVar[i][j]) }

// setGuard makes subsequent addEntry calls assert their constraint clauses
// behind ¬g; clearGuard restores unconditional assertion.
func (e *encoder) setGuard(g sat.Lit) { e.guard, e.guarded = g, true }
func (e *encoder) clearGuard()        { e.guarded = false }

// assert adds a top-level entry-constraint clause, weakened by the active
// guard when one is set.
func (e *encoder) assert(lits ...sat.Lit) {
	if !e.guarded {
		e.s.Add(lits...)
		return
	}
	cl := make([]sat.Lit, 0, len(lits)+1)
	cl = append(cl, lits...)
	cl = append(cl, e.guard.Not())
	e.s.Add(cl...)
}

// addCodeValidity asserts the basic linear-code constraints (paper §5.3
// constraint 1): every H column nonzero and pairwise distinct. In standard
// form the parity columns are fixed unit vectors, so each data column needs
// weight >= 2 (weight 1 would duplicate a parity column) and data columns
// must differ from each other.
func (e *encoder) addCodeValidity() {
	for j := 0; j < e.k; j++ {
		col := make([]sat.Lit, e.r)
		for i := 0; i < e.r; i++ {
			col[i] = e.p(i, j)
		}
		e.s.Add(col...) // nonzero
		// Weight >= 2: any set bit implies another set bit.
		for i := 0; i < e.r; i++ {
			cl := make([]sat.Lit, 0, e.r)
			cl = append(cl, e.p(i, j).Not())
			for i2 := 0; i2 < e.r; i2++ {
				if i2 != i {
					cl = append(cl, e.p(i2, j))
				}
			}
			e.s.Add(cl...)
		}
	}
	// Pairwise distinct data columns.
	for j1 := 0; j1 < e.k; j1++ {
		for j2 := j1 + 1; j2 < e.k; j2++ {
			diff := make([]sat.Lit, e.r)
			for i := 0; i < e.r; i++ {
				diff[i] = sat.ReifyXor2(e.s, e.p(i, j1), e.p(i, j2))
			}
			e.s.Add(diff...)
		}
	}
}

// addSymmetryBreaking orders the rows of P lexicographically (columns read
// left to right, 0 < 1). Codes that differ only by a permutation of parity
// rows are equivalent — externally indistinguishable (see ecc.EquivalentTo)
// — and every profile constraint is invariant under row permutation, so this
// keeps exactly one canonical representative per equivalence class. Without
// it the solver would report spurious "non-unique" results for codes the
// paper counts as one function.
func (e *encoder) addSymmetryBreaking() {
	for i := 0; i+1 < e.r; i++ {
		eq := sat.True(e.s) // rows equal on all columns considered so far
		for j := 0; j < e.k; j++ {
			// If still equal, row i may not have a 1 where row i+1 has a 0.
			e.s.Add(eq.Not(), e.p(i, j).Not(), e.p(i+1, j))
			if j+1 < e.k {
				same := sat.ReifyXor2(e.s, e.p(i, j), e.p(i+1, j)).Not()
				eq = sat.ReifyAnd(e.s, eq, same)
			}
		}
	}
}

// addEntry encodes one miscorrection-profile row (paper §5.3 constraint 3).
//
// Using the DESIGN.md §4 closed form: for pattern S and candidate bit b, a
// miscorrection is possible iff for some class-representative subset T of S,
// every parity row i with sigma_i = 0 has (XOR_{j in T} P[i][j]) = P[i][b],
// where sigma_i = XOR_{j in S} P[i][j]. Subsets T and S\T give identical
// conditions, so representatives are the subsets excluding S's first element.
func (e *encoder) addEntry(entry Entry) {
	if entry.Anti {
		e.addEntryAnti(entry)
		return
	}
	s := entry.Pattern.Charged()
	if len(s) == 1 {
		e.addEntry1(s[0], entry)
		return
	}
	// sigma_i literals, shared across all b for this pattern.
	sigma := make([]sat.Lit, e.r)
	for i := 0; i < e.r; i++ {
		lits := make([]sat.Lit, len(s))
		for x, j := range s {
			lits[x] = e.p(i, j)
		}
		sigma[i] = sat.ReifyXor(e.s, lits...)
	}
	// Per-representative-subset row XORs over T (excluding b's column).
	rest := s[1:]
	nSub := 1 << uint(len(rest))
	baseXor := make([][]sat.Lit, nSub) // baseXor[m][i] = XOR_{j in T_m} P[i][j]; nil slice entry means empty T
	for m := 0; m < nSub; m++ {
		var members []int
		for bi, j := range rest {
			if m>>uint(bi)&1 == 1 {
				members = append(members, j)
			}
		}
		if len(members) == 0 {
			baseXor[m] = nil
			continue
		}
		row := make([]sat.Lit, e.r)
		for i := 0; i < e.r; i++ {
			lits := make([]sat.Lit, len(members))
			for x, j := range members {
				lits[x] = e.p(i, j)
			}
			row[i] = sat.ReifyXor(e.s, lits...)
		}
		baseXor[m] = row
	}
	for b := 0; b < e.k; b++ {
		if entry.Pattern.Has(b) {
			continue
		}
		conds := make([]sat.Lit, 0, nSub)
		for m := 0; m < nSub; m++ {
			rowConds := make([]sat.Lit, e.r)
			for i := 0; i < e.r; i++ {
				var d sat.Lit // XOR_{j in T} P[i][j] XOR P[i][b]
				if baseXor[m] == nil {
					d = e.p(i, b)
				} else {
					d = sat.ReifyXor2(e.s, baseXor[m][i], e.p(i, b))
				}
				// Condition per row: sigma_i OR NOT d_i.
				rowConds[i] = sat.ReifyOr(e.s, sigma[i], d.Not())
			}
			conds = append(conds, sat.ReifyAnd(e.s, rowConds...))
		}
		poss := sat.ReifyOr(e.s, conds...)
		if entry.Possible.Get(b) {
			e.assert(poss)
		} else {
			e.assert(poss.Not())
		}
	}
}

// addEntry1 is the optimized 1-CHARGED encoding: a miscorrection at b is
// possible iff column b's support is contained in column a's support, which
// needs no XOR reification at all.
func (e *encoder) addEntry1(a int, entry Entry) {
	for b := 0; b < e.k; b++ {
		if b == a {
			continue
		}
		if entry.Possible.Get(b) {
			// Containment: P[i][b] -> P[i][a] for every row.
			for i := 0; i < e.r; i++ {
				e.assert(e.p(i, b).Not(), e.p(i, a))
			}
		} else {
			// Violation in some row: P[i][b] AND NOT P[i][a].
			viol := make([]sat.Lit, e.r)
			for i := 0; i < e.r; i++ {
				viol[i] = sat.ReifyAnd(e.s, e.p(i, b), e.p(i, a).Not())
			}
			e.assert(viol...)
		}
	}
}

// rowParityLits lazily reifies the parity of each P row over all columns.
func (e *encoder) rowParityLits() []sat.Lit {
	if e.rowParity == nil {
		e.rowParity = make([]sat.Lit, e.r)
		for i := 0; i < e.r; i++ {
			lits := make([]sat.Lit, e.k)
			for j := 0; j < e.k; j++ {
				lits[j] = e.p(i, j)
			}
			e.rowParity[i] = sat.ReifyXor(e.s, lits...)
		}
	}
	return e.rowParity
}

// addEntryAnti encodes an anti-cell-region profile entry (see
// ExactProfileAnti for the condition). Unlike the true-cell case, the
// condition involves rowParity and the error subsets T of S do not pair up,
// so all 2^|S| subsets are enumerated.
func (e *encoder) addEntryAnti(entry Entry) {
	s := entry.Pattern.Charged()
	rp := e.rowParityLits()
	// discharged_i = rowParity_i XOR sigma_i (parity cell i NOT charged).
	discharged := make([]sat.Lit, e.r)
	for i := 0; i < e.r; i++ {
		lits := make([]sat.Lit, 0, len(s)+1)
		lits = append(lits, rp[i])
		for _, j := range s {
			lits = append(lits, e.p(i, j))
		}
		discharged[i] = sat.ReifyXor(e.s, lits...)
	}
	nSub := 1 << uint(len(s))
	baseXor := make([][]sat.Lit, nSub)
	for m := 0; m < nSub; m++ {
		var members []int
		for bi, j := range s {
			if m>>uint(bi)&1 == 1 {
				members = append(members, j)
			}
		}
		if len(members) == 0 {
			continue
		}
		row := make([]sat.Lit, e.r)
		for i := 0; i < e.r; i++ {
			lits := make([]sat.Lit, len(members))
			for x, j := range members {
				lits[x] = e.p(i, j)
			}
			row[i] = sat.ReifyXor(e.s, lits...)
		}
		baseXor[m] = row
	}
	for b := 0; b < e.k; b++ {
		if entry.Pattern.Has(b) {
			continue
		}
		conds := make([]sat.Lit, 0, nSub)
		for m := 0; m < nSub; m++ {
			rowConds := make([]sat.Lit, e.r)
			for i := 0; i < e.r; i++ {
				var d sat.Lit
				if baseXor[m] == nil {
					d = e.p(i, b)
				} else {
					d = sat.ReifyXor2(e.s, baseXor[m][i], e.p(i, b))
				}
				// Row condition: discharged_i -> d_i = 0.
				rowConds[i] = sat.ReifyOr(e.s, discharged[i].Not(), d.Not())
			}
			conds = append(conds, sat.ReifyAnd(e.s, rowConds...))
		}
		poss := sat.ReifyOr(e.s, conds...)
		if entry.Possible.Get(b) {
			e.assert(poss)
		} else {
			e.assert(poss.Not())
		}
	}
}

// modelCode converts the solver's current model into a Code.
func (e *encoder) modelCode() (*ecc.Code, error) {
	p := gf2.NewMat(e.r, e.k)
	for i := 0; i < e.r; i++ {
		for j := 0; j < e.k; j++ {
			p.Set(i, j, e.s.Value(e.pVar[i][j]))
		}
	}
	return ecc.New(p)
}

// pVars returns the flat list of P variables, for model blocking.
func (e *encoder) pVars() []int {
	out := make([]int, 0, e.r*e.k)
	for i := 0; i < e.r; i++ {
		out = append(out, e.pVar[i]...)
	}
	return out
}
