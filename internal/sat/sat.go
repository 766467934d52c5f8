// Package sat implements a CDCL (conflict-driven clause learning) Boolean
// satisfiability solver in pure Go, plus CNF-building helpers for the XOR and
// reified AND/OR constraints that BEER's parity-check inference needs.
//
// The paper uses the Z3 SMT solver (§3.4, §5.3); no native Go SAT solver was
// available under the stdlib-only constraint, so this package provides the
// equivalent capability: two-watched-literal propagation, first-UIP clause
// learning, VSIDS branching with phase saving, Luby restarts, and learnt
// clause database reduction. Solvers are reusable: clauses may be added
// between Solve calls, which is how model enumeration (BEER's uniqueness
// check) adds blocking clauses.
//
// Entry points: New + AddClause + Solve; SolveUnderAssumptions solves under
// a temporary set of assumed literals without touching the clause database
// (the incremental-solving primitive); ReifyXor/ReifyAnd/ReifyOr build the
// Tseitin gadgets the §5.3 encoding needs; BlockModel excludes the current
// model for enumeration. The Interrupt hook is polled at every conflict,
// every restart and every 64th decision — internal/core wires context
// cancellation into it — and MaxConflicts bounds effort per call. Solvers
// are single-goroutine: one Solver must never be shared across concurrent
// solves.
//
// The Backend interface (backend.go) is the solving surface higher layers
// build on: *Solver is the one engine, and Dimacs is a recording wrapper
// that delegates to it and exports the accumulated CNF in DIMACS format
// for external tools.
package sat

import (
	"fmt"
	"slices"
	"sort"
	"time"
)

// Lit is a literal: variable index shifted left once, with the low bit set
// for negation. The zero Lit is variable 0, positive.
type Lit int32

// litUndef is a sentinel literal distinct from every real literal.
const litUndef Lit = -1

// MkLit constructs a literal for variable v (>= 0), negated when neg is set.
func MkLit(v int, neg bool) Lit {
	l := Lit(v << 1)
	if neg {
		l |= 1
	}
	return l
}

// PosLit returns the positive literal of variable v.
func PosLit(v int) Lit { return MkLit(v, false) }

// NegLit returns the negative literal of variable v.
func NegLit(v int) Lit { return MkLit(v, true) }

// Var returns the literal's variable index.
func (l Lit) Var() int { return int(l >> 1) }

// Sign reports whether the literal is negated.
func (l Lit) Sign() bool { return l&1 == 1 }

// Not returns the complementary literal.
func (l Lit) Not() Lit { return l ^ 1 }

// String renders the literal as "x3" or "~x3".
func (l Lit) String() string {
	if l.Sign() {
		return fmt.Sprintf("~x%d", l.Var())
	}
	return fmt.Sprintf("x%d", l.Var())
}

type lbool int8

const (
	lUndef lbool = 0
	lTrue  lbool = 1
	lFalse lbool = -1
)

type clause struct {
	lits   []Lit
	act    float64
	learnt bool
}

// xorClause is a native parity constraint: the XOR of its variables must equal
// rhs. Encoding parity through Tseitin XOR2 chains makes unit propagation walk
// every internal gate of the tree (~|vars| enqueues per re-propagation); the
// native form propagates lazily with two watched variables and forces at most
// one literal, which is what makes wide parity rows (ECC parity-check and
// syndrome equations) cheap on re-solve-heavy incremental workloads.
//
// scratch is a reusable reason/conflict clause, rewritten in place each time
// the constraint forces a literal or detects a violation. Reuse is sound
// because a forcing XOR has every variable assigned afterwards: it cannot
// force again until backtracking unassigns the previously forced literal
// (whose decision level is the maximum over the constraint), so no stale
// reason is ever reachable from the trail.
type xorClause struct {
	vars    []int
	rhs     bool
	w       [2]int // indices into vars of the two watched variables
	scan    int    // rotating start for the replacement-watch scan
	scratch clause
}

// Stats aggregates solver counters across all Solve calls.
type Stats struct {
	Conflicts    int64
	Decisions    int64
	Propagations int64
	Learnt       int64
	Restarts     int64
}

// Solver is a reusable CDCL SAT solver. The zero value is not usable; call
// New.
type Solver struct {
	clauses []*clause // problem clauses
	learnts []*clause
	watches [][]watcher // indexed by literal

	xors   []*xorClause   // native parity constraints
	xwatch [][]*xorClause // indexed by variable (parity ignores polarity)

	assigns  []lbool
	level    []int32
	reason   []*clause
	polarity []bool // saved phase per variable
	activity []float64
	seen     []bool

	trail    []Lit
	trailLim []int
	qhead    int

	order  varHeap
	varInc float64
	claInc float64

	ok    bool // false once UNSAT is established at level 0
	model []bool

	litStamp []uint32 // AddClause dedupe stamps, indexed by literal
	stampGen uint32

	addBuf   []Lit        // AddClause normalization scratch
	xorSeen  map[int]bool // addXorVars dedupe scratch, reused across calls
	claBlock []clause     // arena block for problem clause headers
	litBlock []Lit        // arena block for problem clause literals

	decideFirst []int // explicit branching priority (SetDecisionOrder)
	dfCursor    int   // first possibly-unassigned index in decideFirst

	// MaxConflicts, when positive, bounds the total conflicts per Solve call;
	// exceeding it makes Solve return ErrBudget. Zero means unlimited.
	MaxConflicts int64

	// interrupt, when set (via Interrupt), is polled during search: at every
	// conflict, every restart, and every 64th decision. The decision-path
	// poll bounds cancellation latency even on formulas the solver satisfies
	// without ever conflicting.
	interrupt func() bool

	// timeout, when positive, bounds each Solve call in wall-clock time
	// (SetTimeout); deadline is derived from it at the start of every call
	// and checked wherever the interrupt hook is polled.
	timeout  time.Duration
	deadline time.Time

	// failed holds the failed-assumption core of the most recent
	// UNSAT-under-assumptions answer (FailedAssumptions).
	failed []Lit

	Stats Stats
}

// Interrupt installs fn as the solver's interrupt hook, polled during search
// (at every conflict, every restart, and every 64th decision — so a solve
// that never conflicts still observes cancellation within a bounded number
// of decisions). When fn returns true the in-progress solve unwinds to
// decision level 0 and returns ErrInterrupted; the solver stays reusable:
// the caller may add clauses and solve again. This is how context
// cancellation reaches a running solve without the solver depending on the
// context package. A nil fn removes the hook.
func (s *Solver) Interrupt(fn func() bool) { s.interrupt = fn }

// SetMaxConflicts bounds SAT effort per solve call in conflicts (0 =
// unlimited); exceeding the budget makes the solve return ErrBudget.
func (s *Solver) SetMaxConflicts(n int64) { s.MaxConflicts = n }

// SetTimeout bounds each Solve call in wall-clock time (0 = unlimited).
// A solve that outlives the budget unwinds to decision level 0 and returns
// ErrTimeout; the solver stays reusable, so callers are free to apply
// HARP-style discard semantics — drop the stuck sample and move to the
// next one on the same solver. The deadline is polled alongside the
// Interrupt hook (every conflict, every restart, every 64th decision), so
// the overshoot is bounded the same way cancellation latency is.
func (s *Solver) SetTimeout(d time.Duration) { s.timeout = d }

// FailedAssumptions returns the failed-assumption core of the most recent
// solve call that answered (false, nil) under assumptions: a subset of
// that call's assumption literals that is already sufficient for
// unsatisfiability, with the directly failing assumption first. It is the
// MiniSat analyzeFinal conflict set, so it is sound (the formula really is
// UNSAT under just these assumptions) but not guaranteed minimal. The
// slice is valid until the next solve call; it is empty after a SAT
// answer, after an UNSAT answer that involved no assumptions, and after
// budget/interrupt/timeout errors.
func (s *Solver) FailedAssumptions() []Lit { return s.failed }

// stopRequested polls the caller-facing abort mechanisms — the Interrupt
// hook and the SetTimeout deadline — and returns the error the in-progress
// solve should unwind with, or nil.
func (s *Solver) stopRequested() error {
	if s.interrupt != nil && s.interrupt() {
		return ErrInterrupted
	}
	if !s.deadline.IsZero() && time.Now().After(s.deadline) {
		return ErrTimeout
	}
	return nil
}

// Statistics returns the solver's cumulative counters.
func (s *Solver) Statistics() Stats { return s.Stats }

// Learned returns the number of learnt clauses currently alive in the
// clause database — the state an incremental caller preserves by reusing
// one solver across re-solves.
func (s *Solver) Learned() int64 { return int64(len(s.learnts)) }

// Add is AddClause under the Backend interface's name.
func (s *Solver) Add(lits ...Lit) bool { return s.AddClause(lits...) }

// ErrBudget is returned by Solve when MaxConflicts is exhausted before a
// definitive answer is found.
var ErrBudget = fmt.Errorf("sat: conflict budget exhausted")

// ErrInterrupted is returned by Solve when the Interrupt hook fired before a
// definitive answer was found.
var ErrInterrupted = fmt.Errorf("sat: solve interrupted")

// ErrTimeout is returned by Solve when the SetTimeout wall-clock budget
// expired before a definitive answer was found.
var ErrTimeout = fmt.Errorf("sat: solve timed out")

// New returns an empty solver with no variables.
func New() *Solver {
	s := &Solver{ok: true, varInc: 1, claInc: 1}
	s.order.activity = &s.activity
	return s
}

// NumVars returns the number of variables created so far.
func (s *Solver) NumVars() int { return len(s.assigns) }

// SetPolarity sets the value a variable prefers when the solver branches on
// it (before conflict-driven phase saving takes over). Callers use it to
// bias which of many satisfying assignments the search finds first — e.g.
// BEEP biases data bits toward CHARGED so crafted patterns exercise many
// cells.
func (s *Solver) SetPolarity(v int, value bool) { s.polarity[v] = !value }

// SetDecisionOrder installs an explicit branching priority: when the solver
// needs a decision it tries these variables first, in the given order, with
// their preferred polarities, before falling back to activity-ordered
// branching. The order is permanent (conflict-driven activity never
// overtakes it) and free of heap maintenance: re-solve-heavy incremental
// callers re-decide the same variable block every call, and a cursor over a
// fixed slice costs nothing per solve. Combined with SetPolarity it steers
// model selection: BEEP puts the dataword bits first so crafted patterns
// follow the requested random phases instead of being dictated by Tseitin
// gate variables. The slice is retained, not copied; nil restores pure
// activity ordering.
func (s *Solver) SetDecisionOrder(vars []int) {
	s.decideFirst = vars
	s.dfCursor = 0
}

// NumClauses returns the number of problem (non-learnt) clauses.
func (s *Solver) NumClauses() int { return len(s.clauses) }

// Reserve pre-sizes the solver's per-variable storage for a formula that will
// grow to about nVars variables. Purely a capacity hint: callers that rebuild
// a formula per problem (BEEP constructs two crafter solvers per profiled
// word) otherwise pay for every slice in NewVar growing by amortized doubling,
// which dominates construction allocation.
func (s *Solver) Reserve(nVars int) {
	if extra := nVars - s.NumVars(); extra > 0 {
		s.assigns = slices.Grow(s.assigns, extra)
		s.level = slices.Grow(s.level, extra)
		s.reason = slices.Grow(s.reason, extra)
		s.polarity = slices.Grow(s.polarity, extra)
		s.activity = slices.Grow(s.activity, extra)
		s.seen = slices.Grow(s.seen, extra)
		s.watches = slices.Grow(s.watches, 2*extra)
		s.xwatch = slices.Grow(s.xwatch, extra)
		s.trail = slices.Grow(s.trail, extra)
		s.order.heap = slices.Grow(s.order.heap, extra)
		s.order.pos = slices.Grow(s.order.pos, extra)
	}
	if want := 4 * nVars; len(s.litStamp) < want {
		s.litStamp = make([]uint32, want)
		s.stampGen = 0
	}
}

// arenaLits copies normalized clause literals into the solver's literal arena
// and returns a full-capacity-clipped view. Problem clauses are never freed
// individually (only learnt clauses are, and those stay heap-allocated), so
// block allocation is safe and removes a per-clause allocation.
func (s *Solver) arenaLits(src []Lit) []Lit {
	if cap(s.litBlock)-len(s.litBlock) < len(src) {
		n := 1 << 12
		if len(src) > n {
			n = len(src)
		}
		s.litBlock = make([]Lit, 0, n)
	}
	start := len(s.litBlock)
	s.litBlock = append(s.litBlock, src...)
	return s.litBlock[start:len(s.litBlock):len(s.litBlock)]
}

// newProblemClause allocates a clause header from the header arena. Headers
// are handed out as pointers into the current block; a block is abandoned (not
// reallocated) when full, so outstanding pointers stay valid.
func (s *Solver) newProblemClause(lits []Lit) *clause {
	if len(s.claBlock) == cap(s.claBlock) {
		s.claBlock = make([]clause, 0, 256)
	}
	s.claBlock = append(s.claBlock, clause{lits: lits})
	return &s.claBlock[len(s.claBlock)-1]
}

// NewVar creates a fresh variable and returns its index.
func (s *Solver) NewVar() int {
	v := len(s.assigns)
	s.assigns = append(s.assigns, lUndef)
	s.level = append(s.level, 0)
	s.reason = append(s.reason, nil)
	s.polarity = append(s.polarity, true) // default phase: false (negated)
	s.activity = append(s.activity, 0)
	s.seen = append(s.seen, false)
	s.watches = append(s.watches, nil, nil)
	s.xwatch = append(s.xwatch, nil)
	s.order.insert(v)
	return v
}

func (s *Solver) valueLit(l Lit) lbool {
	val := s.assigns[l.Var()]
	if l.Sign() {
		return -val
	}
	return val
}

func (s *Solver) decisionLevel() int { return len(s.trailLim) }

// AddClause adds a clause over the given literals. It returns false when the
// solver is already known to be unsatisfiable (now or previously). Adding a
// clause cancels any in-progress search back to decision level 0.
func (s *Solver) AddClause(lits ...Lit) bool {
	if !s.ok {
		return false
	}
	s.cancelUntil(0)
	// Normalize: sort-free dedupe, drop root-false literals, detect
	// tautologies and root-true literals. Dedupe uses a generation-stamped
	// per-literal array rather than a map: formula construction calls
	// AddClause thousands of times and the map allocation dominated build
	// cost on incremental workloads that rebuild formulas per problem.
	if len(s.litStamp) < 2*s.NumVars() {
		// Grow with headroom: variable creation and clause addition
		// interleave during formula construction, so sizing exactly would
		// reallocate on nearly every call.
		s.litStamp = make([]uint32, 4*s.NumVars())
		s.stampGen = 0
	}
	s.stampGen++
	if s.stampGen == 0 { // generation wrap: stale stamps could collide
		clear(s.litStamp)
		s.stampGen = 1
	}
	gen := s.stampGen
	out := s.addBuf[:0]
	for _, l := range lits {
		if l.Var() >= s.NumVars() {
			panic(fmt.Sprintf("sat: literal %v references unknown variable", l))
		}
		switch {
		case s.litStamp[l] == gen:
			continue
		case s.litStamp[l.Not()] == gen:
			return true // tautology: always satisfied
		case s.valueLit(l) == lTrue:
			return true // already satisfied at root
		case s.valueLit(l) == lFalse:
			continue // cannot help
		}
		s.litStamp[l] = gen
		out = append(out, l)
	}
	s.addBuf = out[:0]
	switch len(out) {
	case 0:
		s.ok = false
		return false
	case 1:
		s.uncheckedEnqueue(out[0], nil)
		if s.propagate() != nil {
			s.ok = false
			return false
		}
		return true
	}
	c := s.newProblemClause(s.arenaLits(out))
	s.clauses = append(s.clauses, c)
	s.attach(c)
	return true
}

// AddXor asserts the parity constraint XOR(lits) == rhs as a native XOR
// clause (negated literals fold their sign into the constant). This shadows
// the CNF Tseitin encoding the generic Builder helper produces: the native
// form propagates with two watched variables and touches each constraint at
// most once per re-solve, instead of walking an XOR2 gate tree. Returns false
// when the solver is (or becomes) unsatisfiable.
func (s *Solver) AddXor(lits []Lit, rhs bool) bool {
	vars := make([]int, len(lits))
	for i, l := range lits {
		if l.Sign() {
			rhs = !rhs
		}
		vars[i] = l.Var()
	}
	return s.addXorVars(rhs, vars)
}

// addXorVars adds xor(vars) == rhs over plain variables. Duplicate variable
// pairs cancel (x⊕x = 0) and root-assigned variables fold into the constant.
// Like AddClause, adding a constraint cancels any in-progress search.
func (s *Solver) addXorVars(rhs bool, vars []int) bool {
	if !s.ok {
		return false
	}
	s.cancelUntil(0)
	if s.xorSeen == nil {
		s.xorSeen = make(map[int]bool, 64)
	} else {
		clear(s.xorSeen)
	}
	seen := s.xorSeen
	for _, v := range vars {
		if v < 0 || v >= s.NumVars() {
			panic(fmt.Sprintf("sat: xor references unknown variable %d", v))
		}
		seen[v] = !seen[v]
	}
	out := make([]int, 0, len(vars))
	for _, v := range vars {
		if !seen[v] {
			continue
		}
		seen[v] = false
		if s.assigns[v] != lUndef {
			if s.assigns[v] == lTrue {
				rhs = !rhs
			}
			continue
		}
		out = append(out, v)
	}
	switch len(out) {
	case 0:
		if rhs {
			s.ok = false
		}
		return s.ok
	case 1:
		s.uncheckedEnqueue(MkLit(out[0], !rhs), nil)
		if s.propagate() != nil {
			s.ok = false
		}
		return s.ok
	}
	xc := &xorClause{vars: out, rhs: rhs, w: [2]int{0, 1}}
	xc.scratch.lits = make([]Lit, 0, len(out))
	s.xors = append(s.xors, xc)
	s.xwatch[out[0]] = append(s.xwatch[out[0]], xc)
	s.xwatch[out[1]] = append(s.xwatch[out[1]], xc)
	return true
}

// watcher pairs a watched clause with a blocker literal — some other literal
// of the clause, checked before dereferencing the clause at all. When the
// blocker is already true the clause is satisfied and the visit costs one
// array read. For binary clauses the blocker is exactly the other literal, so
// they propagate and conflict without ever touching clause memory or moving
// watches.
type watcher struct {
	c       *clause
	blocker Lit
}

func (s *Solver) attach(c *clause) {
	s.watches[c.lits[0].Not()] = append(s.watches[c.lits[0].Not()], watcher{c, c.lits[1]})
	s.watches[c.lits[1].Not()] = append(s.watches[c.lits[1].Not()], watcher{c, c.lits[0]})
}

func (s *Solver) uncheckedEnqueue(l Lit, from *clause) {
	v := l.Var()
	if l.Sign() {
		s.assigns[v] = lFalse
	} else {
		s.assigns[v] = lTrue
	}
	s.level[v] = int32(s.decisionLevel())
	s.reason[v] = from
	s.trail = append(s.trail, l)
}

// propagate performs unit propagation, returning a conflicting clause or nil.
func (s *Solver) propagate() *clause {
	for s.qhead < len(s.trail) {
		p := s.trail[s.qhead] // p is now true
		s.qhead++
		s.Stats.Propagations++
		ws := s.watches[p]
		j := 0
		notP := p.Not()
	nextClause:
		for i := 0; i < len(ws); i++ {
			w := ws[i]
			// Blocker check: one array read settles an already-satisfied
			// clause without dereferencing it.
			if s.valueLit(w.blocker) == lTrue {
				ws[j] = w
				j++
				continue
			}
			c := w.c
			// Binary fast path: the blocker IS the other literal, known
			// false-or-unassigned by now; no watch ever moves.
			if len(c.lits) == 2 {
				ws[j] = w
				j++
				if s.valueLit(w.blocker) == lFalse {
					for i++; i < len(ws); i++ {
						ws[j] = ws[i]
						j++
					}
					s.watches[p] = ws[:j]
					s.qhead = len(s.trail)
					return c
				}
				s.uncheckedEnqueue(w.blocker, c)
				continue
			}
			// Ensure the false literal (~p) sits at position 1.
			if c.lits[0] == notP {
				c.lits[0], c.lits[1] = c.lits[1], c.lits[0]
			}
			first := c.lits[0]
			// If the other watch is already true the clause is satisfied;
			// remember it as the new blocker.
			if first != w.blocker && s.valueLit(first) == lTrue {
				ws[j] = watcher{c, first}
				j++
				continue
			}
			// Look for a non-false literal to watch instead.
			for k := 2; k < len(c.lits); k++ {
				if s.valueLit(c.lits[k]) != lFalse {
					c.lits[1], c.lits[k] = c.lits[k], c.lits[1]
					nw := c.lits[1].Not()
					s.watches[nw] = append(s.watches[nw], watcher{c, first})
					continue nextClause
				}
			}
			// Clause is unit or conflicting.
			ws[j] = watcher{c, first}
			j++
			if s.valueLit(first) == lFalse {
				// Conflict: keep the rest of the watch list intact.
				for i++; i < len(ws); i++ {
					ws[j] = ws[i]
					j++
				}
				s.watches[p] = ws[:j]
				s.qhead = len(s.trail)
				return c
			}
			s.uncheckedEnqueue(first, c)
		}
		s.watches[p] = ws[:j]
		if confl := s.propagateXor(p.Var()); confl != nil {
			return &confl.scratch
		}
	}
	return nil
}

// propagateXor visits every XOR constraint watching variable pv (just
// assigned, either polarity — parity does not care). Each constraint either
// moves its watch to another unassigned variable, forces its last unassigned
// variable to the parity-completing value, verifies itself when fully
// assigned, or reports a conflict. Unprocessed entries on a conflict are safe
// to abandon mid-list: the conflicting assignment sits at the current decision
// level, so conflict analysis always backtracks it off the trail and its
// watches get revisited when it is enqueued again.
func (s *Solver) propagateXor(pv int) *xorClause {
	xw := s.xwatch[pv]
	if len(xw) == 0 {
		return nil
	}
	j := 0
	for i := 0; i < len(xw); i++ {
		xc := xw[i]
		wi := 0
		if xc.vars[xc.w[1]] == pv {
			wi = 1
		} else if xc.vars[xc.w[0]] != pv {
			continue // stale entry: watch already moved elsewhere
		}
		other := xc.vars[xc.w[1-wi]]
		// Rotating-start scan: consecutive assignments walk the constraint's
		// variables in order, so resuming where the last scan stopped keeps
		// the total replacement work per full pass linear instead of
		// quadratic.
		moved := false
		nv := len(xc.vars)
		for t, k := 0, xc.scan; t < nv; t, k = t+1, k+1 {
			if k >= nv {
				k = 0
			}
			if u := xc.vars[k]; u != other && s.assigns[u] == lUndef {
				xc.w[wi] = k
				xc.scan = k + 1
				s.xwatch[u] = append(s.xwatch[u], xc)
				moved = true
				break
			}
		}
		if moved {
			continue
		}
		// Everything but (possibly) the other watch is assigned: settle parity.
		xw[j] = xc
		j++
		parity := xc.rhs
		for _, u := range xc.vars {
			if u != other && s.assigns[u] == lTrue {
				parity = !parity
			}
		}
		if s.assigns[other] == lUndef {
			forced := MkLit(other, !parity)
			xc.scratch.lits = append(xc.scratch.lits[:0], forced)
			for _, u := range xc.vars {
				if u != other {
					xc.scratch.lits = append(xc.scratch.lits, MkLit(u, s.assigns[u] == lTrue))
				}
			}
			s.uncheckedEnqueue(forced, &xc.scratch)
			continue
		}
		if (s.assigns[other] == lTrue) != parity {
			xc.scratch.lits = xc.scratch.lits[:0]
			for _, u := range xc.vars {
				xc.scratch.lits = append(xc.scratch.lits, MkLit(u, s.assigns[u] == lTrue))
			}
			for i++; i < len(xw); i++ {
				xw[j] = xw[i]
				j++
			}
			s.xwatch[pv] = xw[:j]
			s.qhead = len(s.trail)
			return xc
		}
	}
	s.xwatch[pv] = xw[:j]
	return nil
}

// analyze derives a first-UIP learnt clause from a conflict and returns the
// clause literals (asserting literal first) and the backtrack level.
func (s *Solver) analyze(confl *clause) ([]Lit, int) {
	learnt := make([]Lit, 1, 8) // slot 0 reserved for the asserting literal
	pathC := 0
	p := litUndef
	idx := len(s.trail) - 1
	for {
		s.claBump(confl)
		for _, q := range confl.lits {
			if p != litUndef && q == p {
				continue
			}
			v := q.Var()
			if !s.seen[v] && s.level[v] > 0 {
				s.varBump(v)
				s.seen[v] = true
				if int(s.level[v]) >= s.decisionLevel() {
					pathC++
				} else {
					learnt = append(learnt, q)
				}
			}
		}
		for !s.seen[s.trail[idx].Var()] {
			idx--
		}
		p = s.trail[idx]
		idx--
		s.seen[p.Var()] = false
		pathC--
		if pathC == 0 {
			break
		}
		confl = s.reason[p.Var()]
	}
	learnt[0] = p.Not()

	// Cheap self-subsumption: drop literals implied by the rest of the
	// clause through their reason clauses. The seen flags of removed
	// literals stay set during the pass (transitive implications remain
	// valid) and are cleared together with the kept ones below.
	var removed []Lit
	out := learnt[:1]
	for _, l := range learnt[1:] {
		if s.litRedundant(l) {
			removed = append(removed, l)
		} else {
			out = append(out, l)
		}
	}
	learnt = out

	// Backtrack level: the highest level among the non-asserting literals.
	btLevel := 0
	for i := 1; i < len(learnt); i++ {
		if lv := int(s.level[learnt[i].Var()]); lv > btLevel {
			btLevel = lv
			// Keep the literal with the backtrack level at position 1 so the
			// learnt clause watches sensibly.
			learnt[1], learnt[i] = learnt[i], learnt[1]
		}
	}
	for _, l := range learnt {
		s.seen[l.Var()] = false
	}
	for _, l := range removed {
		s.seen[l.Var()] = false
	}
	return learnt, btLevel
}

// litRedundant reports whether every antecedent of l's reason clause is
// already in the learnt clause (marked seen) or at the root level.
func (s *Solver) litRedundant(l Lit) bool {
	c := s.reason[l.Var()]
	if c == nil {
		return false
	}
	for _, q := range c.lits {
		if q.Var() == l.Var() {
			continue
		}
		if !s.seen[q.Var()] && s.level[q.Var()] > 0 {
			return false
		}
	}
	return true
}

// analyzeFinal computes the subset of the current call's assumptions
// responsible for forcing assumption p false — MiniSat's analyzeFinal,
// expressed over assumption literals instead of a conflict clause. It
// walks the trail top-down from the failure point, expanding reason
// clauses transitively; a marked trail literal with no reason is an
// assumption pseudo-decision (free-search decisions cannot exist yet: the
// re-establish loop runs before any free branching) and joins the core.
// Reason clauses carry the implied literal at an arbitrary position (the
// binary fast path enqueues the blocker), so antecedents are skipped by
// variable, as in litRedundant. The result lands in s.failed with p first.
func (s *Solver) analyzeFinal(p Lit) {
	s.failed = append(s.failed[:0], p)
	if s.decisionLevel() == 0 {
		return
	}
	s.seen[p.Var()] = true
	bound := s.trailLim[0]
	for i := len(s.trail) - 1; i >= bound; i-- {
		v := s.trail[i].Var()
		if !s.seen[v] {
			continue
		}
		if c := s.reason[v]; c == nil {
			if s.level[v] > 0 {
				s.failed = append(s.failed, s.trail[i])
			}
		} else {
			for _, q := range c.lits {
				if q.Var() != v && s.level[q.Var()] > 0 {
					s.seen[q.Var()] = true
				}
			}
		}
		s.seen[v] = false
	}
	s.seen[p.Var()] = false
}

func (s *Solver) cancelUntil(level int) {
	if s.decisionLevel() <= level {
		return
	}
	bound := s.trailLim[level]
	for i := len(s.trail) - 1; i >= bound; i-- {
		v := s.trail[i].Var()
		s.polarity[v] = s.assigns[v] == lFalse
		s.assigns[v] = lUndef
		s.reason[v] = nil
		s.order.insert(v)
	}
	s.trail = s.trail[:bound]
	s.trailLim = s.trailLim[:level]
	s.qhead = len(s.trail)
	s.dfCursor = 0
}

func (s *Solver) varBump(v int) {
	s.activity[v] += s.varInc
	if s.activity[v] > 1e100 {
		for i := range s.activity {
			s.activity[i] *= 1e-100
		}
		s.varInc *= 1e-100
	}
	s.order.update(v)
}

func (s *Solver) varDecay() { s.varInc /= 0.95 }

func (s *Solver) claBump(c *clause) {
	if !c.learnt {
		return
	}
	c.act += s.claInc
	if c.act > 1e20 {
		for _, l := range s.learnts {
			l.act *= 1e-20
		}
		s.claInc *= 1e-20
	}
}

func (s *Solver) claDecay() { s.claInc /= 0.999 }

// pickBranchVar returns the next unassigned variable to branch on: the
// explicit decision order first (cursor resets on backtrack), then the
// highest-activity variable from the order heap.
func (s *Solver) pickBranchVar() int {
	for s.dfCursor < len(s.decideFirst) {
		v := s.decideFirst[s.dfCursor]
		if s.assigns[v] == lUndef {
			return v
		}
		s.dfCursor++
	}
	for !s.order.empty() {
		v := s.order.pop()
		if s.assigns[v] == lUndef {
			return v
		}
	}
	return -1
}

// reduceDB removes roughly half of the learnt clauses, lowest activity first,
// keeping binary clauses and clauses that are the reason for an assignment.
func (s *Solver) reduceDB() {
	if len(s.learnts) < 2 {
		return
	}
	ls := s.learnts
	sort.Slice(ls, func(i, j int) bool { return ls[i].act < ls[j].act })
	keep := ls[:0]
	limit := len(ls) / 2
	for i, c := range ls {
		locked := s.reason[c.lits[0].Var()] == c
		if len(c.lits) <= 2 || locked || i >= limit {
			keep = append(keep, c)
		} else {
			s.detach(c)
		}
	}
	s.learnts = keep
}

func (s *Solver) detach(c *clause) {
	for _, w := range []Lit{c.lits[0].Not(), c.lits[1].Not()} {
		ws := s.watches[w]
		for i := range ws {
			if ws[i].c == c {
				ws[i] = ws[len(ws)-1]
				s.watches[w] = ws[:len(ws)-1]
				break
			}
		}
	}
}

// luby returns the x-th element (0-based) of the Luby restart sequence
// 1, 1, 2, 1, 1, 2, 4, 1, 1, 2, 1, 1, 2, 4, 8, ...
func luby(x int64) int64 {
	size, seq := int64(1), 0
	for size < x+1 {
		seq++
		size = 2*size + 1
	}
	for size-1 != x {
		size = (size - 1) / 2
		seq--
		x %= size
	}
	return 1 << uint(seq)
}

// Solve searches for a satisfying assignment. It returns (true, nil) when one
// exists (retrievable via Value/Model), (false, nil) when the formula is
// unsatisfiable, and (false, ErrBudget) when MaxConflicts was exceeded.
func (s *Solver) Solve() (bool, error) { return s.SolveUnderAssumptions() }

// SolveUnderAssumptions searches for a satisfying assignment under a set of
// assumed literals, MiniSat-style: the assumptions act as pseudo-decisions
// taken before the free search, so nothing is added to the clause database
// and every learnt clause remains valid for later calls with different (or
// no) assumptions. It returns (false, nil) both when the formula itself is
// unsatisfiable and when it is unsatisfiable only under the assumptions;
// in the latter case the solver stays satisfiable and reusable. This is the
// incremental-solving primitive: callers keep one solver alive, toggle
// guard literals via assumptions, and retain all learned state across
// re-solves.
func (s *Solver) SolveUnderAssumptions(assumptions ...Lit) (bool, error) {
	s.failed = s.failed[:0]
	if s.timeout > 0 {
		s.deadline = time.Now().Add(s.timeout)
	} else {
		s.deadline = time.Time{}
	}
	if !s.ok {
		return false, nil
	}
	for _, a := range assumptions {
		if a.Var() >= s.NumVars() {
			panic(fmt.Sprintf("sat: assumption %v references unknown variable", a))
		}
	}
	// Assumption-prefix trail reuse: a successful solve leaves its assumption
	// levels on the trail (see the model-recording return below). When the
	// next call shares a prefix of those assumptions, the prefix's decisions
	// and their propagations are already in place and need not be replayed —
	// only the suffix is re-established. Callers that fan many solves out of
	// one formula (BEEP crafts one pattern per target bit this way) order
	// their most-stable assumptions first to maximize the match.
	reuse := 0
	for reuse < len(assumptions) && reuse < s.decisionLevel() {
		base := s.trailLim[reuse]
		end := len(s.trail)
		if reuse+1 < s.decisionLevel() {
			end = s.trailLim[reuse+1]
		}
		// Empty levels mark assumptions that were already implied when they
		// were established; without replaying we cannot attribute them, so
		// matching stops there.
		if end <= base || s.trail[base] != assumptions[reuse] {
			break
		}
		reuse++
	}
	s.cancelUntil(reuse)
	if s.propagate() != nil {
		s.ok = false
		return false, nil
	}
	var conflictsThisCall int64
	restart := int64(0)
	budget := int64(100) * luby(0)
	var sinceRestart int64
	maxLearnts := int64(len(s.clauses)/3 + 2000)
	for {
		confl := s.propagate()
		if confl != nil {
			s.Stats.Conflicts++
			conflictsThisCall++
			sinceRestart++
			if s.decisionLevel() == 0 {
				s.ok = false
				return false, nil
			}
			learnt, btLevel := s.analyze(confl)
			s.cancelUntil(btLevel)
			if len(learnt) == 1 {
				s.uncheckedEnqueue(learnt[0], nil)
			} else {
				c := &clause{lits: learnt, learnt: true, act: s.claInc}
				s.learnts = append(s.learnts, c)
				s.attach(c)
				s.uncheckedEnqueue(learnt[0], c)
				s.Stats.Learnt++
			}
			s.varDecay()
			s.claDecay()
			if s.MaxConflicts > 0 && conflictsThisCall > s.MaxConflicts {
				s.cancelUntil(0)
				return false, ErrBudget
			}
			if err := s.stopRequested(); err != nil {
				s.cancelUntil(0)
				return false, err
			}
			continue
		}
		if sinceRestart >= budget {
			restart++
			s.Stats.Restarts++
			sinceRestart = 0
			budget = 100 * luby(restart)
			s.cancelUntil(0)
			if err := s.stopRequested(); err != nil {
				return false, err
			}
			continue
		}
		if int64(len(s.learnts)) > maxLearnts {
			s.reduceDB()
			maxLearnts = maxLearnts*11/10 + 1
		}
		// Re-establish assumptions as pseudo-decisions: one decision level
		// per assumption (restarts and deep backjumps pop them; this loop
		// puts them back before any free branching resumes).
		next := litUndef
		for next == litUndef && s.decisionLevel() < len(assumptions) {
			a := assumptions[s.decisionLevel()]
			switch s.valueLit(a) {
			case lTrue:
				// Already implied: open an empty level so the remaining
				// assumptions keep their positional levels.
				s.trailLim = append(s.trailLim, len(s.trail))
			case lFalse:
				// The clause database forces the negation under the earlier
				// assumptions: UNSAT under assumptions, formula untouched.
				// The established prefix stays on the trail so the next
				// call can still reuse it. Derive the failed-assumption
				// core before returning — this is the only exit that
				// answers UNSAT-under-assumptions.
				s.analyzeFinal(a)
				return false, nil
			default:
				next = a
			}
		}
		if next == litUndef {
			// Total-assignment check by trail length: when propagation has
			// assigned every variable, draining the order heap just to
			// discover there is nothing left to decide costs hundreds of
			// O(log n) pops per solve on formulas that complete with few
			// conflicts (the BEEP crafting workload). The heap keeps the
			// assigned vars; they are discarded lazily on later pops.
			v := -1
			if len(s.trail) != len(s.assigns) {
				v = s.pickBranchVar()
			}
			if v == -1 {
				// All variables assigned: record the model. Free-search
				// decisions are popped but the assumption levels stay on the
				// trail so the next call can reuse a shared prefix.
				if len(s.model) != s.NumVars() {
					s.model = make([]bool, s.NumVars())
				}
				for i := range s.model {
					s.model[i] = s.assigns[i] == lTrue
				}
				s.cancelUntil(len(assumptions))
				return true, nil
			}
			s.Stats.Decisions++
			// Poll the abort hooks on the decision path too: a formula
			// the solver satisfies without conflicting or restarting must
			// still observe cancellation (or a deadline) within a bounded
			// number of steps.
			if s.Stats.Decisions&63 == 0 {
				if err := s.stopRequested(); err != nil {
					s.cancelUntil(0)
					return false, err
				}
			}
			next = MkLit(v, s.polarity[v])
		}
		s.trailLim = append(s.trailLim, len(s.trail))
		s.uncheckedEnqueue(next, nil)
	}
}

// Value returns variable v's value in the most recent model. Valid only after
// Solve returned true.
func (s *Solver) Value(v int) bool {
	if s.model == nil {
		panic("sat: Value called without a model")
	}
	return s.model[v]
}

// ValueLit returns literal l's value in the most recent model.
func (s *Solver) ValueLit(l Lit) bool { return s.Value(l.Var()) != l.Sign() }

// Model returns a copy of the most recent satisfying assignment.
func (s *Solver) Model() []bool {
	m := make([]bool, len(s.model))
	copy(m, s.model)
	return m
}

// varHeap is a binary max-heap over variable activities with position
// tracking so updates are O(log n).
type varHeap struct {
	heap     []int
	pos      []int // pos[v] = index in heap, or -1
	activity *[]float64
}

func (h *varHeap) less(a, b int) bool {
	act := *h.activity
	return act[h.heap[a]] > act[h.heap[b]]
}

func (h *varHeap) swap(a, b int) {
	h.heap[a], h.heap[b] = h.heap[b], h.heap[a]
	h.pos[h.heap[a]] = a
	h.pos[h.heap[b]] = b
}

func (h *varHeap) up(i int) {
	for i > 0 {
		parent := (i - 1) / 2
		if !h.less(i, parent) {
			break
		}
		h.swap(i, parent)
		i = parent
	}
}

func (h *varHeap) down(i int) {
	n := len(h.heap)
	for {
		l, r := 2*i+1, 2*i+2
		best := i
		if l < n && h.less(l, best) {
			best = l
		}
		if r < n && h.less(r, best) {
			best = r
		}
		if best == i {
			return
		}
		h.swap(i, best)
		i = best
	}
}

func (h *varHeap) insert(v int) {
	for len(h.pos) <= v {
		h.pos = append(h.pos, -1)
	}
	if h.pos[v] != -1 {
		return
	}
	h.heap = append(h.heap, v)
	h.pos[v] = len(h.heap) - 1
	h.up(len(h.heap) - 1)
}

func (h *varHeap) update(v int) {
	if v < len(h.pos) && h.pos[v] != -1 {
		h.up(h.pos[v])
		h.down(h.pos[v])
	}
}

func (h *varHeap) empty() bool { return len(h.heap) == 0 }

func (h *varHeap) pop() int {
	v := h.heap[0]
	last := len(h.heap) - 1
	h.swap(0, last)
	h.heap = h.heap[:last]
	h.pos[v] = -1
	if last > 0 {
		h.down(0)
	}
	return v
}
