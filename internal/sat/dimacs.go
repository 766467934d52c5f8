package sat

// DIMACS CNF as data: a parsed (or parseable) formula detached from any
// backend. The Dimacs recording backend produces this format (WriteDIMACS);
// ParseDIMACS is its inverse, so corpora — the satlib regression harness,
// recorded BEER uniqueness-loop formulas, external-solver inputs — feed
// every Backend implementation through one representation.

import (
	"bufio"
	"fmt"
	"io"
	"strconv"
	"strings"
)

// CNF is a plain DIMACS formula: a variable count plus clauses over
// 0-based literals. Assumptions carries the "c assumptions:" comment the
// Dimacs recorder emits for incremental queries (DIMACS has no assumption
// syntax; externally they are applied as unit clauses).
type CNF struct {
	Vars        int
	Clauses     [][]Lit
	Assumptions []Lit
}

// maxVar returns the highest 0-based variable index referenced by any
// clause or assumption, or -1 for a formula with no literals.
func (c *CNF) maxVar() int {
	maxVar := -1
	for _, cl := range c.Clauses {
		for _, l := range cl {
			if v := l.variable(); v > maxVar {
				maxVar = v
			}
		}
	}
	for _, a := range c.Assumptions {
		if v := a.variable(); v > maxVar {
			maxVar = v
		}
	}
	return maxVar
}

// headerVars is the variable count the "p cnf" header must carry: the
// declared count, or more when a clause references a variable beyond it.
// Computed at write time, never cached — the regression against stale
// headers after post-write growth (see WriteDIMACS).
func (c *CNF) headerVars() int {
	n := c.Vars
	if m := c.maxVar() + 1; m > n {
		n = m
	}
	return n
}

// Write emits the formula in DIMACS CNF format. The header is recounted
// from the live clause set on every call, so writing, growing the formula,
// and writing again always yields a consistent second export.
func (c *CNF) Write(w io.Writer) error {
	bw := bufio.NewWriter(w)
	if _, err := fmt.Fprintf(bw, "p cnf %d %d\n", c.headerVars(), len(c.Clauses)); err != nil {
		return err
	}
	if len(c.Assumptions) > 0 {
		if _, err := fmt.Fprint(bw, "c assumptions:"); err != nil {
			return err
		}
		for _, a := range c.Assumptions {
			if _, err := fmt.Fprintf(bw, " %d", dimacsLit(a)); err != nil {
				return err
			}
		}
		if _, err := fmt.Fprintln(bw); err != nil {
			return err
		}
	}
	for _, cl := range c.Clauses {
		for _, l := range cl {
			if _, err := fmt.Fprintf(bw, "%d ", dimacsLit(l)); err != nil {
				return err
			}
		}
		if _, err := fmt.Fprintln(bw, "0"); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// Feed replays the formula into a fresh builder: the formula's variable
// count is allocated, then every clause is added. Assumptions are NOT
// applied (they are per-query, not part of the formula); callers pass them
// to SolveUnderAssumptions. The builder must be empty — the formula's
// variable 0 becomes the builder's variable 0.
func (c *CNF) Feed(b Builder) {
	for i := 0; i < c.headerVars(); i++ {
		b.NewVar()
	}
	for _, cl := range c.Clauses {
		b.Add(cl...)
	}
}

// Satisfied reports whether assignment (indexed by variable) satisfies
// every clause, and returns the first violated clause otherwise — the
// model-verification primitive the differential tests use to distrust
// solver output.
func (c *CNF) Satisfied(assignment []bool) (ok bool, violated []Lit) {
	litVal := func(l Lit) bool {
		v := l.variable()
		if v >= len(assignment) {
			return l.sign() // unassigned defaults false
		}
		return assignment[v] != l.sign()
	}
	for _, cl := range c.Clauses {
		sat := false
		for _, l := range cl {
			if litVal(l) {
				sat = true
				break
			}
		}
		if !sat {
			return false, cl
		}
	}
	return true, nil
}

// ParseDIMACS parses a DIMACS CNF stream: a "p cnf vars clauses" header,
// clauses as 0-terminated integer runs (free-form whitespace, clauses may
// span lines), "c" comment lines, and the SATLIB trailing "%" end marker.
// A "c assumptions: ..." comment (the Dimacs recorder's incremental-query
// annotation) is parsed back into CNF.Assumptions. The declared variable
// count is trusted but grown when clauses reference beyond it.
func ParseDIMACS(r io.Reader) (*CNF, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 16*1024*1024)
	cnf := &CNF{}
	sawHeader := false
	declaredClauses := -1
	var cur []Lit
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := strings.TrimSpace(sc.Text())
		switch {
		case line == "":
			continue
		case strings.HasPrefix(line, "c"):
			if rest, ok := strings.CutPrefix(line, "c assumptions:"); ok {
				for _, tok := range strings.Fields(rest) {
					n, err := strconv.Atoi(tok)
					if err != nil || n == 0 {
						return nil, fmt.Errorf("sat: dimacs line %d: bad assumption literal %q", lineNo, tok)
					}
					cnf.Assumptions = append(cnf.Assumptions, litFromDimacs(n))
				}
			}
			continue
		case strings.HasPrefix(line, "%"):
			// SATLIB files end with "%\n0\n"; everything after is padding.
			goto done
		case strings.HasPrefix(line, "p"):
			if sawHeader {
				return nil, fmt.Errorf("sat: dimacs line %d: duplicate header", lineNo)
			}
			f := strings.Fields(line)
			if len(f) != 4 || f[1] != "cnf" {
				return nil, fmt.Errorf("sat: dimacs line %d: malformed header %q", lineNo, line)
			}
			v, err1 := strconv.Atoi(f[2])
			nc, err2 := strconv.Atoi(f[3])
			if err1 != nil || err2 != nil || v < 0 || nc < 0 {
				return nil, fmt.Errorf("sat: dimacs line %d: malformed header %q", lineNo, line)
			}
			cnf.Vars, declaredClauses = v, nc
			sawHeader = true
			continue
		}
		if !sawHeader {
			return nil, fmt.Errorf("sat: dimacs line %d: clause before \"p cnf\" header", lineNo)
		}
		for _, tok := range strings.Fields(line) {
			n, err := strconv.Atoi(tok)
			if err != nil {
				return nil, fmt.Errorf("sat: dimacs line %d: bad literal %q", lineNo, tok)
			}
			if n == 0 {
				cnf.Clauses = append(cnf.Clauses, cur)
				cur = nil
				continue
			}
			cur = append(cur, litFromDimacs(n))
		}
	}
done:
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("sat: dimacs read: %w", err)
	}
	if !sawHeader {
		return nil, fmt.Errorf("sat: dimacs: missing \"p cnf\" header")
	}
	if len(cur) > 0 {
		return nil, fmt.Errorf("sat: dimacs: unterminated clause %v at EOF", cur)
	}
	// A SATLIB-style trailing "0" after the % marker would have been cut at
	// the marker; a count mismatch against the header is tolerated (many
	// published files disagree with their own headers) but the variable
	// count must cover every literal.
	_ = declaredClauses
	if m := cnf.maxVar() + 1; m > cnf.Vars {
		cnf.Vars = m
	}
	return cnf, nil
}

// litFromDimacs converts a nonzero DIMACS integer literal to a Lit.
func litFromDimacs(n int) Lit {
	if n < 0 {
		return NegLit(-n - 1)
	}
	return PosLit(n - 1)
}
