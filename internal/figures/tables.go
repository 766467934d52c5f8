package figures

import (
	"context"
	"fmt"
	"io"
	"strings"

	"repro/internal/core"
	"repro/internal/ecc"
	"repro/internal/gf2"
)

func init() {
	register(Generator{ID: "table1", Description: "Table 1: error patterns, syndromes and outcomes for the Equation-3 codeword of the (7,4) Hamming code", Run: table1})
	register(Generator{ID: "table2", Description: "Table 2: miscorrection profile of the (7,4) Hamming code under the 1-CHARGED patterns", Run: table2})
}

// table1 reproduces the paper's Table 1. The Equation-3 codeword is
// [D D C D | D C C]: data bit 2 and parity bits 1 and 2 (codeword positions
// 5 and 6) are CHARGED. Since only CHARGED cells can experience
// data-retention errors, the 2^3 subsets of {2, 5, 6} are the possible error
// patterns; the syndrome of each is the XOR of the matching parity-check
// columns, and the outcome follows from the error count (No error /
// Correctable / Uncorrectable for a single-error-correcting code).
func table1(ctx context.Context, w io.Writer, _ Scale) error {
	code := ecc.Hamming74()
	charged := []int{2, 5, 6} // codeword positions of CHARGED cells (Eq. 3)
	fmt.Fprintln(w, "Table 1: data-retention error patterns for codeword [D D C D | D C C] (Eq. 3)")
	fmt.Fprintf(w, "%-24s %-22s %s\n", "Pre-Correction Errors", "Syndrome", "Outcome")
	for mask := 0; mask < 1<<uint(len(charged)); mask++ {
		var errPos []int
		syndrome := gf2.NewVec(code.ParityBits())
		name := ""
		for i, c := range charged {
			if mask>>uint(i)&1 == 1 {
				errPos = append(errPos, c)
				syndrome.XorInto(code.Column(c))
				if name != "" {
					name += " + "
				}
				name += fmt.Sprintf("H*,%d", c)
			}
		}
		if name == "" {
			name = "0"
		}
		fmt.Fprintf(w, "%-24s %-22s %s\n", errPattern(errPos, code.N()), name, classify(len(errPos)))
	}
	return nil
}

func errPattern(errPos []int, n int) string {
	var sb strings.Builder
	sb.WriteByte('[')
	for i := 0; i < n; i++ {
		if i == 4 {
			sb.WriteString("| ")
		}
		bit := "0"
		for _, p := range errPos {
			if p == i {
				bit = "1"
			}
		}
		sb.WriteString(bit)
		if i != n-1 {
			sb.WriteByte(' ')
		}
	}
	sb.WriteByte(']')
	return sb.String()
}

func classify(errCount int) string {
	switch {
	case errCount == 0:
		return "No error"
	case errCount == 1:
		return "Correctable"
	default:
		return "Uncorrectable"
	}
}

// table2 reproduces the paper's Table 2: the 1-CHARGED miscorrection profile
// of the Equation-1 code, printed with the paper's -, 1, ? notation.
func table2(ctx context.Context, w io.Writer, _ Scale) error {
	code := ecc.Hamming74()
	prof := core.ExactProfile(code, core.OneCharged(code.K()))
	fmt.Fprintln(w, "Table 2: miscorrection profile of the (7,4) Hamming code (Eq. 1)")
	fmt.Fprintf(w, "%-12s %-22s %s\n", "Pattern ID", "1-CHARGED Pattern", "Possible Miscorrections")
	// The paper lists patterns from ID 3 down to 0.
	for i := len(prof.Entries) - 1; i >= 0; i-- {
		e := prof.Entries[i]
		a := e.Pattern.Charged()[0]
		var pat, misc strings.Builder
		pat.WriteByte('[')
		misc.WriteByte('[')
		for b := 0; b < code.K(); b++ {
			if b > 0 {
				pat.WriteByte(' ')
				misc.WriteByte(' ')
			}
			if b == a {
				pat.WriteByte('C')
				misc.WriteByte('?')
			} else {
				pat.WriteByte('D')
				if e.Possible.Get(b) {
					misc.WriteByte('1')
				} else {
					misc.WriteByte('-')
				}
			}
		}
		pat.WriteByte(']')
		misc.WriteByte(']')
		fmt.Fprintf(w, "%-12d %-22s %s\n", a, pat.String(), misc.String())
	}
	return nil
}
