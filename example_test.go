package repro_test

import (
	"context"
	"fmt"
	"strings"

	"repro"
)

// ExampleNewPipeline recovers the paper's running-example (7,4) Hamming code
// (Eq. 1) from its miscorrection profile: the profile is computed with the
// analytic oracle (no simulated chip needed), and the pipeline's solver
// finds every consistent ECC function, proving uniqueness. This is the solve
// stage of the full methodology; Pipeline.Recover runs the same thing after
// collecting the profile from a chip.
func ExampleNewPipeline() {
	code := repro.Hamming74()
	patterns := append(repro.OneChargedPatterns(4), repro.TwoChargedPatterns(4)...)
	profile := repro.ExactProfile(code, patterns)

	pipe := repro.NewPipeline(repro.WithMaxSolutions(-1))
	result, err := pipe.Solve(context.Background(), profile)
	if err != nil {
		fmt.Println("solve:", err)
		return
	}
	fmt.Println("unique:", result.Unique)
	fmt.Println("candidates:", len(result.Codes))
	// The solver returns the canonical representative of the code's
	// equivalence class; compare up to parity-row relabeling.
	fmt.Println("matches ground truth:", result.Codes[0].EquivalentTo(code))
	// Output:
	// unique: true
	// candidates: 1
	// matches ground truth: true
}

// ExampleNewDimacsBackend records the constraint system a solve builds and
// exports it as DIMACS CNF, the input format of Z3, kissat and CaDiCaL. The
// recording backend delegates every solve to the in-process engine, so the
// answer is the same as without it.
func ExampleNewDimacsBackend() {
	code := repro.Hamming74()
	patterns := append(repro.OneChargedPatterns(4), repro.TwoChargedPatterns(4)...)
	profile := repro.ExactProfile(code, patterns)

	var rec *repro.DimacsBackend
	pipe := repro.NewPipeline(repro.WithSolverBackend(func() repro.SolverBackend {
		rec = repro.NewDimacsBackend()
		return rec
	}))
	result, err := pipe.Solve(context.Background(), profile)
	if err != nil {
		fmt.Println("solve:", err)
		return
	}
	var cnf strings.Builder
	if err := rec.WriteDIMACS(&cnf); err != nil {
		fmt.Println("export:", err)
		return
	}
	fmt.Println("unique:", result.Unique)
	fmt.Println("matches ground truth:", result.Codes[0].EquivalentTo(code))
	fmt.Println("DIMACS header:", strings.HasPrefix(cnf.String(), "p cnf "))
	// Output:
	// unique: true
	// matches ground truth: true
	// DIMACS header: true
}
