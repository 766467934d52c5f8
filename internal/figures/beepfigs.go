package figures

import (
	"context"
	"fmt"
	"io"
	"math/rand/v2"

	"repro/internal/beep"
	"repro/internal/ecc"
)

func init() {
	register(Generator{ID: "fig7", Description: "Figure 7: worked BEEP example on one (136,128) codeword", Run: fig7})
	register(Generator{ID: "fig8", Description: "Figure 8: BEEP success rate, 1 vs 2 passes, by codeword length and error count", Run: fig8})
	register(Generator{ID: "fig9", Description: "Figure 9: BEEP success rate vs per-bit error probability", Run: fig9})
}

// fig7 walks through the paper's Figure 7 example: BEEP profiling one
// 136-bit codeword (128 data bits), printing the three phases for the first
// few target bits and the final identified error set.
func fig7(ctx context.Context, w io.Writer, scale Scale) error {
	k := 128
	if scale == ScaleQuick {
		k = 32
	}
	rng := rand.New(rand.NewPCG(0xF7, 7))
	code := ecc.RandomHamming(k, rng)
	cells := rng.Perm(code.N())[:4]
	word := &beep.SimWord{Code: code, ErrorCells: cells, PErr: 1.0, Rng: rng}
	fmt.Fprintf(w, "Figure 7: BEEP on a single %d-bit codeword (%d-bit dataword)\n", code.N(), k)
	fmt.Fprintf(w, "hidden error-prone cells (ground truth): %v\n\n", sortedInts(cells))
	prof := beep.NewProfiler(code, beep.Options{Passes: 2, TrialsPerPattern: 1, WorstCaseNeighbors: true}, rng)
	out, err := prof.Run(ctx, word)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "phase 1+2: crafted and tested %d patterns (%d targets skipped)\n", out.PatternsTested, out.SkippedBits)
	fmt.Fprintf(w, "phase 3: %d miscorrections observed and inverted via Equation 4\n", out.Miscorrections)
	fmt.Fprintf(w, "identified pre-correction error cells: %v\n", out.Identified)
	match := "EXACT MATCH"
	if !equalIntSets(out.Identified, cells) {
		match = "PARTIAL (see Figure 8 for success-rate statistics)"
	}
	fmt.Fprintf(w, "ground-truth comparison: %s\n", match)
	return nil
}

func sortedInts(xs []int) []int {
	out := append([]int(nil), xs...)
	for i := 1; i < len(out); i++ {
		for j := i; j > 0 && out[j] < out[j-1]; j-- {
			out[j], out[j-1] = out[j-1], out[j]
		}
	}
	return out
}

func equalIntSets(sorted, unsorted []int) bool {
	if len(sorted) != len(unsorted) {
		return false
	}
	m := map[int]bool{}
	for _, x := range unsorted {
		m[x] = true
	}
	for _, x := range sorted {
		if !m[x] {
			return false
		}
	}
	return true
}

// fig8Words picks the Monte-Carlo sample size per grid cell: the paper uses
// 100 codewords everywhere; the pure-Go SAT crafting makes long codes costly,
// so smaller scales trim the counts while keeping the series shape.
func fig8Words(n int, scale Scale) int {
	switch scale {
	case ScaleQuick:
		switch {
		case n <= 31:
			return 10
		case n <= 63:
			return 6
		default:
			return 3
		}
	case ScaleDefault:
		switch {
		case n <= 31:
			return 40
		case n <= 63:
			return 25
		case n <= 127:
			return 10
		default:
			return 5
		}
	default:
		return 100
	}
}

// fig8 reproduces Figure 8: BEEP success rate for 1 vs 2 passes across
// codeword lengths {31, 63, 127, 255} and injected error counts
// {2,3,4,5,10,15,20,25}, with all injected cells failing deterministically
// (P[error] = 1).
func fig8(ctx context.Context, w io.Writer, scale Scale) error {
	lengths := []int{31, 63, 127, 255}
	if scale == ScaleQuick {
		lengths = []int{31, 63}
	}
	errCounts := []int{2, 3, 4, 5, 10, 15, 20, 25}
	fmt.Fprintln(w, "Figure 8: BEEP success rate (P[error]=1.0)")
	fmt.Fprintf(w, "%-10s %-8s %-8s %-10s %-10s\n", "codeword", "errors", "words", "1 pass", "2 passes")
	for _, n := range lengths {
		words := fig8Words(n, scale)
		for _, ne := range errCounts {
			if ne >= n {
				continue
			}
			row := make([]float64, 0, 2)
			for _, passes := range []int{1, 2} {
				res, err := beep.Evaluate(ctx, beep.EvalConfig{
					CodewordBits:     n,
					ErrorsPerWord:    ne,
					PErr:             1.0,
					Passes:           passes,
					TrialsPerPattern: 1,
					Words:            words,
				}, rand.New(rand.NewPCG(0xF8, uint64(n*1000+ne*10+passes))))
				if err != nil {
					return err
				}
				row = append(row, res.SuccessRate())
			}
			fmt.Fprintf(w, "%-10d %-8d %-8d %-10.2f %-10.2f\n", n, ne, words, row[0], row[1])
		}
	}
	fmt.Fprintln(w, "\nPaper shape checkpoints: 127/255-bit codewords near 100% even with 1 pass; 2 passes help short codewords.")
	return nil
}

// fig9 reproduces Figure 9: single-pass BEEP success rate for per-bit error
// probabilities {1.0, 0.75, 0.5, 0.25} across codeword lengths {31, 63, 127}.
func fig9(ctx context.Context, w io.Writer, scale Scale) error {
	lengths := []int{31, 63, 127}
	if scale == ScaleQuick {
		lengths = []int{31, 63}
	}
	errCounts := []int{2, 3, 4, 5, 10, 15, 20, 25}
	probs := []float64{1.0, 0.75, 0.5, 0.25}
	fmt.Fprintln(w, "Figure 9: BEEP success rate by per-bit error probability (1 pass)")
	fmt.Fprintf(w, "%-10s %-8s %-8s", "codeword", "errors", "words")
	for _, p := range probs {
		fmt.Fprintf(w, " P=%-6.2f", p)
	}
	fmt.Fprintln(w)
	for _, n := range lengths {
		words := fig8Words(n, scale)
		for _, ne := range errCounts {
			if ne >= n {
				continue
			}
			fmt.Fprintf(w, "%-10d %-8d %-8d", n, ne, words)
			for _, p := range probs {
				res, err := beep.Evaluate(ctx, beep.EvalConfig{
					CodewordBits:     n,
					ErrorsPerWord:    ne,
					PErr:             p,
					Passes:           1,
					TrialsPerPattern: 1,
					Words:            words,
				}, rand.New(rand.NewPCG(0xF9, uint64(n)*100000+uint64(ne)*100+uint64(p*100))))
				if err != nil {
					return err
				}
				fmt.Fprintf(w, " %-8.2f", res.SuccessRate())
			}
			fmt.Fprintln(w)
		}
	}
	fmt.Fprintln(w, "\nPaper shape checkpoints: success falls with lower P[error], least for long codewords.")
	return nil
}
