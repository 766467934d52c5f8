package figures

import (
	"context"
	"fmt"
	"io"
	"math/rand/v2"

	"repro/internal/core"
	"repro/internal/ecc"
)

func init() {
	register(Generator{ID: "fig5", Description: "Figure 5: number of candidate ECC functions per pattern set vs dataword length", Run: fig5})
}

// fig5Point is one (dataword length, pattern set) measurement.
type fig5Point struct {
	K        int
	Set      core.PatternSet
	Min      int
	Median   int
	Max      int
	Trials   int
	Capped   bool // some trial hit the enumeration cap
	SolCount []int
}

// fig5Sweep runs the Figure 5 experiment programmatically: for each dataword
// length and pattern family, generate random SEC Hamming codes, compute
// their exact miscorrection profiles, and count how many candidate functions
// BEER's solver finds. The paper's result: {1,2}-CHARGED always yields
// exactly one function; 1-CHARGED alone yields one for full-length codes and
// sometimes several for shortened codes.
//
// Trials are independent, so the sweep fans out over the shared parallel
// experiment engine (the paper parallelizes the same way over ten Xeon
// servers). Each trial's code is derived from (seed, k, set, trial), so
// results are deterministic regardless of scheduling. Profiles go through
// the engine's LRU cache: within one sweep every code is fresh (the pattern
// cache is what saves rematerializing the quadratic 2-CHARGED families per
// trial), but repeated sweeps — benchmark iterations, a figure regenerated
// at another scale sharing (k, set, trial) prefixes — hit it.
func fig5Sweep(ctx context.Context, ks []int, sets []core.PatternSet, trials, cap3 int, seed uint64) ([]fig5Point, error) {
	const solutionCap = 200 // paper's Figure 5 y-axis tops out near 10^2

	type job struct {
		point int // index into points
		k     int
		set   core.PatternSet
		trial int
	}
	type answer struct {
		nsol    int
		capped  bool
		missing bool // exhausted search did not contain the true code
	}

	var points []fig5Point
	var jobs []job
	for _, k := range ks {
		for _, set := range sets {
			if set == core.Set3 && k > cap3 {
				continue // 3-CHARGED explodes combinatorially; the paper also limits it
			}
			points = append(points, fig5Point{K: k, Set: set, Trials: trials, Min: solutionCap + 1})
			for trial := 0; trial < trials; trial++ {
				jobs = append(jobs, job{point: len(points) - 1, k: k, set: set, trial: trial})
			}
		}
	}

	eng := engine()
	answers := make([]answer, len(jobs))
	err := eng.ForEach(ctx, len(jobs), func(i int) error {
		j := jobs[i]
		rng := rand.New(rand.NewPCG(seed, uint64(j.k)<<32|uint64(int(j.set))<<16|uint64(j.trial)))
		code := ecc.RandomHamming(j.k, rng)
		prof := eng.ExactProfile(code, j.set, false)
		res, err := core.Solve(ctx, prof, core.SolveOptions{
			ParityBits:   code.ParityBits(),
			MaxSolutions: solutionCap,
		})
		if err != nil {
			return fmt.Errorf("fig5 k=%d set=%v: %w", j.k, j.set, err)
		}
		a := answer{nsol: len(res.Codes), capped: !res.Exhausted}
		found := false
		for _, cand := range res.Codes {
			if cand.EquivalentTo(code) {
				found = true
				break
			}
		}
		a.missing = !found && res.Exhausted
		answers[i] = a
		return nil
	})
	if err != nil {
		return nil, err
	}
	for i, a := range answers {
		j := jobs[i]
		if a.missing {
			return nil, fmt.Errorf("fig5 k=%d set=%v: true code missing from solutions", j.k, j.set)
		}
		pt := &points[j.point]
		if a.capped {
			pt.Capped = true
		}
		pt.SolCount = append(pt.SolCount, a.nsol)
		if a.nsol < pt.Min {
			pt.Min = a.nsol
		}
		if a.nsol > pt.Max {
			pt.Max = a.nsol
		}
	}
	for i := range points {
		counts := append([]int(nil), points[i].SolCount...)
		for x := 1; x < len(counts); x++ {
			for j := x; j > 0 && counts[j] < counts[j-1]; j-- {
				counts[j], counts[j-1] = counts[j-1], counts[j]
			}
		}
		points[i].Median = counts[len(counts)/2]
	}
	return points, nil
}

// fig5 renders the sweep. The y-values are counts of unique (up to
// equivalence) ECC functions matching the miscorrection profile.
func fig5(ctx context.Context, w io.Writer, scale Scale) error {
	var ks []int
	trials, cap3 := 4, 8
	switch scale {
	case ScaleQuick:
		ks = []int{4, 5, 6, 8, 11}
	case ScaleDefault:
		ks = []int{4, 5, 6, 7, 8, 10, 11, 12, 14, 16}
		trials, cap3 = 8, 12
	case ScalePaper:
		// The paper sweeps 4..247 with up to 2000 codes per length; this is
		// the largest sweep that stays tractable for the pure-Go solver.
		ks = []int{4, 5, 6, 7, 8, 10, 11, 12, 14, 16, 20, 26, 32}
		trials, cap3 = 20, 16
	}
	sets := []core.PatternSet{core.Set1, core.Set2, core.Set3, core.Set12}
	points, err := fig5Sweep(ctx, ks, sets, trials, cap3, 0xF5)
	if err != nil {
		return err
	}
	fmt.Fprintln(w, "Figure 5: number of unique ECC functions matching the miscorrection profile")
	fmt.Fprintf(w, "(%d random codes per dataword length; min/median/max; cap at 200)\n", trials)
	fmt.Fprintf(w, "%-6s %-16s %-6s %-8s %-6s %s\n", "k", "patterns", "min", "median", "max", "note")
	for _, p := range points {
		note := ""
		if p.Capped {
			note = "hit cap"
		}
		full := ""
		if ecc.SequentialHamming(p.K).FullLength() {
			full = "full-length"
		}
		fmt.Fprintf(w, "%-6d %-16s %-6d %-8d %-6d %s %s\n", p.K, p.Set, p.Min, p.Median, p.Max, note, full)
	}
	fmt.Fprintln(w, "\nPaper checkpoints: {1,2}-CHARGED is always 1; 1-CHARGED is 1 for full-length k (4, 11, 26, ...).")
	return nil
}
