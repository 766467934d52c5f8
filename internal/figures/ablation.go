package figures

import (
	"context"
	"fmt"
	"io"
	"math/rand/v2"
	"time"

	"repro/internal/core"
	"repro/internal/ecc"
)

func init() {
	register(Generator{ID: "ablation", Description: "Extensions ablation: anti-cell profiles and lazy vs eager solving (beyond the paper)", Run: ablation})
}

// ablation quantifies the two extensions this reproduction adds on top of
// the paper (see README "Beyond the paper"):
//
//  1. Anti-cell profiles: for shortened codes where 1-CHARGED true-cell
//     profiles are ambiguous, how much does adding the 1-CHARGED anti-cell
//     profile narrow the candidate set?
//  2. Lazy (CEGAR) solving: how many of the k(k-1)/2 deferred 2-CHARGED
//     entries does Solve actually materialize, and how does its time
//     compare with the SolveEager reference encoding?
func ablation(ctx context.Context, w io.Writer, scale Scale) error {
	ks := []int{6, 7, 8, 10}
	trials := 6
	if scale != ScaleQuick {
		ks = []int{6, 7, 8, 10, 12, 14, 16}
		trials = 10
	}

	fmt.Fprintln(w, "Ablation 1: candidate-count narrowing from anti-cell profiles (1-CHARGED)")
	fmt.Fprintf(w, "%-6s %-14s %-18s %-14s\n", "k", "true-only", "true+anti", "{1,2} true-only")
	// Every (k, trial) cell is an independent solve triple, so the whole
	// grid fans out over the engine; sums aggregate in deterministic order.
	eng := engine()
	type cell struct{ nTrue, nBoth, n12 int }
	cells := make([]cell, len(ks)*trials)
	if err := eng.ForEach(ctx, len(cells), func(i int) error {
		k, trial := ks[i/trials], i%trials
		r := ecc.MinParityBits(k)
		rng := rand.New(rand.NewPCG(0xAB1, uint64(k*1000+trial)))
		code := ecc.RandomHammingWithParity(k, r, rng)
		trueProf := eng.ExactProfile(code, core.Set1, false)
		a, err := core.Solve(ctx, trueProf, core.SolveOptions{ParityBits: r, MaxSolutions: 200})
		if err != nil {
			return err
		}
		both := trueProf.Append(eng.ExactProfile(code, core.Set1, true))
		b, err := core.Solve(ctx, both, core.SolveOptions{ParityBits: r, MaxSolutions: 200})
		if err != nil {
			return err
		}
		full, err := core.Solve(ctx, eng.ExactProfile(code, core.Set12, false),
			core.SolveOptions{ParityBits: r, MaxSolutions: 200})
		if err != nil {
			return err
		}
		cells[i] = cell{nTrue: len(a.Codes), nBoth: len(b.Codes), n12: len(full.Codes)}
		return nil
	}); err != nil {
		return err
	}
	for ki, k := range ks {
		sumTrue, sumBoth, sum12 := 0, 0, 0
		for _, c := range cells[ki*trials : (ki+1)*trials] {
			sumTrue += c.nTrue
			sumBoth += c.nBoth
			sum12 += c.n12
		}
		fmt.Fprintf(w, "%-6d %-14.1f %-18.1f %-14.1f\n", k,
			float64(sumTrue)/float64(trials),
			float64(sumBoth)/float64(trials),
			float64(sum12)/float64(trials))
	}

	fmt.Fprintln(w, "\nAblation 2: eager vs lazy (CEGAR) solving of {1,2}-CHARGED profiles")
	fmt.Fprintf(w, "%-6s %-12s %-12s %-22s\n", "k", "eager", "lazy", "materialized entries")
	for _, k := range ks {
		rng := rand.New(rand.NewPCG(0xAB2, uint64(k)))
		code := ecc.RandomHamming(k, rng)
		prof := core.ExactProfile(code, core.Set12.Patterns(k))
		startEager := time.Now()
		eager, err := core.SolveEager(ctx, prof, core.SolveOptions{ParityBits: code.ParityBits()})
		if err != nil {
			return err
		}
		eagerTime := time.Since(startEager)
		startLazy := time.Now()
		lazy, err := core.Solve(ctx, prof, core.SolveOptions{ParityBits: code.ParityBits()})
		if err != nil {
			return err
		}
		lazyTime := time.Since(startLazy)
		if eager.Unique != lazy.Unique {
			return fmt.Errorf("ablation: eager/lazy disagree at k=%d", k)
		}
		total := k * (k - 1) / 2
		fmt.Fprintf(w, "%-6d %-12s %-12s %d of %d deferred\n", k,
			eagerTime.Round(time.Microsecond), lazyTime.Round(time.Microsecond),
			lazy.LazyRefinements, total)
	}
	fmt.Fprintln(w, "\nTakeaways: anti profiles recover much of the 2-CHARGED disambiguation power")
	fmt.Fprintln(w, "from 1-CHARGED-sized experiments; the lazy solver needs only a handful of")
	fmt.Fprintln(w, "the quadratic 2-CHARGED constraint set.")
	return nil
}
