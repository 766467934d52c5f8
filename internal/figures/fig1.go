package figures

import (
	"context"
	"fmt"
	"io"
	"math/rand/v2"

	"repro/internal/ecc"
	"repro/internal/einsim"
	"repro/internal/parallel"
	"repro/internal/stats"
)

func init() {
	register(Generator{ID: "fig1", Description: "Figure 1: relative per-bit error probabilities for three ECC functions (k=32, 0xFF, uniform RBER 1e-4)", Run: fig1})
}

// fig1 reproduces Figure 1: three single-error-correcting Hamming codes with
// 32 data bits and 6 parity bits but different parity-check matrices are
// exposed to identical uniform-random pre-correction errors; the relative
// post-correction error probability per data bit differs per function.
// Medians and 95% confidence intervals come from bootstrapping over batches
// (the paper bootstraps 1000 samples over 10^9 words).
//
// The simulation conditions on >= 2 errors per word (see einsim): at RBER
// 1e-4 only such words produce post-correction errors, so the relative
// distributions are identical and the paper's 10^9-word budget is
// unnecessary.
//
// The batches are independent Monte-Carlo runs, so they fan out over the
// parallel engine as one simulation batch (codes x batches jobs); each job
// draws from its own seeded stream, keeping the figure bit-identical for any
// worker count.
func fig1(ctx context.Context, w io.Writer, scale Scale) error {
	k := 32
	words, batches, resamples := 40000, 20, 200
	switch scale {
	case ScaleDefault:
		words, batches, resamples = 200000, 40, 500
	case ScalePaper:
		words, batches, resamples = 2000000, 100, 1000
	}
	rng := rand.New(rand.NewPCG(0xF16, 1))
	codes := []struct {
		name string
		code *ecc.Code
	}{
		{"ECC Function 0", ecc.SequentialHamming(k)},
		{"ECC Function 1", ecc.LowWeightHamming(k)},
		{"ECC Function 2", ecc.RandomHamming(k, rng)},
	}
	type series struct {
		name string
		ivs  []stats.Interval
	}
	var all []series

	// Pre-correction distribution (flat by construction, shown for
	// reference like the paper's grey series): uniform over the codeword's
	// n bits; restricted to the k data bits for plotting.
	n := codes[0].code.N()
	pre := make([]float64, k)
	for b := range pre {
		pre[b] = 1.0 / float64(n)
	}

	jobs := make([]parallel.SimJob, 0, len(codes)*batches)
	for _, c := range codes {
		for batch := 0; batch < batches; batch++ {
			jobs = append(jobs, parallel.SimJob{
				Config: einsim.Config{
					Code:               c.code,
					Pattern:            einsim.PatternAllOnes,
					Model:              einsim.ModelUniform,
					RBER:               1e-4,
					Words:              words / batches,
					ConditionMinErrors: 2,
				},
				Seed: 0xF16,
			})
		}
	}
	batchShares := make([][]float64, len(jobs))
	var simErr error
	for r := range engine().SimulateBatch(ctx, jobs) { // drain fully even on error
		if r.Err != nil {
			if simErr == nil {
				simErr = r.Err
			}
			continue
		}
		batchShares[r.Index] = r.Result.RelativePostProbabilities()
	}
	if simErr != nil {
		return simErr
	}

	for ci, c := range codes {
		perBatch := batchShares[ci*batches : (ci+1)*batches]
		ivs := make([]stats.Interval, k)
		for b := 0; b < k; b++ {
			samples := make([]float64, batches)
			for i := range perBatch {
				samples[i] = perBatch[i][b]
			}
			ivs[b] = stats.Bootstrap(samples, stats.Mean, resamples, 0.95, rng)
		}
		all = append(all, series{name: c.name, ivs: ivs})
	}

	fmt.Fprintln(w, "Figure 1: relative error probability per data-bit index")
	fmt.Fprintf(w, "(k=%d, 0xFF pattern, uniform-random RBER 1e-4, %d conditioned words per function)\n", k, words)
	fmt.Fprintf(w, "%-4s %-12s", "bit", "pre-corr")
	for _, s := range all {
		fmt.Fprintf(w, " %-26s", s.name)
	}
	fmt.Fprintln(w)
	for b := 0; b < k; b++ {
		fmt.Fprintf(w, "%-4d %-12.4f", b, pre[b])
		for _, s := range all {
			iv := s.ivs[b]
			fmt.Fprintf(w, " %6.4f [%6.4f,%6.4f]  ", iv.Point, iv.Lo, iv.Hi)
		}
		fmt.Fprintln(w)
	}
	// Paper takeaway: the three post-correction distributions differ.
	fmt.Fprintf(w, "\nL1 distance between function 0 and 1: %.4f; 0 and 2: %.4f\n",
		l1(all[0].ivs, all[1].ivs), l1(all[0].ivs, all[2].ivs))
	return nil
}

func l1(a, b []stats.Interval) float64 {
	d := 0.0
	for i := range a {
		x := a[i].Point - b[i].Point
		if x < 0 {
			x = -x
		}
		d += x
	}
	return d
}
