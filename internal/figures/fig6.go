package figures

import (
	"context"
	"fmt"
	"io"
	"math/rand/v2"
	"runtime"
	"time"

	"repro/internal/core"
	"repro/internal/ecc"
)

func init() {
	register(Generator{ID: "fig6", Description: "Figure 6: BEER runtime and memory vs ECC code length (determine function vs check uniqueness)", Run: fig6})
}

// fig6Point is one code-length measurement of solver cost.
type fig6Point struct {
	K             int
	DetermineTime time.Duration
	UniqueTime    time.Duration
	TotalTime     time.Duration
	AllocMiB      float64
	Vars, Clauses int
}

// fig6Measure runs BEER's SAT phases for one dataword length with 1-CHARGED
// profiles (the paper's Figure 6 configuration) and reports wall-clock time
// split into determine-function and check-uniqueness phases plus memory
// allocated.
func fig6Measure(ctx context.Context, k int, seed uint64) (fig6Point, error) {
	rng := rand.New(rand.NewPCG(seed, uint64(k)))
	code := ecc.RandomHamming(k, rng)
	prof := core.ExactProfile(code, core.OneCharged(k))
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	res, err := core.Solve(ctx, prof, core.SolveOptions{ParityBits: code.ParityBits(), MaxSolutions: 2})
	if err != nil {
		return fig6Point{}, err
	}
	runtime.ReadMemStats(&after)
	return fig6Point{
		K:             k,
		DetermineTime: res.DetermineTime,
		UniqueTime:    res.UniquenessTime,
		TotalTime:     res.DetermineTime + res.UniquenessTime,
		AllocMiB:      float64(after.TotalAlloc-before.TotalAlloc) / (1 << 20),
		Vars:          res.Vars,
		Clauses:       res.Clauses,
	}, nil
}

// fig6 renders the runtime/memory scaling table. The paper reports the same
// series for Z3 on Xeon servers (negligible for short codes; 57.1 h median
// and 6.3 GiB for 128-bit codes); the pure-Go CDCL solver's absolute numbers
// differ but the scaling shape — a jump at every added parity bit — is the
// comparison target.
func fig6(ctx context.Context, w io.Writer, scale Scale) error {
	var ks []int
	switch scale {
	case ScaleQuick:
		ks = []int{4, 8, 11, 16}
	case ScaleDefault:
		ks = []int{4, 8, 11, 16, 26, 32, 45, 57}
	case ScalePaper:
		ks = []int{4, 8, 11, 16, 26, 32, 45, 57, 64, 96, 120, 128}
	}
	fmt.Fprintln(w, "Figure 6: BEER solver runtime and memory vs dataword length (1-CHARGED profiles)")
	fmt.Fprintf(w, "%-6s %-14s %-14s %-14s %-10s %-8s %s\n",
		"k", "determine", "uniqueness", "total", "alloc MiB", "vars", "clauses")
	for _, k := range ks {
		p, err := fig6Measure(ctx, k, 0xF6)
		if err != nil {
			return err
		}
		fmt.Fprintf(w, "%-6d %-14s %-14s %-14s %-10.1f %-8d %d\n",
			p.K, p.DetermineTime.Round(time.Microsecond), p.UniqueTime.Round(time.Microsecond),
			p.TotalTime.Round(time.Microsecond), p.AllocMiB, p.Vars, p.Clauses)
	}
	fmt.Fprintln(w, "\nPaper shape checkpoints: uniqueness dominates total; cost jumps when a parity bit is added (k=4->5, 11->12, 26->27, 57->58, 120->121).")
	return nil
}
