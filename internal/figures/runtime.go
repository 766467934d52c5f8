package figures

import (
	"context"
	"fmt"
	"io"
	"time"

	"repro/internal/core"
	"repro/internal/dram"
)

func init() {
	register(Generator{ID: "runtime", Description: "Section 6.3: analytical experiment-runtime model for the tREFw sweep", Run: runtimeModel})
}

// runtimeModel reproduces §6.3's analytical runtime analysis: experiment
// time is dominated by the refresh pauses, so the total is the sum of tested
// windows (4.2 hours for the paper's 2..22-minute sweep); chip I/O is
// negligible (168 ms to read a full 2 GiB LPDDR4-3200 chip). It also prints
// the analytic raw bit error rate the retention model yields per window, the
// planning data for choosing a sweep.
func runtimeModel(ctx context.Context, w io.Writer, _ Scale) error {
	var opts core.CollectOptions
	for m := 2; m <= 22; m++ {
		opts.Windows = append(opts.Windows, time.Duration(m)*time.Minute)
	}
	opts.Rounds = 1
	total := core.ExperimentRuntime(opts)
	fmt.Fprintln(w, "Section 6.3: analytical experiment runtime")
	fmt.Fprintf(w, "paper sweep (tREFw 2..22 min, 1-min steps, 1 round): %v total\n", total)
	fmt.Fprintln(w, "chip I/O is negligible: ~168 ms per full 2 GiB chip read (LPDDR4-3200)")
	fmt.Fprintln(w)
	model := dram.DefaultRetention()
	fmt.Fprintf(w, "%-10s %-14s %-14s\n", "tREFw", "BER @ 80C", "BER @ 40C")
	for _, mins := range []int{1, 2, 5, 10, 15, 22, 30, 45} {
		d := time.Duration(mins) * time.Minute
		fmt.Fprintf(w, "%-10s %-14.3g %-14.3g\n", d,
			model.FailureProbability(d, 80), model.FailureProbability(d, 40))
	}
	fmt.Fprintln(w, "\nParallelizing across chips divides wall-clock time accordingly (§6.3).")
	return nil
}
