package figures

import (
	"context"
	"fmt"
	"io"
	"time"

	"repro/internal/core"
	"repro/internal/ondie"
	"repro/internal/stats"
)

func init() {
	register(Generator{ID: "fig3", Description: "Figure 3: 1-CHARGED miscorrection-profile heatmaps for one chip per manufacturer", Run: fig3})
	register(Generator{ID: "fig4", Description: "Figure 4: per-bit miscorrection probability distributions across the tREFw sweep (manufacturer B) with threshold filter", Run: fig4})
}

// fig3Chip builds the representative chip used for Figures 3 and 4.
func fig3Chip(m ondie.Manufacturer, scale Scale) (*ondie.Chip, []time.Duration) {
	k, rows := 32, 256
	var windows []time.Duration
	switch scale {
	case ScaleQuick:
		for min := 8; min <= 48; min += 8 {
			windows = append(windows, time.Duration(min)*time.Minute)
		}
	case ScaleDefault:
		k, rows = 64, 512
		for min := 4; min <= 48; min += 4 {
			windows = append(windows, time.Duration(min)*time.Minute)
		}
	case ScalePaper:
		// The paper's chips: 128-bit datawords, tREFw 2..22 minutes in
		// 1-minute steps (the compressed retention model makes longer
		// windows equivalent to the paper's higher sample counts).
		k, rows = 128, 2048
		for min := 2; min <= 48; min++ {
			windows = append(windows, time.Duration(min)*time.Minute)
		}
	}
	if m == ondie.MfrC {
		rows *= 2 // only half the rows are true-cells
	}
	chip := ondie.MustNew(ondie.Config{
		Manufacturer:  m,
		DataBits:      k,
		Banks:         1,
		Rows:          rows,
		RegionsPerRow: 8,
		Seed:          uint64(len(m)) + 0xF3,
	})
	return chip, windows
}

// fig3Counts collects the 1-CHARGED observation counts for one chip.
func fig3Counts(ctx context.Context, m ondie.Manufacturer, scale Scale, rounds int) (*core.Counts, error) {
	chip, windows := fig3Chip(m, scale)
	classes := core.DiscoverCellLayout(chip, core.DefaultLayoutOptions())
	rows := core.TrueRows(classes)
	layout, err := core.DiscoverWordLayout(chip, rows, core.DefaultLayoutOptions())
	if err != nil {
		return nil, err
	}
	return core.CollectCounts(ctx, chip, rows, layout, core.OneCharged(layout.K()), core.CollectOptions{
		Windows: windows,
		TempC:   80,
		Rounds:  rounds,
	})
}

// fig3 reproduces Figure 3: for a representative chip of each manufacturer,
// the number of errors observed at each data-bit index (x) for each
// 1-CHARGED pattern (y), rendered as a text heatmap. Manufacturer A's
// unstructured matrix contrasts with B's and C's repeating patterns, and the
// diagonal (the charged bit itself) stands out — exactly the paper's
// qualitative result.
func fig3(ctx context.Context, w io.Writer, scale Scale) error {
	mfrs := []ondie.Manufacturer{ondie.MfrA, ondie.MfrB, ondie.MfrC}
	// The three chips are independent, so their collections fan out over the
	// engine; rendering stays in manufacturer order.
	perMfr := make([]*core.Counts, len(mfrs))
	if err := engine().ForEach(ctx, len(mfrs), func(i int) error {
		counts, err := fig3Counts(ctx, mfrs[i], scale, 1)
		if err != nil {
			return err
		}
		perMfr[i] = counts
		return nil
	}); err != nil {
		return err
	}
	for i, m := range mfrs {
		counts := perMfr[i]
		fmt.Fprintf(w, "Figure 3 (%s): errors per (1-CHARGED pattern row, data-bit column)\n", m)
		fmt.Fprintln(w, "legend: . zero   : <10   * <100   o <1000   # >=1000")
		for _, e := range counts.Entries {
			fmt.Fprintf(w, "%3d |", e.Pattern.Charged()[0])
			for b := 0; b < counts.K; b++ {
				fmt.Fprintf(w, "%c", heatChar(e.Errors[b]))
			}
			fmt.Fprintln(w, "|")
		}
		fmt.Fprintln(w)
	}
	return nil
}

// fig4 reproduces Figure 4: for a representative manufacturer-B chip, the
// distribution (across the refresh-window sweep) of each bit's share of all
// observed miscorrections, aggregated over every 1-CHARGED pattern. Zero and
// nonzero populations separate cleanly, so a simple threshold filter
// (the paper's example: 1e-3) classifies miscorrection-susceptible bits.
func fig4(ctx context.Context, w io.Writer, scale Scale) error {
	chip, windows := fig3Chip(ondie.MfrB, scale)
	classes := core.DiscoverCellLayout(chip, core.DefaultLayoutOptions())
	rows := core.TrueRows(classes)
	layout, err := core.DiscoverWordLayout(chip, rows, core.DefaultLayoutOptions())
	if err != nil {
		return err
	}
	k := layout.K()
	patterns := core.OneCharged(k)
	// One collection per window so per-window probability masses can be
	// summarized as the paper's boxplots. The windows are independent, so
	// they fan out over the engine, each against its own same-model chip
	// (identical seed => identical retention times, the §6.3 same-model
	// property) reusing the layout discovered above; per-window results are
	// aggregated in window order, so the figure matches the serial sweep.
	perWindow := make([]*core.Counts, len(windows))
	if err := engine().ForEach(ctx, len(windows), func(i int) error {
		windowChip, _ := fig3Chip(ondie.MfrB, scale)
		counts, err := core.CollectCounts(ctx, windowChip, rows, layout, patterns, core.CollectOptions{
			Windows: []time.Duration{windows[i]},
			TempC:   80,
			Rounds:  1,
		})
		if err != nil {
			return err
		}
		perWindow[i] = counts
		return nil
	}); err != nil {
		return err
	}
	perBit := make([][]float64, k)
	for _, counts := range perWindow {
		// Aggregate miscorrections (errors at DISCHARGED positions) across
		// all patterns, then normalize to probability mass per bit.
		mass := make([]float64, k)
		total := 0.0
		for _, e := range counts.Entries {
			for b := 0; b < k; b++ {
				if !e.Pattern.Has(b) {
					mass[b] += float64(e.Errors[b])
					total += float64(e.Errors[b])
				}
			}
		}
		for b := 0; b < k; b++ {
			if total > 0 {
				perBit[b] = append(perBit[b], mass[b]/total)
			}
		}
	}
	const threshold = 1e-3
	fmt.Fprintln(w, "Figure 4 (manufacturer B): per-bit miscorrection probability mass across the tREFw sweep")
	fmt.Fprintf(w, "threshold filter at %g separates zero from nonzero populations\n", threshold)
	fmt.Fprintf(w, "%-4s %-10s %-10s %-10s %-10s %-10s %s\n", "bit", "min", "q1", "median", "q3", "max", "> threshold")
	above, below := 0, 0
	for b := 0; b < k; b++ {
		s := stats.Summarize(perBit[b])
		flag := ""
		if s.Median >= threshold {
			flag = "yes"
			above++
		} else {
			below++
		}
		fmt.Fprintf(w, "%-4d %-10.6f %-10.6f %-10.6f %-10.6f %-10.6f %s\n",
			b, s.Min, s.Q1, s.Median, s.Q3, s.Max, flag)
	}
	fmt.Fprintf(w, "\n%d bits above threshold, %d below\n", above, below)
	return nil
}
