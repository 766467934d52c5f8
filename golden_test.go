package repro_test

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	"repro"
	"repro/internal/store"
)

// update regenerates the golden files instead of comparing against them
// (make golden). A changed golden is a behaviour change.
var update = flag.Bool("update", false, "rewrite testdata golden files")

// recoveryMatrix is the recovery-matrix configuration set, written as the
// cmd/beer flags that reproduce each run: exhaustive and planned, anti-cell,
// multi-chip, serial-engine and noisy recoveries over all three
// manufacturers.
var recoveryMatrix = []string{
	"-mfr B -k 16 -chips 2",
	"-mfr A -k 16 -chips 3 -anti",
	"-mfr C -k 16 -chips 2 -plan",
	"-mfr B -k 32 -plan",
	"-mfr B -k 16 -anti",
	"-mfr B -k 16 -chips 2 -noise fp=0.002",
	"-mfr A -k 24 -chips 2 -workers 1",
	"-mfr C -k 16 -chips 2 -anti",
	// Boundary fleets: k=24 two-chip profiles that fit no code. They are the
	// first outcomes to flip when a single simulated read changes.
	"-mfr B -k 24 -chips 2 -seed 1946690528116488080",
	"-mfr B -k 24 -chips 2 -seed 2799982268002373081",
	"-mfr B -k 24 -chips 2 -seed 2351806912278537374",
	"-mfr A -k 24 -chips 2 -seed 1256848075078949514",
}

// goldenRecovery is the timing-free outcome of one recovery: the frozen
// profile hash, the candidate set as code-export UIDs, and the planner and
// noise summaries when the run has them.
type goldenRecovery struct {
	Config     string           `json:"config"`
	Profile    string           `json:"profile_hash"`
	Entries    int              `json:"entries"`
	Unique     bool             `json:"unique"`
	Exhausted  bool             `json:"exhausted"`
	Candidates []string         `json:"candidates"`
	Plan       *repro.PlanInfo  `json:"plan,omitempty"`
	Noise      *repro.NoiseInfo `json:"noise,omitempty"`
}

// pipelineFor builds the chips and pipeline cmd/beer builds for args, with
// the CLI's defaults for every flag the matrix leaves out (-seed 1, 48-minute
// window sweep, 3 rounds, {1,2}-CHARGED patterns, unlimited drop budget).
func pipelineFor(args string) ([]repro.Chip, *repro.Pipeline, error) {
	fs := flag.NewFlagSet("beer", flag.ContinueOnError)
	mfr := fs.String("mfr", "A", "")
	k := fs.Int("k", 16, "")
	chips := fs.Int("chips", 1, "")
	workers := fs.Int("workers", 0, "")
	anti := fs.Bool("anti", false, "")
	plan := fs.Bool("plan", false, "")
	noiseArg := fs.String("noise", "", "")
	seed := fs.Uint64("seed", 1, "")
	if err := fs.Parse(strings.Fields(args)); err != nil {
		return nil, nil, err
	}
	opts := []repro.Option{
		repro.WithWorkers(*workers),
		repro.WithWindowSweep(48),
		repro.WithRounds(3),
		repro.WithPatternSet(repro.Set12),
	}
	if *anti {
		opts = append(opts, repro.WithAntiRows())
	}
	if *plan {
		opts = append(opts, repro.WithPlanOptions(repro.PlanOptions{}))
	}
	if *noiseArg != "" {
		rate, ok := strings.CutPrefix(*noiseArg, "fp=")
		if !ok {
			return nil, nil, fmt.Errorf("-noise %q: only fp=X is supported here", *noiseArg)
		}
		fp, err := strconv.ParseFloat(rate, 64)
		if err != nil {
			return nil, nil, err
		}
		model := repro.NoiseModel{FP: fp, Seed: 1}
		opts = append(opts, repro.WithNoiseModel(model), repro.WithMaxDrop(-1))
	}
	return repro.SimulatedChips(repro.Manufacturer(*mfr), *k, *chips, *seed), repro.NewPipeline(opts...), nil
}

// TestRecoveryGolden runs the recovery matrix in-process and compares each
// run's profile hash, candidate set, planner summary and noise outcome with
// testdata/recovery_golden.json. Regenerate only with `make golden`.
func TestRecoveryGolden(t *testing.T) {
	got := make([]goldenRecovery, 0, len(recoveryMatrix))
	for _, args := range recoveryMatrix {
		chips, pipe, err := pipelineFor(args)
		if err != nil {
			t.Fatalf("%s: %v", args, err)
		}
		rep, err := pipe.Recover(context.Background(), chips...)
		if err != nil {
			t.Fatalf("%s: %v", args, err)
		}
		g := goldenRecovery{
			Config:     args,
			Profile:    rep.Profile.Hash(),
			Entries:    len(rep.Profile.Entries),
			Unique:     rep.Result.Unique,
			Exhausted:  rep.Result.Exhausted,
			Candidates: []string{},
			Plan:       rep.Plan,
			Noise:      rep.Result.Noise,
		}
		for _, c := range rep.Result.Codes {
			g.Candidates = append(g.Candidates, store.ExportCode(c).UID)
		}
		got = append(got, g)
	}
	data, err := json.MarshalIndent(got, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	data = append(data, '\n')

	path := filepath.Join("testdata", "recovery_golden.json")
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (generate it with `make golden`)", err)
	}
	if !bytes.Equal(data, want) {
		var wantRuns []goldenRecovery
		if err := json.Unmarshal(want, &wantRuns); err != nil {
			t.Fatalf("%s: %v", path, err)
		}
		for i, g := range got {
			if i >= len(wantRuns) {
				t.Errorf("%s: not in the golden file", g.Config)
				continue
			}
			gj, _ := json.Marshal(g)
			wj, _ := json.Marshal(wantRuns[i])
			if !bytes.Equal(gj, wj) {
				t.Errorf("%s:\n got  %s\n want %s", g.Config, gj, wj)
			}
		}
		if len(wantRuns) != len(got) {
			t.Errorf("golden file has %d runs, the matrix %d", len(wantRuns), len(got))
		}
		if !t.Failed() {
			t.Errorf("%s differs from the recovery output in formatting only; run `make golden`", path)
		}
	}
}
