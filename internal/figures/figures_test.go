package figures

import (
	"bytes"
	"context"
	"strings"
	"testing"

	"repro/internal/core"
)

func TestRegistryComplete(t *testing.T) {
	want := []string{"ablation", "fig1", "fig3", "fig4", "fig5", "fig6", "fig7", "fig8", "fig9", "runtime", "table1", "table2"}
	got := All()
	if len(got) != len(want) {
		t.Fatalf("registry has %d generators, want %d", len(got), len(want))
	}
	for i, g := range got {
		if g.ID != want[i] {
			t.Fatalf("registry[%d] = %q, want %q", i, g.ID, want[i])
		}
		if g.Description == "" || g.Run == nil {
			t.Fatalf("generator %q incomplete", g.ID)
		}
	}
	if _, ok := ByID("fig5"); !ok {
		t.Fatal("ByID failed")
	}
	if _, ok := ByID("nope"); ok {
		t.Fatal("ByID found a ghost")
	}
}

func TestParseScale(t *testing.T) {
	for s, want := range map[string]Scale{"quick": ScaleQuick, "default": ScaleDefault, "": ScaleDefault, "paper": ScalePaper} {
		got, err := ParseScale(s)
		if err != nil || got != want {
			t.Fatalf("ParseScale(%q) = %v, %v", s, got, err)
		}
	}
	if _, err := ParseScale("bogus"); err == nil {
		t.Fatal("bogus scale accepted")
	}
}

func TestTable1Content(t *testing.T) {
	var buf bytes.Buffer
	if err := table1(context.Background(), &buf, ScaleQuick); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	// 8 error-pattern rows: 1 no-error, 3 correctable, 4 uncorrectable,
	// exactly as the paper's Table 1.
	if got := strings.Count(out, "No error"); got != 1 {
		t.Fatalf("%d no-error rows, want 1\n%s", got, out)
	}
	if got := strings.Count(out, "Correctable"); got != 3 {
		t.Fatalf("%d correctable rows, want 3\n%s", got, out)
	}
	if got := strings.Count(out, "Uncorrectable"); got != 4 {
		t.Fatalf("%d uncorrectable rows, want 4\n%s", got, out)
	}
}

func TestTable2Content(t *testing.T) {
	var buf bytes.Buffer
	if err := table2(context.Background(), &buf, ScaleQuick); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	// Pattern 0 is the only one with possible miscorrections: [? 1 1 1].
	if !strings.Contains(out, "[? 1 1 1]") {
		t.Fatalf("missing pattern-0 row:\n%s", out)
	}
	if !strings.Contains(out, "[- - - ?]") {
		t.Fatalf("missing pattern-3 row:\n%s", out)
	}
}

func TestHeatChar(t *testing.T) {
	cases := map[int64]byte{0: '.', 5: ':', 50: '*', 500: 'o', 5000: '#'}
	for n, want := range cases {
		if got := heatChar(n); got != want {
			t.Errorf("heatChar(%d) = %c, want %c", n, got, want)
		}
	}
}

// Smoke-run every generator at quick scale; these are the exact entry points
// cmd/figures and the benchmarks use.
func TestAllGeneratorsQuick(t *testing.T) {
	if testing.Short() {
		t.Skip("quick-scale figure sweep still takes tens of seconds")
	}
	for _, g := range All() {
		g := g
		t.Run(g.ID, func(t *testing.T) {
			var buf bytes.Buffer
			if err := g.Run(context.Background(), &buf, ScaleQuick); err != nil {
				t.Fatalf("%s: %v", g.ID, err)
			}
			if buf.Len() == 0 {
				t.Fatalf("%s produced no output", g.ID)
			}
		})
	}
}

func TestFig5SweepInvariants(t *testing.T) {
	points, err := fig5Sweep(context.Background(), []int{4, 6}, nil, 2, 8, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(points) != 0 {
		t.Fatal("no sets requested should give no points")
	}
	sets := []core.PatternSet{core.Set1, core.Set2, core.Set3, core.Set12}
	points, err = fig5Sweep(context.Background(), []int{4}, sets, 3, 8, 2)
	if err != nil {
		t.Fatal(err)
	}
	if len(points) != len(sets) {
		t.Fatalf("got %d points, want %d", len(points), len(sets))
	}
	for _, p := range points {
		if p.Min > p.Median || p.Median > p.Max {
			t.Fatalf("ordering violated: %+v", p)
		}
		if p.K == 4 && p.Min != 1 {
			t.Fatalf("k=4 is full-length; every set should find exactly 1, got %+v", p)
		}
	}
}

func TestFig6MeasureSane(t *testing.T) {
	p, err := fig6Measure(context.Background(), 8, 1)
	if err != nil {
		t.Fatal(err)
	}
	if p.K != 8 || p.TotalTime <= 0 || p.Vars <= 0 || p.Clauses <= 0 {
		t.Fatalf("implausible measurement: %+v", p)
	}
	if p.TotalTime != p.DetermineTime+p.UniqueTime {
		t.Fatal("total time must be the sum of the phases")
	}
}

// Paper checkpoints at quick scale: full-length k=4 and k=11 are unique for
// every pattern family; {1,2}-CHARGED is unique everywhere.
func TestFig5PaperCheckpoints(t *testing.T) {
	if testing.Short() {
		t.Skip("sweep takes a few seconds")
	}
	sets := []core.PatternSet{core.Set1, core.Set12}
	points, err := fig5Sweep(context.Background(), []int{4, 8, 11}, sets, 4, 8, 0xCF)
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range points {
		fullLength := p.K == 4 || p.K == 11
		if p.Set == core.Set12 && p.Max != 1 {
			t.Errorf("k=%d {1,2}-CHARGED found up to %d solutions, want 1", p.K, p.Max)
		}
		if p.Set == core.Set1 && fullLength && p.Max != 1 {
			t.Errorf("k=%d full-length 1-CHARGED found up to %d solutions, want 1", p.K, p.Max)
		}
	}
}
