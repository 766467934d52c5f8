package main

import (
	"context"
	"encoding/json"
	"os"
	"slices"
	"strings"
	"testing"
)

const specPath = "../../BENCHMARK.json"

func readSpec(t *testing.T) benchSpec {
	t.Helper()
	var spec benchSpec
	if err := readJSON(specPath, &spec); err != nil {
		t.Fatal(err)
	}
	return spec
}

// BENCHMARK.json must describe exactly what beerbench runs and reports.
func TestBenchmarkJSONMatchesBenchmark(t *testing.T) {
	data, err := os.ReadFile(specPath)
	if err != nil {
		t.Fatal(err)
	}
	var top map[string]json.RawMessage
	if err := json.Unmarshal(data, &top); err != nil {
		t.Fatal(err)
	}
	var keys []string
	for k := range top {
		keys = append(keys, k)
	}
	slices.Sort(keys)
	if want := []string{"command", "end_to_end", "paths", "per_layer", "run_seconds", "workloads"}; !slices.Equal(keys, want) {
		t.Errorf("BENCHMARK.json keys %v, want %v", keys, want)
	}
	spec := readSpec(t)
	if spec.RunSeconds != defaultSeconds {
		t.Errorf("run_seconds %d, beerbench default %d", spec.RunSeconds, defaultSeconds)
	}
	var names []string
	for _, w := range spec.Workloads {
		names = append(names, w.Name)
		if _, ok := workloadByName(w.Name); !ok {
			t.Errorf("workload %q is unknown to beerbench", w.Name)
		}
		if w.Why == "" || len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("workload %q: reason must be one line of 1 to 200 characters", w.Name)
		}
	}
	if len(names) != len(workloads) {
		t.Errorf("BENCHMARK.json names %d workloads, beerbench runs %d", len(names), len(workloads))
	}
	var gotE2E, gotLayer []metricDef
	maxBound := 0.0
	for _, m := range spec.EndToEnd {
		gotE2E = append(gotE2E, metricDef{m.Name, m.Unit})
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %g outside (0, 0.25]", m.Name, m.Bound)
		}
		maxBound = max(maxBound, m.Bound)
	}
	for _, m := range spec.EndToEnd {
		if m.Name == "setup_s" && m.Bound != maxBound {
			t.Errorf("setup_s bound %g is not the largest (%g)", m.Bound, maxBound)
		}
	}
	for _, m := range spec.PerLayer {
		gotLayer = append(gotLayer, metricDef{m.Name, m.Unit})
	}
	if !slices.Equal(gotE2E, endToEnd) {
		t.Errorf("end_to_end\n got %v\nwant %v", gotE2E, endToEnd)
	}
	if !slices.Equal(gotLayer, perLayer) {
		t.Errorf("per_layer\n got %v\nwant %v", gotLayer, perLayer)
	}
}

// Every workload, run for two measured operations, must report every
// metric BENCHMARK.json names, with its unit, and no failures.
func TestSmokeEveryWorkloadReportsEveryMetric(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload")
	}
	spec := readSpec(t)
	for _, w := range workloads {
		for _, traced := range []bool{false, true} {
			res, err := runWorkload(context.Background(), w, runOpts{
				seed: 1, seconds: 600, trace: traced, maxOps: 2, warmup: 0, scratch: t.TempDir(),
			})
			if err != nil {
				t.Fatalf("%s (traced %t): %v", w.name, traced, err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted < 2 {
				t.Errorf("%s (traced %t): correct %t, %d of %d failed", w.name, traced, res.Correct, res.Failed, res.Attempted)
			}
			want := map[string]string{}
			if traced {
				for _, m := range spec.PerLayer {
					want[m.Name] = m.Unit
				}
			} else {
				for _, m := range spec.EndToEnd {
					want[m.Name] = m.Unit
				}
			}
			if len(res.Metrics) != len(want) {
				t.Errorf("%s (traced %t): %d metrics, want %d", w.name, traced, len(res.Metrics), len(want))
			}
			for name, unit := range want {
				v, ok := res.Metrics[name]
				switch {
				case !ok:
					t.Errorf("%s (traced %t): no %s", w.name, traced, name)
				case v.Unit != unit:
					t.Errorf("%s: %s unit %q, want %q", w.name, name, v.Unit, unit)
				case !traced && v.Value <= 0:
					t.Errorf("%s: end-to-end %s = %g, want > 0", w.name, name, v.Value)
				}
			}
		}
	}
}
