package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
	"time"
)

// suiteRun is one fresh-process run of one workload.
type suiteRun struct {
	Workload string    `json:"workload"`
	Seed     uint64    `json:"seed"`
	Result   runResult `json:"result"`
}

// summaryValue is a metric's median and quartiles over a set of runs.
type summaryValue struct {
	Median float64 `json:"median"`
	Q1     float64 `json:"q1"`
	Q3     float64 `json:"q3"`
	Spread float64 `json:"spread"` // (q3 - q1) / median
	Unit   string  `json:"unit"`
	Runs   int     `json:"runs"`
}

// suiteDoc is the results file a suite run writes.
type suiteDoc struct {
	Provenance provenance                         `json:"provenance"`
	Seconds    float64                            `json:"seconds"`
	Trace      bool                               `json:"trace"`
	Runs       []suiteRun                         `json:"runs"`
	Summary    map[string]map[string]summaryValue `json:"summary"`
}

// runSuite runs every workload repeat times, each run in a fresh process so
// that process-wide caches never carry over, alternating the workload order
// between repetitions. Repetition i uses seed+i.
func runSuite(ctx context.Context, stdout io.Writer, seed uint64, seconds float64, trace bool, repeat int, dir, scratch string) error {
	self, err := os.Executable()
	if err != nil {
		return err
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	doc := suiteDoc{Provenance: hostProvenance(seed, scratch), Seconds: seconds, Trace: trace}
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.name
	}
	for r := 0; r < max(repeat, 1); r++ {
		order := slices.Clone(names)
		if r%2 == 1 {
			slices.Reverse(order)
		}
		for _, name := range order {
			s := seed + uint64(r)
			logf("%s seed %d", name, s)
			res, err := runChild(ctx, self, name, s, seconds, trace, dir, scratch)
			if err != nil {
				return fmt.Errorf("%s seed %d: %w", name, s, err)
			}
			doc.Runs = append(doc.Runs, suiteRun{Workload: name, Seed: s, Result: res})
		}
	}
	doc.Summary = summarize(doc.Runs)
	for _, name := range names {
		defs := endToEnd
		if trace {
			defs = perLayer
		}
		for _, m := range defs {
			v := doc.Summary[name][m.name]
			fmt.Fprintf(stdout, "%s %s %s %s", name, m.name, strconv.FormatFloat(v.Median, 'g', 6, 64), v.Unit)
			if v.Runs > 1 {
				fmt.Fprintf(stdout, " q1=%s q3=%s runs=%d", strconv.FormatFloat(v.Q1, 'g', 6, 64), strconv.FormatFloat(v.Q3, 'g', 6, 64), v.Runs)
			}
			fmt.Fprintln(stdout)
		}
	}
	file := "results.json"
	if trace {
		file = "results-trace.json"
	}
	data, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(dir, file), data, 0o644)
}

// runChild runs one workload in a fresh process and parses its result line.
func runChild(ctx context.Context, self, name string, seed uint64, seconds float64, trace bool, dir, scratch string) (runResult, error) {
	t := "0"
	if trace {
		t = "1"
	}
	cmd := exec.CommandContext(ctx, self, "--workload", name, "--seed", strconv.FormatUint(seed, 10),
		"--seconds", strconv.FormatFloat(seconds, 'g', -1, 64), "--trace", t, "--out", dir, "--scratch", scratch)
	var stdout bytes.Buffer
	cmd.Stdout = &stdout
	cmd.Stderr = os.Stderr
	runErr := cmd.Run()
	lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
	var res runResult
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		if runErr != nil {
			return res, runErr
		}
		return res, fmt.Errorf("parsing result: %w", err)
	}
	if runErr != nil {
		return res, fmt.Errorf("%w (correct=%t)", runErr, res.Correct)
	}
	return res, nil
}

func summarize(runs []suiteRun) map[string]map[string]summaryValue {
	values := map[string]map[string][]float64{}
	units := map[string]string{}
	for _, r := range runs {
		if values[r.Workload] == nil {
			values[r.Workload] = map[string][]float64{}
		}
		for name, v := range r.Result.Metrics {
			values[r.Workload][name] = append(values[r.Workload][name], v.Value)
			units[name] = v.Unit
		}
	}
	out := map[string]map[string]summaryValue{}
	for w, metrics := range values {
		out[w] = map[string]summaryValue{}
		for name, xs := range metrics {
			q1, m, q3 := quartiles(xs)
			out[w][name] = summaryValue{Median: m, Q1: q1, Q3: q3, Spread: spread(xs), Unit: units[name], Runs: len(xs)}
		}
	}
	return out
}

// probeSetup times set-up from process start to readiness in fresh
// processes and returns the median, in seconds.
func probeSetup(ctx context.Context, w workload, o runOpts) (float64, error) {
	self, err := os.Executable()
	if err != nil {
		return 0, err
	}
	times := make([]float64, 0, o.setupProbes)
	for i := 0; i < o.setupProbes; i++ {
		cmd := exec.CommandContext(ctx, self, "--setup-probe", "--workload", w.name,
			"--seed", strconv.FormatUint(o.seed, 10), "--scratch", o.scratch)
		cmd.Stderr = os.Stderr
		stdout, err := cmd.StdoutPipe()
		if err != nil {
			return 0, err
		}
		start := time.Now()
		if err := cmd.Start(); err != nil {
			return 0, err
		}
		line, readErr := bufio.NewReader(stdout).ReadString('\n')
		elapsed := time.Since(start)
		_, _ = io.Copy(io.Discard, stdout)
		if err := cmd.Wait(); err != nil {
			return 0, fmt.Errorf("set-up probe: %w", err)
		}
		if readErr != nil || line != "ready\n" {
			return 0, fmt.Errorf("set-up probe printed %q: %v", line, readErr)
		}
		times = append(times, elapsed.Seconds())
	}
	return median(times), nil
}

// benchSpec is the part of BENCHMARK.json the benchmark reads.
type benchSpec struct {
	RunSeconds int `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

func readJSON(path string, v any) error {
	data, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	if err := json.Unmarshal(data, v); err != nil {
		return fmt.Errorf("%s: %w", path, err)
	}
	return nil
}

// compareResults checks every (workload, end-to-end metric) of cand
// against base under the bounds in specPath, one row each, and reports
// whether any regressed.
func compareResults(w io.Writer, basePath, candPath, specPath string) (bool, error) {
	var base, cand suiteDoc
	var spec benchSpec
	for _, f := range []struct {
		path string
		v    any
	}{{basePath, &base}, {candPath, &cand}, {specPath, &spec}} {
		if err := readJSON(f.path, f.v); err != nil {
			return false, err
		}
	}
	values := func(doc suiteDoc, workload, metric string) []float64 {
		var xs []float64
		for _, r := range doc.Runs {
			if v, ok := r.Result.Metrics[metric]; ok && r.Workload == workload {
				xs = append(xs, v.Value)
			}
		}
		return xs
	}
	regressed := false
	fmt.Fprintf(w, "%-22s %-17s %12s %12s %8s %6s  %s\n", "workload", "metric", "base", "new", "delta", "bound", "verdict")
	for _, wl := range spec.Workloads {
		for _, m := range spec.EndToEnd {
			b, c := values(base, wl.Name, m.Name), values(cand, wl.Name, m.Name)
			if len(b) == 0 || len(c) == 0 {
				fmt.Fprintf(w, "%-22s %-17s %12s %12s %8s %6.2f  missing\n", wl.Name, m.Name, "-", "-", "-", m.Bound)
				continue
			}
			verdict, delta := checkBound(b, c, m.Bound, m.Better == "higher")
			regressed = regressed || verdict == verdictRegressed
			fmt.Fprintf(w, "%-22s %-17s %12.4g %12.4g %+7.1f%% %6.2f  %s\n", wl.Name, m.Name, median(b), median(c), 100*delta, m.Bound, verdict)
		}
	}
	return regressed, nil
}
