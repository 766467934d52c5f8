// Command beerbench is the repository's benchmark: three closed-loop
// workloads over the BEER library and the beerd job server, every
// operation checked against the simulated chips' ground truth.
//
// Run one workload (what BENCHMARK.json's command does; the last line of
// standard output is the result as JSON):
//
//	beerbench --workload serve-hot --seed 1 --seconds 35 --trace 0
//
// Run every workload, each in a fresh process, print each metric as
// "workload metric value unit" and write results.json (and, traced, one
// <workload>.trace.json per workload) to -out:
//
//	beerbench -seed 1 -out DIR [-trace 1] [-repeat N]
//
// Compare two result files under the bounds in BENCHMARK.json:
//
//	beerbench -compare BASE.json NEW.json
//
// bench/README.md describes the workloads and metrics.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"path/filepath"
	"syscall"
)

// defaultSeconds is the measured time per workload run, BENCHMARK.json's
// run_seconds. The host's speed drifts over tens of seconds, so a run must
// be long enough to average over that drift.
const defaultSeconds = 35

// setupProbes is how many fresh processes time a workload's set-up. One
// probe takes a few milliseconds, and a process start is noisy, so the
// median is taken over many.
const setupProbes = 31

func logf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "beerbench: "+format+"\n", args...)
}

func main() {
	var (
		name    = flag.String("workload", "", "run one workload and print its result as a JSON line (empty: run them all, each in a fresh process)")
		seed    = flag.Uint64("seed", 1, "seed the workload inputs are generated from")
		seconds = flag.Float64("seconds", defaultSeconds, "measured seconds per workload run")
		trace   = flag.Int("trace", 0, "1: measure the per-layer metrics with timing wrappers installed")
		out     = flag.String("out", "", "directory for results and traces (default .bench_build/results when running every workload)")
		repeat  = flag.Int("repeat", 1, "runs per workload, alternating the workload order; run i uses seed+i")
		compare = flag.String("compare", "", "compare two results files: -compare BASE.json NEW.json")
		scratch = flag.String("scratch", ".bench_build", "directory for on-disk state such as serve-cold's store")
		probe   = flag.Bool("setup-probe", false, "set up the workload, print \"ready\" and exit (times setup_s)")
		screen  = flag.String("screen", "", "recover every candidate fleet of the library workload once and print those that fail, for screenedOut")
	)
	flag.Parse()
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	if *compare != "" {
		if flag.NArg() != 1 {
			fatal(2, fmt.Errorf("-compare takes two result files"))
		}
		regressed, err := compareResults(os.Stdout, *compare, flag.Arg(0), "BENCHMARK.json")
		if err != nil {
			fatal(2, err)
		}
		if regressed {
			os.Exit(1)
		}
		return
	}
	if *screen != "" {
		if err := screenFleets(ctx, os.Stdout, *screen); err != nil {
			fatal(1, err)
		}
		return
	}
	if *trace != 0 && *trace != 1 {
		fatal(2, fmt.Errorf("-trace must be 0 or 1"))
	}
	if err := os.MkdirAll(*scratch, 0o755); err != nil {
		fatal(1, err)
	}
	if *name == "" {
		dir := *out
		if dir == "" {
			dir = filepath.Join(*scratch, "results")
		}
		if err := runSuite(ctx, os.Stdout, *seed, *seconds, *trace == 1, *repeat, dir, *scratch); err != nil {
			fatal(1, err)
		}
		return
	}
	w, ok := workloadByName(*name)
	if !ok {
		fatal(2, fmt.Errorf("unknown workload %q", *name))
	}
	if *probe {
		sys, err := w.setup(setupConfig{seed: *seed, scratch: *scratch})
		if err != nil {
			fatal(1, err)
		}
		fmt.Println("ready")
		sys.close()
		return
	}
	res, err := runWorkload(ctx, w, runOpts{
		seed: *seed, seconds: *seconds, trace: *trace == 1, warmup: -1,
		setupProbes: setupProbes, scratch: *scratch,
	})
	if err != nil {
		logf("%v", err)
		if !res.Correct {
			printResult(res)
		}
		os.Exit(1)
	}
	if *trace == 1 && *out != "" {
		if err := writeTrace(*out, w.name, hostProvenance(*seed, *scratch), res); err != nil {
			fatal(1, err)
		}
	}
	printResult(res)
}

func printResult(res runResult) {
	line, err := json.Marshal(res)
	if err != nil {
		fatal(1, err)
	}
	fmt.Println(string(line))
}

func fatal(code int, err error) {
	logf("%v", err)
	os.Exit(code)
}

// writeTrace writes a traced run's spans and per-layer metrics to
// DIR/<workload>.trace.json.
func writeTrace(dir, name string, prov provenance, res runResult) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	doc := struct {
		Workload   string                 `json:"workload"`
		Provenance provenance             `json:"provenance"`
		Metrics    map[string]metricValue `json:"metrics"`
		Spans      []span                 `json:"spans"`
	}{name, prov, res.Metrics, res.spans}
	data, err := json.Marshal(doc)
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(dir, name+".trace.json"), data, 0o644)
}
