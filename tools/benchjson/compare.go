package main

import (
	"fmt"
	"sort"
	"strings"
)

// defaultKeys are the benchmarks the CI gate enforces: the figure sweeps the
// bitsliced core is meant to keep fast, the end-to-end recovery pipeline,
// the serial/parallel collection pair, the exact-vs-PBEM_75 noisy
// drop-k solve pair, the solve stage alone on the in-process CDCL backend,
// and the metrics hot path (contended counter/histogram updates — the cost
// every instrumented solve pays). All run long enough at -benchtime 1x that
// a 30% ns/op move is a real regression, not scheduler noise, and bytes/op
// is deterministic for all of them (the metrics entry does fixed work per
// iteration for the same reason).
var defaultKeys = []string{
	"BenchmarkFig8",
	"BenchmarkFig9",
	"BenchmarkRecoverEndToEnd",
	"BenchmarkSerialCollect",
	"BenchmarkParallelCollect",
	"BenchmarkNoisyRecoverExact",
	"BenchmarkNoisyRecoverPBEM75",
	"BenchmarkSolveBackendCDCL",
	"BenchmarkMetricsHotPath",
}

type compareOptions struct {
	// Keys are the benchmark names (without the -GOMAXPROCS suffix) whose
	// regressions fail the gate. Other benchmarks are reported but advisory.
	Keys []string
	// Tolerance is the allowed fractional growth in ns/op and bytes/op for
	// key benchmarks (0.30 = fail beyond +30%).
	Tolerance float64
	// PairGrace bounds ParallelCollect ns/op at PairGrace * SerialCollect
	// ns/op when both appear in the new run. On multi-core hosts parallel
	// collection must win outright; the grace margin only exists so a
	// single-CPU runner (where the pool degenerates to serial plus overhead)
	// does not flake. Zero disables the check.
	PairGrace float64
	// ServeKeys are serving-path benchmarks (beerload's
	// BenchmarkServeMixedCacheHeavy) gated direction-aware on their custom
	// metrics instead of ns/op symmetrically: "jobs/sec" fails the gate when
	// it DROPS beyond ServeTolerance, "p99-ms" when it GROWS beyond it.
	// p50/p95 are reported but advisory — tail latency and throughput are
	// the serving SLOs.
	ServeKeys []string
	// ServeTolerance is the allowed fractional move on serving keys
	// (0.50 = fail below -50% jobs/sec or above +50% p99). Wider than
	// Tolerance because wall-clock throughput of a 25-second loaded run
	// varies more across CI hosts than single-benchmark ns/op.
	ServeTolerance float64
}

type compareReport struct {
	Table    string
	Failures []string
}

// benchKey strips the -GOMAXPROCS suffix go test appends on multi-core
// machines, so baselines from hosts with different core counts compare.
func benchKey(name string) string {
	if i := strings.LastIndexByte(name, '-'); i > 0 {
		if suffix := name[i+1:]; suffix != "" && strings.TrimLeft(suffix, "0123456789") == "" {
			return name[:i]
		}
	}
	return name
}

func pct(old, new float64) string {
	if old == 0 {
		return "n/a"
	}
	return fmt.Sprintf("%+.1f%%", 100*(new-old)/old)
}

// compare diffs a fresh run against the committed baseline. Every benchmark
// present in both appears in the table; key benchmarks additionally gate.
func compare(old, new *Baseline, opts compareOptions) compareReport {
	oldBy := make(map[string]Benchmark, len(old.Benchmarks))
	for _, b := range old.Benchmarks {
		oldBy[benchKey(b.Name)] = b
	}
	newBy := make(map[string]Benchmark, len(new.Benchmarks))
	for _, b := range new.Benchmarks {
		newBy[benchKey(b.Name)] = b
	}
	isKey := make(map[string]bool, len(opts.Keys))
	for _, k := range opts.Keys {
		if k = strings.TrimSpace(k); k != "" {
			isKey[k] = true
		}
	}

	var rep compareReport
	var sb strings.Builder
	names := make([]string, 0, len(newBy))
	for name := range newBy {
		if _, ok := oldBy[name]; ok {
			names = append(names, name)
		}
	}
	sort.Strings(names)
	fmt.Fprintf(&sb, "%-44s %14s %14s %9s %9s\n", "benchmark", "old ns/op", "new ns/op", "Δns", "ΔB")
	for _, name := range names {
		o, n := oldBy[name], newBy[name]
		mark := " "
		if isKey[name] {
			mark = "*"
		}
		fmt.Fprintf(&sb, "%s%-43s %14.0f %14.0f %9s %9s\n",
			mark, name, o.NsPerOp, n.NsPerOp, pct(o.NsPerOp, n.NsPerOp), pct(o.BytesPerOp, n.BytesPerOp))
		if !isKey[name] {
			continue
		}
		if o.NsPerOp > 0 && n.NsPerOp > o.NsPerOp*(1+opts.Tolerance) {
			rep.Failures = append(rep.Failures,
				fmt.Sprintf("%s ns/op regressed %s (%.0f -> %.0f, tolerance +%.0f%%)",
					name, pct(o.NsPerOp, n.NsPerOp), o.NsPerOp, n.NsPerOp, 100*opts.Tolerance))
		}
		if o.BytesPerOp > 0 && n.BytesPerOp > o.BytesPerOp*(1+opts.Tolerance) {
			rep.Failures = append(rep.Failures,
				fmt.Sprintf("%s bytes/op regressed %s (%.0f -> %.0f, tolerance +%.0f%%)",
					name, pct(o.BytesPerOp, n.BytesPerOp), o.BytesPerOp, n.BytesPerOp, 100*opts.Tolerance))
		}
	}
	// A key benchmark that vanished from either side would make the gate
	// silently vacuous — treat it as a failure.
	for k := range isKey {
		if _, ok := newBy[k]; !ok {
			rep.Failures = append(rep.Failures, fmt.Sprintf("key benchmark %s missing from new run", k))
		}
		if _, ok := oldBy[k]; !ok {
			rep.Failures = append(rep.Failures, fmt.Sprintf("key benchmark %s missing from baseline", k))
		}
	}
	for _, k := range opts.ServeKeys {
		if k = strings.TrimSpace(k); k == "" {
			continue
		}
		o, okO := oldBy[k]
		n, okN := newBy[k]
		if !okO {
			rep.Failures = append(rep.Failures, fmt.Sprintf("serving key benchmark %s missing from baseline", k))
		}
		if !okN {
			rep.Failures = append(rep.Failures, fmt.Sprintf("serving key benchmark %s missing from new run", k))
		}
		if !okO || !okN {
			continue
		}
		oj, nj := o.Extra["jobs/sec"], n.Extra["jobs/sec"]
		o99, n99 := o.Extra["p99-ms"], n.Extra["p99-ms"]
		fmt.Fprintf(&sb, "serving %s: jobs/sec %.1f -> %.1f (%s), p50 %.1f -> %.1f ms, p99 %.1f -> %.1f ms (%s)\n",
			k, oj, nj, pct(oj, nj), o.Extra["p50-ms"], n.Extra["p50-ms"], o99, n99, pct(o99, n99))
		if oj > 0 && nj < oj*(1-opts.ServeTolerance) {
			rep.Failures = append(rep.Failures,
				fmt.Sprintf("%s jobs/sec dropped %s (%.1f -> %.1f, tolerance -%.0f%%)",
					k, pct(oj, nj), oj, nj, 100*opts.ServeTolerance))
		}
		if o99 > 0 && n99 > o99*(1+opts.ServeTolerance) {
			rep.Failures = append(rep.Failures,
				fmt.Sprintf("%s p99-ms regressed %s (%.1f -> %.1f, tolerance +%.0f%%)",
					k, pct(o99, n99), o99, n99, 100*opts.ServeTolerance))
		}
	}
	if opts.PairGrace > 0 {
		ser, okS := newBy["BenchmarkSerialCollect"]
		par, okP := newBy["BenchmarkParallelCollect"]
		if okS && okP && ser.NsPerOp > 0 {
			ratio := par.NsPerOp / ser.NsPerOp
			fmt.Fprintf(&sb, "collect pair: parallel/serial ns ratio %.2f (grace %.2f)\n", ratio, opts.PairGrace)
			if ratio > opts.PairGrace {
				rep.Failures = append(rep.Failures,
					fmt.Sprintf("BenchmarkParallelCollect is %.2fx SerialCollect (grace %.2fx): parallel collection stopped scaling",
						ratio, opts.PairGrace))
			}
		}
	}
	sort.Strings(rep.Failures)
	rep.Table = sb.String()
	return rep
}
