// Command benchjson converts `go test -bench` text output (stdin) into a
// stable JSON document (stdout), so benchmark baselines can be stored,
// diffed and plotted without re-parsing the Go test format. CI runs it via
// `make bench-baseline`, which seeds the BENCH_*.json trajectory uploaded as
// a workflow artifact.
//
// Usage:
//
//	go test -bench . -benchtime 1x -run '^$' ./... | go run ./tools/benchjson > BENCH_pr6.json
//
// With -compare, benchjson becomes the CI regression gate: it reads the
// committed baseline from the named file, reads the fresh run from stdin
// (either raw `go test -bench` text or an already-converted JSON document),
// prints per-benchmark deltas, and exits nonzero when any key benchmark
// regresses beyond the tolerance in ns/op or bytes/op:
//
//	go test -bench . -benchtime 1x -run '^$' ./... | go run ./tools/benchjson -compare BENCH_pr6.json
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"
)

// Benchmark is one parsed benchmark result line.
type Benchmark struct {
	Package    string  `json:"package,omitempty"`
	Name       string  `json:"name"`
	Iterations int64   `json:"iterations"`
	NsPerOp    float64 `json:"ns_per_op,omitempty"`
	BytesPerOp float64 `json:"bytes_per_op,omitempty"`
	AllocsOp   float64 `json:"allocs_per_op,omitempty"`
	// Extra collects any further "<value> <unit>" metric pairs (custom
	// b.ReportMetric units).
	Extra map[string]float64 `json:"extra,omitempty"`
}

// Baseline is the top-level output document.
type Baseline struct {
	Goos       string      `json:"goos,omitempty"`
	Goarch     string      `json:"goarch,omitempty"`
	CPU        string      `json:"cpu,omitempty"`
	Benchmarks []Benchmark `json:"benchmarks"`
}

func main() {
	comparePath := flag.String("compare", "", "baseline JSON file to gate the stdin run against")
	keys := flag.String("key", strings.Join(defaultKeys, ","), "comma-separated key benchmarks the gate enforces")
	tolerance := flag.Float64("tolerance", 0.30, "fractional ns/op and bytes/op regression allowed on key benchmarks")
	serveKeys := flag.String("serve-key", "", "comma-separated serving benchmarks gated direction-aware on their custom metrics (jobs/sec must not drop, p99-ms must not grow)")
	serveTolerance := flag.Float64("serve-tolerance", 0.50, "fractional move allowed on serving keys (down in jobs/sec, up in p99-ms)")
	pairGrace := flag.Float64("collect-pair-grace", 1.25, "max allowed ParallelCollect/SerialCollect ns ratio (slack for single-CPU hosts)")
	flag.Parse()

	in, err := readBaseline(os.Stdin)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchjson:", err)
		os.Exit(1)
	}

	if *comparePath == "" {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(in); err != nil {
			fmt.Fprintln(os.Stderr, "benchjson:", err)
			os.Exit(1)
		}
		return
	}

	raw, err := os.ReadFile(*comparePath)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchjson:", err)
		os.Exit(1)
	}
	var old Baseline
	if err := json.Unmarshal(raw, &old); err != nil {
		fmt.Fprintf(os.Stderr, "benchjson: parsing %s: %v\n", *comparePath, err)
		os.Exit(1)
	}
	rep := compare(&old, in, compareOptions{
		Keys:           strings.Split(*keys, ","),
		Tolerance:      *tolerance,
		ServeKeys:      strings.Split(*serveKeys, ","),
		ServeTolerance: *serveTolerance,
		PairGrace:      *pairGrace,
	})
	os.Stdout.WriteString(rep.Table)
	if len(rep.Failures) > 0 {
		for _, f := range rep.Failures {
			fmt.Fprintln(os.Stderr, "FAIL:", f)
		}
		os.Exit(1)
	}
	fmt.Println("bench gate: all key benchmarks within tolerance")
}

// readBaseline reads either raw `go test -bench` text or an existing JSON
// baseline (detected by a leading '{') and returns the parsed document.
func readBaseline(r io.Reader) (*Baseline, error) {
	br := bufio.NewReaderSize(r, 1<<20)
	for {
		b, err := br.Peek(1)
		if err != nil {
			// Empty input parses as an empty text baseline.
			return parseBenchText(br)
		}
		if b[0] == ' ' || b[0] == '\t' || b[0] == '\n' || b[0] == '\r' {
			br.Discard(1)
			continue
		}
		if b[0] == '{' {
			var out Baseline
			if err := json.NewDecoder(br).Decode(&out); err != nil {
				return nil, fmt.Errorf("parsing JSON baseline: %w", err)
			}
			return &out, nil
		}
		return parseBenchText(br)
	}
}

// parseBenchText parses `go test -bench` text output into a Baseline.
func parseBenchText(r io.Reader) (*Baseline, error) {
	var out Baseline
	pkg := ""
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		switch {
		case strings.HasPrefix(line, "goos:"):
			out.Goos = strings.TrimSpace(strings.TrimPrefix(line, "goos:"))
		case strings.HasPrefix(line, "goarch:"):
			out.Goarch = strings.TrimSpace(strings.TrimPrefix(line, "goarch:"))
		case strings.HasPrefix(line, "cpu:"):
			out.CPU = strings.TrimSpace(strings.TrimPrefix(line, "cpu:"))
		case strings.HasPrefix(line, "pkg:"):
			pkg = strings.TrimSpace(strings.TrimPrefix(line, "pkg:"))
		case strings.HasPrefix(line, "Benchmark"):
			if b, ok := parseBenchLine(line); ok {
				b.Package = pkg
				out.Benchmarks = append(out.Benchmarks, b)
			}
		}
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	if out.Benchmarks == nil {
		out.Benchmarks = []Benchmark{}
	}
	return &out, nil
}

// parseBenchLine parses "BenchmarkName-8  10  123 ns/op  4 B/op  1 allocs/op
// [value unit]...".
func parseBenchLine(line string) (Benchmark, bool) {
	fields := strings.Fields(line)
	if len(fields) < 2 {
		return Benchmark{}, false
	}
	iters, err := strconv.ParseInt(fields[1], 10, 64)
	if err != nil {
		return Benchmark{}, false
	}
	b := Benchmark{Name: fields[0], Iterations: iters}
	for i := 2; i+1 < len(fields); i += 2 {
		value, err := strconv.ParseFloat(fields[i], 64)
		if err != nil {
			continue
		}
		switch unit := fields[i+1]; unit {
		case "ns/op":
			b.NsPerOp = value
		case "B/op":
			b.BytesPerOp = value
		case "allocs/op":
			b.AllocsOp = value
		default:
			if b.Extra == nil {
				b.Extra = map[string]float64{}
			}
			b.Extra[unit] = value
		}
	}
	return b, true
}
