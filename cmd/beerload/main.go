// Command beerload is the load generator behind beerd's serving benchmarks:
// it drives a mixed recovery workload (exact, noisy and planned jobs over a
// pool of distinct miscorrection profiles, with a configurable
// duplicate-profile ratio for cache-hit realism) against a beerd, consumes
// each job's lifecycle over SSE or status polls, records client-observed
// submit-to-terminal latency in an HDR histogram (internal/obs), and emits
// jobs/sec + p50/p95/p99 in the same BENCH JSON document the kernel
// benchmarks use, so tools/benchjson -compare can gate serving regressions
// exactly like ns/op regressions.
//
// Usage:
//
//	beerload                                   # self-hosted: ephemeral in-process beerd
//	beerload -target http://host:8080          # drive a running beerd
//	beerload -duration 30s -concurrency 16     # closed loop: 16 in-flight jobs
//	beerload -rate 50                          # open loop: 50 submissions/sec
//	beerload -dup 0.85 -mix exact=8,noisy=1,planned=1 -sse 0.25
//	beerload -json BENCH_serve.json -label BenchmarkServeMixedCacheHeavy
//
// The default knobs are the cache-heavy mixed workload the CI serve-bench
// job runs: small chips (k=8), minimal window sweep, 85% duplicate
// submissions — the regime where request-path costs (status serialization,
// store decodes, lock contention) dominate over solver time.
package main

import (
	"bufio"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"math/rand"
	"net"
	"net/http"
	"os"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro"
	"repro/internal/obs"
	"repro/internal/service"
	"repro/internal/store"
)

func main() {
	var (
		target      = flag.String("target", "", "base URL of a running beerd (empty = self-hosted ephemeral server)")
		duration    = flag.Duration("duration", 20*time.Second, "how long to generate load")
		warmup      = flag.Duration("warmup", 0, "load to run before measurement starts (not recorded)")
		concurrency = flag.Int("concurrency", 8, "closed-loop worker count (ignored when -rate > 0)")
		rate        = flag.Float64("rate", 0, "open-loop submissions/sec (0 = closed loop)")
		maxInflight = flag.Int("max-inflight", 256, "open-loop cap on concurrent jobs; submissions beyond it are shed")
		dup         = flag.Float64("dup", 0.85, "fraction of submissions reusing an already-submitted spec (cache/dedupe hits)")
		mix         = flag.String("mix", "exact=8,noisy=1,planned=1", "workload class weights")
		sse         = flag.Float64("sse", 0.25, "fraction of consumers streaming SSE instead of polling")
		poll        = flag.Duration("poll", 10*time.Millisecond, "status poll interval for polling consumers")
		k           = flag.Int("k", 8, "dataword bits for generated recovery jobs (multiple of 8)")
		seed        = flag.Int64("seed", 1, "workload RNG seed")
		engineW     = flag.Int("workers", 0, "self-hosted engine worker-pool width (0 = all cores)")
		label       = flag.String("label", "BenchmarkServeMixedCacheHeavy", "benchmark name in the emitted BENCH JSON")
		jsonPath    = flag.String("json", "", "write the BENCH JSON document here (empty = stdout)")
	)
	flag.Parse()

	weights, err := parseMix(*mix)
	if err != nil {
		fmt.Fprintln(os.Stderr, "beerload:", err)
		os.Exit(2)
	}

	base := *target
	var shutdown func()
	if base == "" {
		base, shutdown, err = selfHost(*engineW)
		if err != nil {
			fmt.Fprintln(os.Stderr, "beerload:", err)
			os.Exit(1)
		}
		defer shutdown()
		fmt.Fprintf(os.Stderr, "beerload: self-hosted beerd on %s\n", base)
	}

	// One pooled keep-alive transport for the whole run: the generator must
	// not re-handshake per request, or it measures its own dialer instead of
	// the server. Bodies are always drained before close (see consume/getJSON)
	// so connections actually return to the pool.
	client := &http.Client{
		Transport: &http.Transport{
			Proxy:               http.ProxyFromEnvironment,
			MaxIdleConns:        4 * (*concurrency + 8),
			MaxIdleConnsPerHost: 4 * (*concurrency + 8),
			IdleConnTimeout:     90 * time.Second,
		},
	}

	gen := newWorkload(weights, *k, *dup, rand.New(rand.NewSource(*seed)))
	run := &runner{
		base:   strings.TrimRight(base, "/"),
		client: client,
		gen:    gen,
		sse:    *sse,
		poll:   *poll,
		hist:   obs.NewHDR(),
	}

	if *warmup > 0 {
		fmt.Fprintf(os.Stderr, "beerload: warming up for %v\n", *warmup)
		wctx, cancel := context.WithTimeout(context.Background(), *warmup)
		run.drive(wctx, *concurrency, *rate, *maxInflight)
		cancel()
		run.reset()
	}

	ctx, cancel := context.WithTimeout(context.Background(), *duration)
	defer cancel()
	start := time.Now()
	run.drive(ctx, *concurrency, *rate, *maxInflight)
	elapsed := time.Since(start)

	completed := run.completed.Load()
	failed := run.failed.Load()
	shed := run.shed.Load()
	jobsPerSec := float64(completed) / elapsed.Seconds()
	h := run.hist

	fmt.Fprintf(os.Stderr,
		"beerload: %d jobs in %v (%.1f jobs/sec), %d failed, %d shed\n"+
			"beerload: latency ms p50=%.2f p95=%.2f p99=%.2f max=%.2f (dup target %.0f%%, observed %.0f%%)\n",
		completed, elapsed.Round(time.Millisecond), jobsPerSec, failed, shed,
		ms(h.Quantile(0.50)), ms(h.Quantile(0.95)), ms(h.Quantile(0.99)), ms(h.Max()),
		100**dup, 100*gen.observedDupRatio())

	if completed == 0 {
		fmt.Fprintln(os.Stderr, "beerload: no jobs completed — not writing a baseline")
		os.Exit(1)
	}

	doc := baseline{
		Goos:   runtime.GOOS,
		Goarch: runtime.GOARCH,
		CPU:    cpuModel(),
		Benchmarks: []benchmark{{
			Package:    "repro/cmd/beerload",
			Name:       *label,
			Iterations: completed,
			NsPerOp:    float64(h.Mean()) * 1e3, // histogram is in µs
			Extra: map[string]float64{
				"jobs/sec": round2(jobsPerSec),
				"p50-ms":   round2(ms(h.Quantile(0.50))),
				"p95-ms":   round2(ms(h.Quantile(0.95))),
				"p99-ms":   round2(ms(h.Quantile(0.99))),
			},
		}},
	}
	out := os.Stdout
	if *jsonPath != "" {
		f, err := os.Create(*jsonPath)
		if err != nil {
			fmt.Fprintln(os.Stderr, "beerload:", err)
			os.Exit(1)
		}
		defer f.Close()
		out = f
	}
	enc := json.NewEncoder(out)
	enc.SetIndent("", "  ")
	if err := enc.Encode(doc); err != nil {
		fmt.Fprintln(os.Stderr, "beerload:", err)
		os.Exit(1)
	}
	if failed > 0 && failed*10 > completed {
		fmt.Fprintln(os.Stderr, "beerload: more than 10% of jobs failed — treating the run as invalid")
		os.Exit(1)
	}
}

// baseline/benchmark mirror tools/benchjson's wire format so the emitted
// document feeds `benchjson -compare` directly.
type baseline struct {
	Goos       string      `json:"goos,omitempty"`
	Goarch     string      `json:"goarch,omitempty"`
	CPU        string      `json:"cpu,omitempty"`
	Benchmarks []benchmark `json:"benchmarks"`
}

type benchmark struct {
	Package    string             `json:"package,omitempty"`
	Name       string             `json:"name"`
	Iterations int64              `json:"iterations"`
	NsPerOp    float64            `json:"ns_per_op,omitempty"`
	Extra      map[string]float64 `json:"extra,omitempty"`
}

func ms(us int64) float64 { return float64(us) / 1e3 }
func round2(v float64) float64 {
	return float64(int64(v*100+0.5)) / 100
}

// cpuModel best-effort reads the host CPU name for the baseline header.
func cpuModel() string {
	raw, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return ""
	}
	for _, line := range strings.Split(string(raw), "\n") {
		if name, ok := strings.CutPrefix(line, "model name"); ok {
			return strings.TrimSpace(strings.TrimPrefix(strings.TrimSpace(name), ":"))
		}
	}
	return ""
}

// parseMix parses "exact=8,noisy=1,planned=1" into class weights.
func parseMix(s string) (map[string]int, error) {
	out := map[string]int{}
	for _, part := range strings.Split(s, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		name, val, ok := strings.Cut(part, "=")
		if !ok {
			return nil, fmt.Errorf("bad -mix entry %q (want class=weight)", part)
		}
		w, err := strconv.Atoi(val)
		if err != nil || w < 0 {
			return nil, fmt.Errorf("bad -mix weight %q", part)
		}
		switch name {
		case "exact", "noisy", "planned":
		default:
			return nil, fmt.Errorf("unknown -mix class %q (want exact, noisy or planned)", name)
		}
		out[name] = w
	}
	total := 0
	for _, w := range out {
		total += w
	}
	if total == 0 {
		return nil, errors.New("-mix has zero total weight")
	}
	return out, nil
}

// jobSpec is the subset of the beerd submission body the generator uses.
type jobSpec struct {
	Type             string  `json:"type"`
	Manufacturer     string  `json:"manufacturer,omitempty"`
	K                int     `json:"k,omitempty"`
	Patterns         string  `json:"patterns,omitempty"`
	Rounds           int     `json:"rounds,omitempty"`
	MaxWindowMinutes int     `json:"max_window_minutes,omitempty"`
	UseAntiRows      bool    `json:"use_anti_rows,omitempty"`
	Plan             bool    `json:"plan,omitempty"`
	NoiseFP          float64 `json:"noise_fp,omitempty"`
	NoiseSeed        uint64  `json:"noise_seed,omitempty"`
}

// workload draws the next spec to submit: with probability dup an
// already-submitted spec (a cache/dedupe hit by construction), otherwise the
// next entry of a fixed pool of distinct-profile specs. The pool varies
// manufacturer, pattern set and anti-cell rows — the inputs the analytic
// profile actually depends on — per class:
//
//   - exact:   3 manufacturers × 2 pattern sets × ±anti rows (12 profiles)
//   - noisy:   3 manufacturers × 2 pattern sets, perturbed observations (6)
//   - planned: 3 manufacturers, adaptive pattern planner (3)
//
// Duplicate draws are Zipf-distributed over the specs submitted so far:
// real duplicate traffic concentrates on a hot set (that skew is the entire
// reason caches and single-flight dedupe pay off), so a uniform draw would
// understate both the baseline's wasted work and the optimized path's
// benefit. All jobs use minimal collection knobs (rounds=1, 4-minute window
// cap) so the workload stresses the request path rather than the simulator.
type workload struct {
	mu       sync.Mutex
	rng      *rand.Rand
	dup      float64
	pool     []jobSpec
	next     int
	distinct []jobSpec // unique specs submitted so far, first-use order
	seen     map[jobSpec]bool
	zipf     *rand.Zipf
	fresh    int64
	reused   int64
}

func newWorkload(weights map[string]int, k int, dup float64, rng *rand.Rand) *workload {
	var pool []jobSpec
	addClass := func(class string, weight int) {
		if weight == 0 {
			return
		}
		var variants []jobSpec
		for _, mfr := range []string{"A", "B", "C"} {
			switch class {
			case "exact":
				for _, patterns := range []string{"1", "12"} {
					for _, anti := range []bool{false, true} {
						variants = append(variants, jobSpec{
							Type: "recover", Manufacturer: mfr, K: k, Patterns: patterns,
							Rounds: 1, MaxWindowMinutes: 4, UseAntiRows: anti,
						})
					}
				}
			case "noisy":
				for _, patterns := range []string{"1", "12"} {
					variants = append(variants, jobSpec{
						Type: "recover", Manufacturer: mfr, K: k, Patterns: patterns,
						Rounds: 1, MaxWindowMinutes: 4, NoiseFP: 0.01, NoiseSeed: 1,
					})
				}
			case "planned":
				variants = append(variants, jobSpec{
					Type: "recover", Manufacturer: mfr, K: k, Patterns: "12",
					Rounds: 1, MaxWindowMinutes: 4, Plan: true,
				})
			}
		}
		// Interleave proportionally to the weight: the pool is consumed
		// round-robin, so repeating a class's variants weight times keeps
		// the submitted mix near the requested ratio even on short runs.
		for i := 0; i < weight; i++ {
			pool = append(pool, variants...)
		}
	}
	addClass("exact", weights["exact"])
	addClass("noisy", weights["noisy"])
	addClass("planned", weights["planned"])
	rng.Shuffle(len(pool), func(i, j int) { pool[i], pool[j] = pool[j], pool[i] })
	return &workload{rng: rng, dup: dup, pool: pool, seen: map[jobSpec]bool{}}
}

func (w *workload) nextSpec() jobSpec {
	w.mu.Lock()
	defer w.mu.Unlock()
	if len(w.distinct) > 0 && w.rng.Float64() < w.dup {
		w.reused++
		return w.distinct[w.zipf.Uint64()]
	}
	spec := w.pool[w.next%len(w.pool)]
	w.next++
	w.fresh++
	if !w.seen[spec] {
		w.seen[spec] = true
		w.distinct = append(w.distinct, spec)
		// Rank the hot set by first use: spec i is drawn with
		// P ∝ 1/(i+1)^1.5 once it has been submitted at least once.
		w.zipf = rand.NewZipf(w.rng, 1.5, 1, uint64(len(w.distinct)-1))
	}
	return spec
}

func (w *workload) observedDupRatio() float64 {
	w.mu.Lock()
	defer w.mu.Unlock()
	total := w.fresh + w.reused
	if total == 0 {
		return 0
	}
	return float64(w.reused) / float64(total)
}

// runner drives one benchmark phase and accumulates its results.
type runner struct {
	base   string
	client *http.Client
	gen    *workload
	sse    float64
	poll   time.Duration

	hist      *obs.HDR
	completed atomic.Int64
	failed    atomic.Int64
	shed      atomic.Int64
	consumerN atomic.Int64
}

func (r *runner) reset() {
	r.hist = obs.NewHDR()
	r.completed.Store(0)
	r.failed.Store(0)
	r.shed.Store(0)
}

// drive generates load until ctx expires: closed-loop workers when rate is
// zero, otherwise an open-loop submission ticker capped at maxInflight.
func (r *runner) drive(ctx context.Context, concurrency int, rate float64, maxInflight int) {
	var wg sync.WaitGroup
	if rate <= 0 {
		for i := 0; i < max(concurrency, 1); i++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for ctx.Err() == nil {
					r.one(ctx)
				}
			}()
		}
		wg.Wait()
		return
	}
	sem := make(chan struct{}, max(maxInflight, 1))
	tick := time.NewTicker(time.Duration(float64(time.Second) / rate))
	defer tick.Stop()
	for {
		select {
		case <-ctx.Done():
			wg.Wait()
			return
		case <-tick.C:
			select {
			case sem <- struct{}{}:
			default:
				r.shed.Add(1)
				continue
			}
			wg.Add(1)
			go func() {
				defer wg.Done()
				defer func() { <-sem }()
				r.one(ctx)
			}()
		}
	}
}

// one runs a single submit→consume→result cycle and records its latency.
func (r *runner) one(ctx context.Context) {
	spec := r.gen.nextSpec()
	useSSE := float64(r.consumerN.Add(1)%1000)/1000 < r.sse
	start := time.Now()
	id, err := r.submit(ctx, spec)
	if err != nil {
		if ctx.Err() == nil {
			r.failed.Add(1)
		}
		return
	}
	if useSSE {
		err = r.consumeSSE(ctx, id)
	} else {
		err = r.consumePoll(ctx, id)
	}
	if err == nil {
		err = r.fetchResult(ctx, id)
	}
	if err != nil {
		if ctx.Err() == nil {
			r.failed.Add(1)
		}
		return
	}
	r.hist.Record(time.Since(start).Microseconds())
	r.completed.Add(1)
}

// submit POSTs the spec, retrying briefly on 429/503 backpressure, and
// returns the job ID.
func (r *runner) submit(ctx context.Context, spec jobSpec) (string, error) {
	body, err := json.Marshal(spec)
	if err != nil {
		return "", err
	}
	for {
		req, err := http.NewRequestWithContext(ctx, http.MethodPost, r.base+"/api/v1/jobs", strings.NewReader(string(body)))
		if err != nil {
			return "", err
		}
		req.Header.Set("Content-Type", "application/json")
		resp, err := r.client.Do(req)
		if err != nil {
			return "", err
		}
		switch resp.StatusCode {
		case http.StatusAccepted:
			var st struct {
				ID string `json:"id"`
			}
			err = json.NewDecoder(resp.Body).Decode(&st)
			resp.Body.Close()
			if err != nil {
				return "", err
			}
			return st.ID, nil
		case http.StatusTooManyRequests, http.StatusServiceUnavailable:
			retry := time.Second
			if s := resp.Header.Get("Retry-After"); s != "" {
				if secs, err := strconv.Atoi(s); err == nil && secs > 0 {
					retry = time.Duration(secs) * time.Second
				}
			}
			drain(resp)
			select {
			case <-ctx.Done():
				return "", ctx.Err()
			case <-time.After(retry):
			}
		default:
			msg, _ := bufio.NewReader(resp.Body).ReadString('\n')
			drain(resp)
			return "", fmt.Errorf("submit: HTTP %d: %s", resp.StatusCode, strings.TrimSpace(msg))
		}
	}
}

// consumePoll polls the status endpoint until the job is terminal.
func (r *runner) consumePoll(ctx context.Context, id string) error {
	for {
		var st struct {
			State string `json:"state"`
			Error string `json:"error"`
		}
		if err := r.getJSON(ctx, "/api/v1/jobs/"+id, &st); err != nil {
			return err
		}
		switch st.State {
		case "succeeded":
			return nil
		case "failed", "canceled":
			return fmt.Errorf("job %s %s: %s", id, st.State, st.Error)
		}
		select {
		case <-ctx.Done():
			return ctx.Err()
		case <-time.After(r.poll):
		}
	}
}

// consumeSSE streams /events until the server sends the terminal `done`
// event.
func (r *runner) consumeSSE(ctx context.Context, id string) error {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, r.base+"/api/v1/jobs/"+id+"/events", nil)
	if err != nil {
		return err
	}
	resp, err := r.client.Do(req)
	if err != nil {
		return err
	}
	defer drain(resp)
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("events: HTTP %d", resp.StatusCode)
	}
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	event := ""
	for sc.Scan() {
		line := sc.Text()
		switch {
		case strings.HasPrefix(line, "event:"):
			event = strings.TrimSpace(strings.TrimPrefix(line, "event:"))
		case strings.HasPrefix(line, "data:"):
			if event != "done" {
				continue
			}
			var st struct {
				State string `json:"state"`
				Error string `json:"error"`
			}
			if err := json.Unmarshal([]byte(strings.TrimPrefix(line, "data:")), &st); err != nil {
				return err
			}
			if st.State != "succeeded" {
				return fmt.Errorf("job %s %s: %s", id, st.State, st.Error)
			}
			return nil
		}
	}
	if err := sc.Err(); err != nil {
		return err
	}
	return fmt.Errorf("job %s: event stream ended before done", id)
}

// fetchResult downloads and discards the result body — part of the cost a
// real consumer pays.
func (r *runner) fetchResult(ctx context.Context, id string) error {
	var res json.RawMessage
	return r.getJSON(ctx, "/api/v1/jobs/"+id+"/result", &res)
}

func (r *runner) getJSON(ctx context.Context, path string, out any) error {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, r.base+path, nil)
	if err != nil {
		return err
	}
	resp, err := r.client.Do(req)
	if err != nil {
		return err
	}
	defer drain(resp)
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("GET %s: HTTP %d", path, resp.StatusCode)
	}
	return json.NewDecoder(resp.Body).Decode(out)
}

// drain empties and closes a response body so the keep-alive connection
// returns to the transport's pool.
func drain(resp *http.Response) {
	_, _ = bufio.NewReader(resp.Body).WriteTo(discard{})
	resp.Body.Close()
}

type discard struct{}

func (discard) Write(p []byte) (int, error) { return len(p), nil }

// selfHost boots an ephemeral in-process beerd on a loopback port — the
// `beerload` analogue of `beerd -selfcheck` — and returns its base URL plus
// a shutdown func.
func selfHost(workers int) (string, func(), error) {
	srv := service.New(repro.NewEngine(workers),
		service.WithStore(store.New(store.NewMemBackend())),
		service.WithObservability(obs.NewHub(nil)))
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		srv.Close()
		return "", nil, err
	}
	httpSrv := &http.Server{Handler: srv.Handler(), ReadHeaderTimeout: 10 * time.Second}
	go func() {
		if err := httpSrv.Serve(ln); err != nil && !errors.Is(err, http.ErrServerClosed) {
			fmt.Fprintln(os.Stderr, "beerload: self-hosted server:", err)
		}
	}()
	shutdown := func() {
		httpSrv.Close()
		srv.Close()
		srv.Store().Close()
	}
	return "http://" + ln.Addr().String(), shutdown, nil
}
