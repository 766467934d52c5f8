package main

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"repro"
)

// engineWorkers is the worker-pool width of every engine the benchmark
// builds: the nproc of the reference host, fixed so that results do not
// depend on the core count of the machine running them.
const engineWorkers = 2

// system is one workload's program under test, set up and ready.
type system interface {
	// op runs operation n (numbered from 0 across the run) and returns its
	// latency. rec records the operation's spans; it is nil when untraced.
	op(ctx context.Context, n int64, rec *opRec) (time.Duration, error)
	close()
}

// setupConfig is what a workload's set-up receives.
type setupConfig struct {
	seed    uint64
	tr      *tracer // nil: untraced
	scratch string  // directory for on-disk state, inside the checkout
}

// workload is one benchmark input set. Shapes are constants, not flags;
// BENCHMARK.json and README.md give the reason for each.
type workload struct {
	name    string
	callers int     // closed-loop callers; each waits for its result before the next request
	warmup  int     // operations run before measuring and discarded
	tail    float64 // quantile reported as latency_tail_ms
	setup   func(setupConfig) (system, error)
}

var workloads = []workload{
	{
		name:    "recover-sweep",
		callers: 1, warmup: 3, tail: 0.75,
		setup: func(cfg setupConfig) (system, error) { return newLibSystem(cfg, 24, 2), nil },
	},
	{
		name:    "serve-hot",
		callers: 2, warmup: 300, tail: 0.99,
		setup: func(cfg setupConfig) (system, error) { return newServeSystem(cfg, false, newHotStream(cfg.seed)) },
	},
	{
		name:    "serve-cold",
		callers: 2, warmup: 20, tail: 0.95,
		setup: func(cfg setupConfig) (system, error) { return newServeSystem(cfg, true, newColdStream(cfg.seed)) },
	},
}

func workloadByName(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// manufacturers are cycled or drawn by the workloads.
var manufacturers = []repro.Manufacturer{repro.MfrA, repro.MfrB, repro.MfrC}

// truthSeed is the chip seed of the chips the serving oracle reads ground
// truth from. opSeed never returns it, so building them warms no cache an
// operation uses.
const truthSeed = 1 << 63

// opSeed derives operation n's chip seed from the run seed (splitmix64).
// Seeds stay below 2^62, leaving room for the +i of multi-chip fleets.
func opSeed(seed uint64, n int64) uint64 {
	z := seed*0x9E3779B97F4A7C15 + uint64(n)*0xBF58476D1CE4E5B9 + 0x94D049BB133111EB
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	z ^= z >> 31
	return 2 + z>>2
}

// abortError is an outcome that aborts a run: a unique recovered code that
// is not the chip's, or a failed §6.3 cross-check.
type abortError struct{ msg string }

func (e *abortError) Error() string { return e.msg }

// errNotUnique marks a recovery that did not single out one code; it
// counts as a failed operation.
var errNotUnique = errors.New("recovered code is not unique")

// phase is the outcome of one closed-loop measurement.
type phase struct {
	latencies         []float64 // ms, verified operations only
	attempted, failed int
	wall              time.Duration
	cpu               time.Duration
	next              int64 // first operation number after the phase
}

func (p phase) throughput() float64 {
	if p.wall <= 0 {
		return 0
	}
	return float64(len(p.latencies)) / p.wall.Seconds()
}

// runPhase drives sys with callers closed-loop callers from operation
// first until the deadline passes (zero: no deadline) or limit operations
// have started (0: no limit). Operations in flight at the deadline finish
// and count. An abortError stops every caller and is returned.
func runPhase(ctx context.Context, sys system, tr *tracer, callers int, first int64, deadline time.Time, limit int64) (phase, error) {
	var (
		next  atomic.Int64
		mu    sync.Mutex
		out   phase
		fatal error
		wg    sync.WaitGroup
	)
	next.Store(first)
	ctx, cancel := context.WithCancel(ctx)
	defer cancel()
	cpu0 := cpuTime()
	start := time.Now()
	for c := 0; c < callers; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for ctx.Err() == nil {
				if !deadline.IsZero() && time.Now().After(deadline) {
					return
				}
				n := next.Add(1) - 1
				if limit > 0 && n >= first+limit {
					return
				}
				lat, err := sys.op(ctx, n, tr.op())
				mu.Lock()
				out.attempted++
				var abort *abortError
				switch {
				case errors.As(err, &abort):
					fatal = err
					cancel()
				case err != nil:
					out.failed++
					logf("op %d failed: %v", n, err)
				default:
					out.latencies = append(out.latencies, float64(lat)/float64(time.Millisecond))
				}
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	out.wall = time.Since(start)
	out.cpu = cpuTime() - cpu0
	out.next = next.Load()
	if fatal != nil {
		return out, fatal
	}
	return out, nil
}

// runOpts configures one workload run.
type runOpts struct {
	seed    uint64
	seconds float64
	trace   bool
	// maxOps caps the measured operations (0: time-bound only); warmup
	// overrides the workload's warm-up count when non-negative.
	maxOps int64
	warmup int
	// setupProbes is how many fresh processes time the set-up for setup_s;
	// 0 times the in-process set-up instead.
	setupProbes int
	scratch     string
}

// runResult is the benchmark's one-line result.
type runResult struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
	spans     []span
}

// fail marks the result incorrect when err aborted the run.
func (r runResult) fail(err error) (runResult, error) {
	var abort *abortError
	r.Correct = !errors.As(err, &abort)
	return r, err
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// runWorkload sets up w, warms it up and measures it. Untraced, it reports
// the end-to-end metrics. Traced, it measures half the time untraced and
// half with the timing wrappers installed, and reports the per-layer
// metrics of the traced half.
func runWorkload(ctx context.Context, w workload, o runOpts) (runResult, error) {
	warm := w.warmup
	if o.warmup >= 0 {
		warm = o.warmup
	}
	measure := func(tr *tracer, first int64, seconds float64) (phase, time.Duration, error) {
		setupStart := time.Now()
		sys, err := w.setup(setupConfig{seed: o.seed, tr: tr, scratch: o.scratch})
		if err != nil {
			return phase{}, 0, fmt.Errorf("%s: set-up: %w", w.name, err)
		}
		setup := time.Since(setupStart)
		defer sys.close()
		p := phase{next: first}
		if warm > 0 {
			if p, err = runPhase(ctx, sys, tr, w.callers, first, time.Time{}, int64(warm)); err != nil {
				return p, setup, fmt.Errorf("%s: warm-up: %w", w.name, err)
			}
		}
		if tr != nil {
			tr.reset()
		}
		deadline := time.Now().Add(time.Duration(seconds * float64(time.Second)))
		p, err = runPhase(ctx, sys, tr, w.callers, p.next, deadline, o.maxOps)
		return p, setup, err
	}
	res := runResult{Correct: true, Metrics: map[string]metricValue{}}
	if !o.trace {
		p, setup, err := measure(nil, 0, o.seconds)
		res.Attempted, res.Failed = p.attempted, p.failed
		if err != nil {
			return res.fail(err)
		}
		setupS := setup.Seconds()
		if o.setupProbes > 0 {
			if setupS, err = probeSetup(ctx, w, o); err != nil {
				return res, err
			}
		}
		tail, ok := percentile(p.latencies, w.tail)
		if !ok {
			logf("%s: only %d samples, fewer than %d beyond p%g", w.name, len(p.latencies), minBeyond, 100*w.tail)
		}
		values := map[string]float64{
			"throughput_ops_s": p.throughput(),
			"latency_p50_ms":   median(p.latencies),
			"latency_tail_ms":  tail,
			"cpu_ms_per_op":    perOpMS(p.cpu, len(p.latencies)),
			"peak_rss_mb":      peakRSSMiB(),
			"setup_s":          setupS,
		}
		for _, m := range endToEnd {
			res.Metrics[m.name] = metricValue{values[m.name], m.unit}
		}
		return res, nil
	}
	untraced, _, err := measure(nil, 0, o.seconds/2)
	res.Attempted, res.Failed = untraced.attempted, untraced.failed
	if err != nil {
		return res.fail(err)
	}
	tr := newTracer()
	traced, _, err := measure(tr, untraced.next, o.seconds/2)
	res.Attempted += traced.attempted
	res.Failed += traced.failed
	if err != nil {
		return res.fail(err)
	}
	tr.link()
	res.spans = tr.snapshot()
	overhead := 0.0
	if t := untraced.throughput(); t > 0 {
		overhead = 1 - traced.throughput()/t
	}
	values := reduceLayers(res.spans, overhead)
	for _, m := range perLayer {
		res.Metrics[m.name] = metricValue{values[m.name], m.unit}
	}
	return res, nil
}

func perOpMS(d time.Duration, ops int) float64 {
	if ops == 0 {
		return 0
	}
	return float64(d) / float64(time.Millisecond) / float64(ops)
}
