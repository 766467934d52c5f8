package main

import (
	"context"
	"errors"
	"fmt"
	"io"
	"math/rand/v2"
	"slices"
	"strings"
	"time"

	"repro"
	"repro/internal/core"
)

// libSystem drives Pipeline.Recover directly, as the beer CLI does: every
// operation recovers the ECC function of a fleet of same-model chips never
// used before in the run (manufacturers cycle A, B, C), with no caches.
type libSystem struct {
	engine *repro.Engine
	tr     *tracer
	k      int
	chips  int
	opts   []repro.Option
	// pause is what every chip's collect-stage refresh pauses must add up
	// to (core.ExperimentRuntime, the paper's §6.3 model).
	pause time.Duration
	// order lists, per manufacturer, the candidate fleets in the order the
	// run draws them: the run seed's permutation of the screened pool.
	order [][]int
}

// fleetPool is how many candidate fleets per manufacturer a library
// workload draws from. Candidate i of manufacturer m has chip seeds
// candidateSeed(m, i) + 0, 1, ...
const fleetPool = 256

func candidateSeed(m, i int) uint64 { return opSeed(uint64(m)+1, int64(i)) }

// screenedOut lists, by manufacturer index, the candidate fleets whose
// recovery is not unique: no code matches their profiles (beerbench
// -screen recover-sweep finds them; a recovery is deterministic in its chip
// seeds). They are never drawn, so no operation fails.
var screenedOut = [][]int{{}, {109, 114, 208}, {}}

func newLibSystem(cfg setupConfig, k, chips int) *libSystem {
	s := &libSystem{
		engine: repro.NewEngine(engineWorkers),
		tr:     cfg.tr,
		k:      k,
		chips:  chips,
	}
	s.opts = []repro.Option{repro.WithEngine(s.engine), repro.WithWindowSweep(48), repro.WithRounds(3), repro.WithPatternSet(repro.Set12)}
	s.pause = core.ExperimentRuntime(repro.NewPipeline(s.opts...).RecoverOptions().Collect)
	for m := range manufacturers {
		var pool []int
		for i := 0; i < fleetPool; i++ {
			if !slices.Contains(screenedOut[m], i) {
				pool = append(pool, i)
			}
		}
		rng := rand.New(rand.NewPCG(cfg.seed, uint64(m)))
		rng.Shuffle(len(pool), func(a, b int) { pool[a], pool[b] = pool[b], pool[a] })
		s.order = append(s.order, pool)
	}
	return s
}

func (s *libSystem) close() {}

func (s *libSystem) op(ctx context.Context, n int64, rec *opRec) (time.Duration, error) {
	m := int(n % int64(len(manufacturers)))
	pool := s.order[m]
	return s.recoverFleet(ctx, m, candidateSeed(m, pool[int(n/int64(len(manufacturers)))%len(pool)]), rec)
}

// recoverFleet recovers the ECC function of manufacturer m's fleet with
// chip seeds seed, seed+1, ... and checks it.
func (s *libSystem) recoverFleet(ctx context.Context, m int, seed uint64, rec *opRec) (time.Duration, error) {
	mfr := manufacturers[m]
	var io *chipIO
	if rec != nil {
		io = &chipIO{}
	}
	fleet := make([]*benchChip, s.chips)
	chips := make([]repro.Chip, s.chips)
	for i := range fleet {
		fleet[i] = &benchChip{Chip: repro.SimulatedChip(mfr, s.k, seed+uint64(i)), io: io}
		chips[i] = fleet[i]
	}
	clock := &stageClock{}
	opts := append(s.opts[:len(s.opts):len(s.opts)], repro.WithProgress(func(ev repro.ProgressEvent) {
		if ev.Stage == repro.StageDiscover && ev.Done {
			fleet[ev.Chip].collecting.Store(true)
		}
		clock.event(ev)
	}))
	if rec != nil {
		opts = append(opts, repro.WithSolverBackend(func() repro.SolverBackend {
			return &tracedBackend{Backend: repro.NewSolverBackend(), tr: s.tr, op: rec.id}
		}))
	}
	pipe := repro.NewPipeline(opts...)

	start := time.Now()
	clock.start = start
	rep, err := pipe.Recover(ctx, chips...)
	end := time.Now()
	if rec != nil {
		s.record(rec, clock, fleet, io, rep, start, end)
	}
	lat := end.Sub(start)
	if err != nil {
		return lat, err
	}
	for i, c := range fleet {
		if c.collectPause != s.pause {
			return lat, &abortError{fmt.Sprintf("§6.3 cross-check: chip %d paused refresh for %v while collecting, ExperimentRuntime is %v", i, c.collectPause, s.pause)}
		}
	}
	if !rep.Result.Unique || len(rep.Result.Codes) == 0 {
		return lat, fmt.Errorf("%w: %d candidates (mfr %s, seed %d)", errNotUnique, len(rep.Result.Codes), mfr, seed)
	}
	return lat, checkCode(rep.Result.Codes[0], repro.GroundTruth(fleet[0].Chip), fmt.Sprintf("mfr %s k=%d seed %d", mfr, s.k, seed))
}

// record writes the operation's stage spans and its root span, which
// carries the chip counters and the Report's own stage times.
func (s *libSystem) record(rec *opRec, clock *stageClock, fleet []*benchChip, io *chipIO, rep *repro.Report, start, end time.Time) {
	for _, st := range clock.spans(end) {
		rec.span(st.name, st.from, st.to, nil)
	}
	var reads, writes, pauses, readNS, writeNS, busyNS int64
	var pause time.Duration
	for _, c := range fleet {
		reads, writes, pauses = reads+c.reads, writes+c.writes, pauses+c.pauses
		readNS, writeNS, busyNS = readNS+c.readNS, writeNS+c.writeNS, busyNS+c.busyNS
		pause = max(pause, c.collectPause)
	}
	attrs := map[string]any{
		"ondie.reads": reads, "ondie.writes": writes, "ondie.pauses": pauses,
		"ondie.read_ns": readNS, "ondie.write_ns": writeNS, "ondie.busy_ns": busyNS,
		"ondie.union_ns": io.unionNS, "ondie.collect_pause_s": pause.Seconds(),
	}
	if rep != nil {
		attrs["report.discovery_ns"] = rep.DiscoveryTime.Nanoseconds()
		attrs["report.collect_ns"] = rep.CollectTime.Nanoseconds()
		attrs["report.solve_ns"] = rep.SolveTime.Nanoseconds()
	}
	rec.finish(start, end, attrs)
}

// checkCode is the correctness oracle: a unique recovered code must be the
// chip's own ECC function, up to parity-row relabeling.
func checkCode(got, truth *repro.Code, what string) error {
	if !got.EquivalentTo(truth) {
		return &abortError{"wrong unique code: " + what}
	}
	return nil
}

// screenFleets recovers every candidate fleet of the library workload once
// and prints those whose recovery fails, in screenedOut's form. An
// outcome that would abort a run is an error.
func screenFleets(ctx context.Context, w io.Writer, name string) error {
	wl, ok := workloadByName(name)
	if !ok {
		return fmt.Errorf("unknown workload %q", name)
	}
	sys, err := wl.setup(setupConfig{seed: 1})
	if err != nil {
		return err
	}
	defer sys.close()
	lib, ok := sys.(*libSystem)
	if !ok {
		return fmt.Errorf("%s is not a library workload", name)
	}
	out := make([][]int, len(manufacturers))
	for m := range manufacturers {
		for i := 0; i < fleetPool; i++ {
			_, err := lib.recoverFleet(ctx, m, candidateSeed(m, i), nil)
			var abort *abortError
			switch {
			case errors.As(err, &abort), ctx.Err() != nil:
				return errors.Join(err, ctx.Err())
			case err != nil:
				logf("%s: candidate %d of manufacturer %s: %v", name, i, manufacturers[m], err)
				out[m] = append(out[m], i)
			}
		}
	}
	lists := make([]string, len(out))
	for m, idx := range out {
		lists[m] = strings.Trim(strings.Join(strings.Fields(fmt.Sprint(idx)), ", "), "[]")
	}
	_, err = fmt.Fprintf(w, "{{%s}}\n", strings.Join(lists, "}, {"))
	return err
}
