package main

import (
	"bytes"
	"context"
	"runtime"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"repro"
	"repro/internal/core"
	"repro/internal/ondie"
	"repro/internal/sat"
	"repro/internal/service"
	"repro/internal/store"
)

// span is one timed call at a layer boundary. Times are nanoseconds since
// the traced phase began; Parent 0 marks an operation's root span, whose
// duration is the operation's latency.
type span struct {
	Op     int64          `json:"op_id"`
	ID     int64          `json:"span_id"`
	Parent int64          `json:"parent"`
	Name   string         `json:"name"`
	Start  int64          `json:"start_ns"`
	End    int64          `json:"end_ns"`
	Attrs  map[string]any `json:"attrs,omitempty"`
	// job is the beerd job a server-side span belongs to; link joins it to
	// the operation that owns the job once the phase ends.
	job string
}

func (s span) dur() int64 { return s.End - s.Start }

// Span names. Stage spans come from progress events (library) or
// ExecEnv.Report snapshot transitions (serving).
const (
	spanOp        = "op"
	spanDiscover  = "core.discover"
	spanCollect   = "core.collect"
	spanSolve     = "core.solve"
	spanSAT       = "sat.solve"
	spanLookup    = "core.solvecache.lookup"
	spanCacheSave = "core.solvecache.store"
	spanPut       = "store.put"
	spanGet       = "store.get"
	spanSubmit    = "http.submit"
	spanStatus    = "http.status"
	spanEvents    = "http.events"
	spanResult    = "http.result"
	spanVerify    = "bench.verify"
	spanQueue     = "service.queue"
	spanExecute   = "service.execute"
	spanNotify    = "service.notify"
	spanDedupe    = "service.dedupe.wait"
)

// tracer keeps one traced phase's spans in memory.
type tracer struct {
	t0    time.Time
	next  atomic.Int64
	mu    sync.Mutex
	spans []span
	// jobOf maps the goroutine running a job's Execution to the job. The
	// solver-backend factory and the store backend get no job context, but
	// beerd opens solve sessions and registry reads on that goroutine.
	jobOf sync.Map
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

func (t *tracer) newID() int64 { return t.next.Add(1) }

// add records a finished span; a zero s.ID gets a fresh id.
func (t *tracer) add(s span, start, end time.Time) {
	if s.ID == 0 {
		s.ID = t.newID()
	}
	s.Start, s.End = start.Sub(t.t0).Nanoseconds(), end.Sub(t.t0).Nanoseconds()
	t.mu.Lock()
	t.spans = append(t.spans, s)
	t.mu.Unlock()
}

// reset drops the spans recorded so far (the warm-up's).
func (t *tracer) reset() {
	t.mu.Lock()
	t.spans = nil
	t.mu.Unlock()
}

// currentJob returns the job whose Execution runs on this goroutine.
func (t *tracer) currentJob() string {
	if job, ok := t.jobOf.Load(goid()); ok {
		return job.(string)
	}
	return ""
}

// goid returns the calling goroutine's id from the "goroutine N [" header
// of its stack trace.
func goid() int64 {
	var buf [32]byte
	n := runtime.Stack(buf[:], false)
	field := bytes.TrimPrefix(buf[:n], []byte("goroutine "))
	if i := bytes.IndexByte(field, ' '); i > 0 {
		field = field[:i]
	}
	id, _ := strconv.ParseInt(string(field), 10, 64)
	return id
}

// opRec records the client-side spans of one operation; a nil *opRec
// (untraced phase) records nothing.
type opRec struct {
	tr *tracer
	id int64
}

func (t *tracer) op() *opRec {
	if t == nil {
		return nil
	}
	return &opRec{tr: t, id: t.newID()}
}

// at converts a wall-clock instant to the trace's time base.
func (r *opRec) at(t time.Time) int64 { return t.Sub(r.tr.t0).Nanoseconds() }

func (r *opRec) span(name string, start, end time.Time, attrs map[string]any) {
	if r == nil {
		return
	}
	r.tr.add(span{Op: r.id, Parent: r.id, Name: name, Attrs: attrs}, start, end)
}

// finish records the root span; its duration is the operation's latency.
func (r *opRec) finish(start, end time.Time, attrs map[string]any) {
	if r == nil {
		return
	}
	r.tr.add(span{Op: r.id, ID: r.id, Name: spanOp, Attrs: attrs}, start, end)
}

// stageClock turns progress into stage boundaries: discovery ends when
// every chip has finished it, collection when the last chip has, and the
// solve stage when the solve reports done.
type stageClock struct {
	mu                            sync.Mutex
	start                         time.Time
	discovered, collected, solved time.Time
}

// event folds a library progress event; the latest completion wins.
func (c *stageClock) event(ev core.Event) {
	if !ev.Done {
		return
	}
	now := time.Now()
	c.mu.Lock()
	defer c.mu.Unlock()
	switch ev.Stage {
	case core.StageDiscover:
		c.discovered = now
	case core.StageCollect:
		c.collected = now
	case core.StageSolve:
		c.solved = now
	}
}

// snapshot folds a beerd progress snapshot; a stage ends at the first
// snapshot that reports it done.
func (c *stageClock) snapshot(p service.ProgressStatus) {
	now := time.Now()
	c.mu.Lock()
	defer c.mu.Unlock()
	mark := func(at *time.Time, done bool) {
		if done && at.IsZero() {
			*at = now
		}
	}
	mark(&c.discovered, p.Discover.Done)
	mark(&c.collected, p.Collect.Done)
	mark(&c.solved, p.Solve.Done)
}

type stageSpan struct {
	name     string
	from, to time.Time
}

// spans returns the three contiguous stage spans between start and end; a
// stage that never reported done extends to end.
func (c *stageClock) spans(end time.Time) []stageSpan {
	c.mu.Lock()
	defer c.mu.Unlock()
	bounds := []time.Time{c.start, c.discovered, c.collected, c.solved}
	for i := 1; i < len(bounds); i++ {
		if bounds[i].IsZero() || bounds[i].After(end) {
			bounds[i] = end
		}
		if bounds[i].Before(bounds[i-1]) {
			bounds[i] = bounds[i-1]
		}
	}
	out := make([]stageSpan, 3)
	for i, name := range []string{spanDiscover, spanCollect, spanSolve} {
		out[i] = stageSpan{name, bounds[i], bounds[i+1]}
	}
	return out
}

// benchChip wraps a simulated chip in the library workload. Embedding
// keeps ReadRowInto and LayoutKey visible to core's fast paths. It always
// totals the refresh pauses of its collect stage (the §6.3 cross-check);
// when io is set (traced phase) it also counts and times row calls.
type benchChip struct {
	*ondie.Chip
	collecting   atomic.Bool
	collectPause time.Duration
	pauses       int64
	io           *chipIO
	reads        int64
	writes       int64
	readNS       int64
	writeNS      int64
	busyNS       int64
}

func (c *benchChip) PauseRefresh(d time.Duration) {
	c.pauses++
	if c.collecting.Load() {
		c.collectPause += d
	}
	c.Chip.PauseRefresh(d)
}

func (c *benchChip) WriteRow(bank, row int, data []byte) {
	if c.io == nil {
		c.Chip.WriteRow(bank, row, data)
		return
	}
	start := c.io.enter()
	c.Chip.WriteRow(bank, row, data)
	c.writes++
	c.writeNS += c.exit(start)
}

func (c *benchChip) ReadRow(bank, row int) []byte {
	return c.ReadRowInto(bank, row, make([]byte, c.DataBytesPerRow()))
}

func (c *benchChip) ReadRowInto(bank, row int, data []byte) []byte {
	if c.io == nil {
		return c.Chip.ReadRowInto(bank, row, data)
	}
	start := c.io.enter()
	out := c.Chip.ReadRowInto(bank, row, data)
	c.reads++
	c.readNS += c.exit(start)
	return out
}

// exit closes a timed row call and returns its duration, counting it as
// busy time when it belongs to the collect stage.
func (c *benchChip) exit(start time.Time) int64 {
	collecting := c.collecting.Load()
	ns := c.io.exit(start, collecting)
	if collecting {
		c.busyNS += ns
	}
	return ns
}

// chipIO tracks, across one operation's chips, the wall time during which
// at least one chip was inside a collect-stage row call: the denominator of
// parallel.collect_speedup.
type chipIO struct {
	mu      sync.Mutex
	active  int
	since   time.Time
	unionNS int64
}

func (s *chipIO) enter() time.Time {
	now := time.Now()
	s.mu.Lock()
	if s.active == 0 {
		s.since = now
	}
	s.active++
	s.mu.Unlock()
	return now
}

// exit closes a row call begun at start and returns its duration; only
// collect-stage calls count towards the union.
func (s *chipIO) exit(start time.Time, collecting bool) int64 {
	now := time.Now()
	s.mu.Lock()
	s.active--
	if s.active == 0 && collecting {
		s.unionNS += now.Sub(s.since).Nanoseconds()
	}
	s.mu.Unlock()
	return now.Sub(start).Nanoseconds()
}

// tracedBackend times every SAT search call and counts the clauses added
// since the previous one. Backends are single-goroutine.
type tracedBackend struct {
	sat.Backend
	tr      *tracer
	op      int64  // library: the owning operation
	job     string // serving: the owning job
	clauses int64
}

func (b *tracedBackend) Add(lits ...sat.Lit) bool {
	b.clauses++
	return b.Backend.Add(lits...)
}

func (b *tracedBackend) Solve() (bool, error) {
	return b.timed(b.Backend.Solve)
}

func (b *tracedBackend) SolveUnderAssumptions(assumptions ...sat.Lit) (bool, error) {
	return b.timed(func() (bool, error) { return b.Backend.SolveUnderAssumptions(assumptions...) })
}

func (b *tracedBackend) timed(solve func() (bool, error)) (bool, error) {
	before := b.Backend.Statistics().Conflicts
	start := time.Now()
	ok, err := solve()
	end := time.Now()
	b.tr.add(span{Op: b.op, Parent: b.op, Name: spanSAT, job: b.job, Attrs: map[string]any{
		"clauses":   b.clauses,
		"conflicts": b.Backend.Statistics().Conflicts - before,
	}}, start, end)
	b.clauses = 0
	return ok, err
}

// tracedStore times store Put and Get calls. Job records are keyed by job
// id; registry records are attributed to the Execution running on the
// calling goroutine.
type tracedStore struct {
	store.Backend
	tr *tracer
}

func (b tracedStore) owner(bucket, key string) string {
	if bucket == store.BucketJobs {
		return key
	}
	return b.tr.currentJob()
}

func (b tracedStore) Put(bucket, key string, value []byte) error {
	start := time.Now()
	err := b.Backend.Put(bucket, key, value)
	b.tr.add(span{Name: spanPut, job: b.owner(bucket, key), Attrs: map[string]any{
		"bucket": bucket, "bytes": len(value),
	}}, start, time.Now())
	return err
}

func (b tracedStore) Get(bucket, key string) ([]byte, bool, error) {
	start := time.Now()
	v, ok, err := b.Backend.Get(bucket, key)
	b.tr.add(span{Name: spanGet, job: b.owner(bucket, key), Attrs: map[string]any{
		"bucket": bucket,
	}}, start, time.Now())
	return v, ok, err
}

// tracedCache times a job's solve-cache lookups and stores.
type tracedCache struct {
	inner repro.SolveCache
	tr    *tracer
	job   string
}

func (c tracedCache) Lookup(p *repro.Profile) (*repro.SolveResult, bool) {
	start := time.Now()
	res, ok := c.inner.Lookup(p)
	c.tr.add(span{Name: spanLookup, job: c.job, Attrs: map[string]any{"hit": ok}}, start, time.Now())
	return res, ok
}

func (c tracedCache) Store(p *repro.Profile, res *repro.SolveResult) {
	start := time.Now()
	c.inner.Store(p, res)
	c.tr.add(span{Name: spanCacheSave, job: c.job}, start, time.Now())
}

// tracedExecutor wraps beerd's local executor: each Execution becomes a
// service.execute span with stage spans from its progress snapshots, and
// its solve cache is timed.
type tracedExecutor struct {
	inner service.Executor
	tr    *tracer
}

func (x tracedExecutor) Describe() string { return x.inner.Describe() }

func (x tracedExecutor) Prepare(spec service.JobSpec) (service.Execution, error) {
	exec, err := x.inner.Prepare(spec)
	if err != nil {
		return nil, err
	}
	return func(ctx context.Context, env service.ExecEnv) (*service.JobResult, error) {
		g := goid()
		x.tr.jobOf.Store(g, env.JobID)
		defer x.tr.jobOf.Delete(g)
		clock := &stageClock{start: time.Now()}
		report := env.Report
		env.Report = func(p service.ProgressStatus) {
			clock.snapshot(p)
			report(p)
		}
		if env.Cache != nil {
			env.Cache = tracedCache{inner: env.Cache, tr: x.tr, job: env.JobID}
		}
		res, err := exec(ctx, env)
		end := time.Now()
		execID := x.tr.newID()
		for _, st := range clock.spans(end) {
			x.tr.add(span{Parent: execID, Name: st.name, job: env.JobID}, st.from, st.to)
		}
		x.tr.add(span{ID: execID, Name: spanExecute, job: env.JobID}, clock.start, end)
		return res, err
	}, nil
}

// link attributes the phase's server-side spans to operations. A job
// belongs to the earliest operation that submitted it; later submissions
// of the same job joined it through beerd's dedupe. It then adds the
// waiting spans the client cannot see: queue (202 received → Execution
// start) and notify (Execution end → client sees the terminal state) for
// the owner, dedupe wait for joiners. Solver, cache and store spans move
// under the stage span that contains them.
func (t *tracer) link() {
	t.mu.Lock()
	defer t.mu.Unlock()
	owner := map[string]span{}
	for _, s := range t.spans {
		if s.Name != spanOp {
			continue
		}
		job, _ := s.Attrs["job"].(string)
		if o, ok := owner[job]; job != "" && (!ok || s.Start < o.Start) {
			owner[job] = s
		}
	}
	execs := map[string]span{}
	for _, s := range t.spans {
		if s.Name == spanExecute && s.job != "" {
			execs[s.job] = s
		}
	}
	for i := range t.spans {
		s := &t.spans[i]
		if s.job == "" || s.Op != 0 {
			continue
		}
		o, ok := owner[s.job]
		if !ok {
			continue // a job no measured operation submitted
		}
		s.Op = o.ID
		switch ex, hasExec := execs[s.job]; {
		case s.Name == spanExecute, s.Attrs["bucket"] == store.BucketJobs, !hasExec:
			s.Parent = o.ID
		case s.Parent == 0:
			s.Parent = ex.ID
		}
	}
	for _, root := range t.spans {
		if root.Name != spanOp {
			continue
		}
		job, _ := root.Attrs["job"].(string)
		accepted, _ := root.Attrs["accepted_ns"].(int64)
		terminal, _ := root.Attrs["terminal_ns"].(int64)
		if job == "" || terminal == 0 {
			continue
		}
		wait := func(name string, from, to int64) {
			if to > from {
				t.spans = append(t.spans, span{Op: root.ID, ID: t.newID(), Parent: root.ID, Name: name, Start: from, End: to})
			}
		}
		ex, hasExec := execs[job]
		if owner[job].ID != root.ID || !hasExec {
			root.Attrs["joined"] = true
			wait(spanDedupe, accepted, terminal)
			continue
		}
		wait(spanQueue, accepted, ex.Start)
		wait(spanNotify, ex.End, terminal)
	}
	stages := map[int64][]span{}
	for _, s := range t.spans {
		if s.Op != 0 && (s.Name == spanDiscover || s.Name == spanCollect || s.Name == spanSolve) {
			stages[s.Op] = append(stages[s.Op], s)
		}
	}
	for i := range t.spans {
		s := &t.spans[i]
		if s.Name != spanSAT && s.Name != spanLookup && s.Name != spanCacheSave && s.Attrs["bucket"] != store.BucketCodes {
			continue
		}
		for _, st := range stages[s.Op] {
			if st.Start <= s.Start && s.End <= st.End {
				s.Parent = st.ID
				break
			}
		}
	}
}

// snapshot returns a copy of the recorded spans in start order.
func (t *tracer) snapshot() []span {
	t.mu.Lock()
	out := append([]span(nil), t.spans...)
	t.mu.Unlock()
	sort.Slice(out, func(i, j int) bool { return out[i].Start < out[j].Start })
	return out
}

// union returns the total length covered by the intervals.
func union(iv [][2]int64) int64 {
	iv = append([][2]int64(nil), iv...)
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	var total, end int64
	started := false
	var start int64
	for _, x := range iv {
		switch {
		case !started:
			start, end, started = x[0], x[1], true
		case x[0] > end:
			total += end - start
			start, end = x[0], x[1]
		case x[1] > end:
			end = x[1]
		}
	}
	if started {
		total += end - start
	}
	return total
}

// selfTimes returns each span's duration minus the union of its children's
// intervals, clipped to the span.
func selfTimes(spans []span) map[int64]int64 {
	children := map[int64][][2]int64{}
	byID := map[int64]span{}
	for _, s := range spans {
		byID[s.ID] = s
	}
	for _, s := range spans {
		if s.Parent == 0 || s.Parent == s.ID {
			continue
		}
		p, ok := byID[s.Parent]
		if !ok {
			continue
		}
		children[s.Parent] = append(children[s.Parent], [2]int64{max(s.Start, p.Start), min(s.End, p.End)})
	}
	self := make(map[int64]int64, len(spans))
	for _, s := range spans {
		self[s.ID] = s.dur() - union(children[s.ID])
	}
	return self
}
