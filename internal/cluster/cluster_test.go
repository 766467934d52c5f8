package cluster

import (
	"context"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"repro"
	"repro/internal/obs"
	"repro/internal/service"
	"repro/internal/store"
)

// The integration tests build a real cluster in one process: a coordinator
// behind an httptest server and workers that are complete service.Servers
// with running cluster agents. Killing a worker closes its listener and
// stops its heartbeats — from the coordinator's side indistinguishable
// from a crashed process.

type testCluster struct {
	t       *testing.T
	coord   *Coordinator
	server  *service.Server
	hub     *obs.Hub
	ts      *httptest.Server
	workers map[string]*testWorker
}

type testWorker struct {
	id     string
	srv    *service.Server
	hub    *obs.Hub
	agent  *Worker
	ts     *httptest.Server
	cancel context.CancelFunc
	dead   bool
}

func startTestCluster(t *testing.T) *testCluster {
	t.Helper()
	st := store.New(store.NewMemBackend())
	hub := obs.NewTestHub(t.Logf)
	coord := NewCoordinator(st, CoordinatorConfig{
		HeartbeatEvery: 50 * time.Millisecond,
		TTL:            250 * time.Millisecond,
		PollInterval:   10 * time.Millisecond,
		DispatchWait:   10 * time.Second,
		Obs:            hub,
	})
	srv := service.New(repro.NewEngine(2),
		service.WithStore(st), service.WithExecutor(coord), service.WithObservability(hub))
	ts := httptest.NewServer(coord.Handler(srv.Handler()))
	tc := &testCluster{t: t, coord: coord, server: srv, hub: hub, ts: ts, workers: make(map[string]*testWorker)}
	t.Cleanup(func() {
		for _, w := range tc.workers {
			tc.kill(w.id)
		}
		ts.Close()
		srv.Close()
	})
	return tc
}

// addWorker boots a worker with the given id and admission cap (0 =
// unlimited) and waits until the coordinator sees it live.
func (tc *testCluster) addWorker(id string, maxJobs int) *testWorker {
	tc.t.Helper()
	return tc.addWorkerStore(id, maxJobs, store.New(store.NewMemBackend()))
}

// addWorkerStore is addWorker over a caller-provided (possibly pre-warmed)
// store.
func (tc *testCluster) addWorkerStore(id string, maxJobs int, st *store.Store) *testWorker {
	tc.t.Helper()
	hub := obs.NewTestHub(tc.t.Logf)
	opts := []service.Option{
		service.WithStore(st),
		service.WithSolveCacheTier(NewRemoteCache(tc.ts.URL, id)),
		service.WithObservability(hub),
	}
	if maxJobs > 0 {
		opts = append(opts, service.WithMaxConcurrent(maxJobs))
	}
	srv := service.New(repro.NewEngine(2), opts...)
	wts := httptest.NewServer(RegistryHandler(st, srv.Handler()))
	agent, err := NewWorker(WorkerConfig{
		ID:             id,
		CoordinatorURL: tc.ts.URL,
		AdvertiseURL:   wts.URL,
		Capacity:       maxJobs,
		HeartbeatEvery: 50 * time.Millisecond,
		Obs:            hub,
	}, srv)
	if err != nil {
		tc.t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	go func() { _ = agent.Run(ctx) }()
	w := &testWorker{id: id, srv: srv, hub: hub, agent: agent, ts: wts, cancel: cancel}
	tc.workers[id] = w
	tc.waitFor("worker "+id+" live", 5*time.Second, func() bool { return tc.coord.Registry().Alive(id) })
	return w
}

// kill simulates a crash: stop heartbeats, sever every connection, close
// the listener, cancel the jobs. No drain, no deregistration.
func (tc *testCluster) kill(id string) {
	w, ok := tc.workers[id]
	if !ok || w.dead {
		return
	}
	w.dead = true
	w.cancel()
	w.ts.CloseClientConnections()
	w.ts.Close()
	w.srv.Close()
}

func (tc *testCluster) waitFor(what string, timeout time.Duration, cond func() bool) {
	tc.t.Helper()
	deadline := time.Now().Add(timeout)
	for !cond() {
		if time.Now().After(deadline) {
			tc.t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

func (tc *testCluster) submit(spec service.JobSpec) service.JobStatus {
	tc.t.Helper()
	var status service.JobStatus
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := doJSON(ctx, http.DefaultClient, http.MethodPost, tc.ts.URL+"/api/v1/jobs", spec, &status); err != nil {
		tc.t.Fatalf("submit: %v", err)
	}
	return status
}

func (tc *testCluster) status(id string) service.JobStatus {
	tc.t.Helper()
	var st service.JobStatus
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := doJSON(ctx, http.DefaultClient, http.MethodGet, tc.ts.URL+"/api/v1/jobs/"+id, nil, &st); err != nil {
		tc.t.Fatalf("status %s: %v", id, err)
	}
	return st
}

func (tc *testCluster) result(id string) service.JobResult {
	tc.t.Helper()
	var res service.JobResult
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := doJSON(ctx, http.DefaultClient, http.MethodGet, tc.ts.URL+"/api/v1/jobs/"+id+"/result", nil, &res); err != nil {
		tc.t.Fatalf("result %s: %v", id, err)
	}
	return res
}

// waitTerminal polls a job to a terminal state.
func (tc *testCluster) waitTerminal(id string, timeout time.Duration) service.JobStatus {
	tc.t.Helper()
	var st service.JobStatus
	tc.waitFor("job "+id+" terminal", timeout, func() bool {
		st = tc.status(id)
		return st.State.Terminal()
	})
	return st
}

func recoverSpec(mfr string, k int, seed uint64) service.JobSpec {
	return service.JobSpec{Type: "recover", Manufacturer: mfr, K: k, Chips: 2, Seed: seed, Verify: true}
}

func assertVerified(t *testing.T, res service.JobResult) {
	t.Helper()
	if res.Recover == nil {
		t.Fatal("no recovery payload")
	}
	if !res.Recover.Unique {
		t.Fatalf("not unique: %d candidates", res.Recover.Candidates)
	}
	if res.Recover.GroundTruthMatch == nil || !*res.Recover.GroundTruthMatch {
		t.Fatal("ground truth mismatch")
	}
}

// TestClusterFailover kills the only worker mid-job and verifies the job
// completes, ground-truth-verified, on a worker that joined after the
// death — the full redispatch path, deterministically.
func TestClusterFailover(t *testing.T) {
	tc := startTestCluster(t)
	tc.addWorker("w1", 0)

	// Sixteen rounds keep the job running well past the 10 ms status poll
	// that decides when to kill w1; at the default three a fast host can
	// finish the job before the kill lands.
	spec := recoverSpec("B", 16, 1)
	spec.Rounds = 16
	status := tc.submit(spec)

	// Wait until the job is observably executing on w1, then crash it.
	tc.waitFor("job executing on w1", 10*time.Second, func() bool {
		st := tc.status(status.ID)
		return st.Progress.Worker == "w1" && st.Progress.Updates > 0
	})
	tc.kill("w1")
	t.Log("killed w1 mid-job; starting w2")
	tc.addWorker("w2", 0)

	final := tc.waitTerminal(status.ID, 60*time.Second)
	if final.State != service.StateSucceeded {
		t.Fatalf("job finished %s: %s", final.State, final.Error)
	}
	if final.Progress.Worker != "w2" {
		t.Fatalf("job finished on %q, want w2", final.Progress.Worker)
	}
	if final.Progress.Dispatches < 2 {
		t.Fatalf("job reports %d dispatches, want >= 2 (a failover)", final.Progress.Dispatches)
	}
	assertVerified(t, tc.result(status.ID))
	if got := tc.coord.failovers.Load(); got < 1 {
		t.Fatalf("coordinator counted %d failovers, want >= 1", got)
	}
}

// TestClusterDedupeAcrossWorkerDeath: solve a profile on one worker, kill
// that worker, then submit a job observing the identical profile (fresh
// chip seed). It must complete on the survivor with zero SAT solver
// invocations — the record flowed worker → coordinator (push) → survivor
// (remote tier lookup).
func TestClusterDedupeAcrossWorkerDeath(t *testing.T) {
	tc := startTestCluster(t)
	tc.addWorker("w1", 0)
	tc.addWorker("w2", 0)

	first := tc.submit(recoverSpec("B", 16, 1))
	st := tc.waitTerminal(first.ID, 60*time.Second)
	if st.State != service.StateSucceeded {
		t.Fatalf("first job finished %s: %s", st.State, st.Error)
	}
	assertVerified(t, tc.result(first.ID))
	solver := st.Progress.Worker
	if solver != "w1" && solver != "w2" {
		t.Fatalf("first job ran on unknown worker %q", solver)
	}
	survivorID := "w1"
	if solver == "w1" {
		survivorID = "w2"
	}
	survivor := tc.workers[survivorID]
	if inv, _ := survivor.srv.SolveCounters(); inv != 0 {
		t.Fatalf("survivor %s already ran %d solves", survivorID, inv)
	}

	// The push half of registry sync must have landed the record on the
	// coordinator before the solver dies.
	hash := tc.result(first.ID).Recover.ProfileHash
	tc.waitFor("record synced to coordinator", 5*time.Second, func() bool {
		_, ok, err := tc.coord.store.GetCode(hash)
		return err == nil && ok
	})
	tc.kill(solver)
	t.Logf("first solve on %s (now dead); identical profile goes to %s", solver, survivorID)

	second := tc.submit(recoverSpec("B", 16, 9)) // fresh chips, identical profile
	st2 := tc.waitTerminal(second.ID, 60*time.Second)
	if st2.State != service.StateSucceeded {
		t.Fatalf("second job finished %s: %s", st2.State, st2.Error)
	}
	res2 := tc.result(second.ID)
	assertVerified(t, res2)
	if res2.Recover.ProfileHash != hash {
		t.Fatalf("second job observed profile %s, want %s", res2.Recover.ProfileHash, hash)
	}
	if st2.Progress.Worker != survivorID {
		t.Fatalf("second job ran on %q, want survivor %s", st2.Progress.Worker, survivorID)
	}
	invocations, hits := survivor.srv.SolveCounters()
	if invocations != 0 {
		t.Fatalf("survivor ran %d SAT solves for an already-solved profile", invocations)
	}
	if hits != 1 {
		t.Fatalf("survivor reported %d cache hits, want 1 (the remote tier)", hits)
	}
}

// TestClusterAffinityDedupe: with a stable fleet, two jobs observing the
// same profile route to the same worker, and the second is served from
// that worker's local cache — zero duplicate solver invocations
// fleet-wide.
func TestClusterAffinityDedupe(t *testing.T) {
	tc := startTestCluster(t)
	w1 := tc.addWorker("w1", 0)
	w2 := tc.addWorker("w2", 0)

	first := tc.submit(recoverSpec("C", 8, 1))
	st1 := tc.waitTerminal(first.ID, 60*time.Second)
	if st1.State != service.StateSucceeded {
		t.Fatalf("first job finished %s: %s", st1.State, st1.Error)
	}
	second := tc.submit(recoverSpec("C", 8, 5))
	st2 := tc.waitTerminal(second.ID, 60*time.Second)
	if st2.State != service.StateSucceeded {
		t.Fatalf("second job finished %s: %s", st2.State, st2.Error)
	}
	if st1.Progress.Worker != st2.Progress.Worker {
		t.Fatalf("identical profiles routed to different workers: %s vs %s",
			st1.Progress.Worker, st2.Progress.Worker)
	}
	inv1, _ := w1.srv.SolveCounters()
	inv2, _ := w2.srv.SolveCounters()
	if inv1+inv2 != 1 {
		t.Fatalf("fleet ran %d SAT solves for one profile, want exactly 1", inv1+inv2)
	}
	assertVerified(t, tc.result(first.ID))
	assertVerified(t, tc.result(second.ID))
}

// TestClusterBackpressureSpill: two workers capped at one job each still
// complete a burst of four distinct jobs — saturation answers (429 +
// Retry-After) make the dispatcher spill and back off rather than fail.
func TestClusterBackpressureSpill(t *testing.T) {
	tc := startTestCluster(t)
	tc.addWorker("w1", 1)
	tc.addWorker("w2", 1)

	specs := []service.JobSpec{
		recoverSpec("A", 8, 1),
		recoverSpec("B", 8, 1),
		recoverSpec("C", 8, 1),
		recoverSpec("B", 16, 1),
	}
	ids := make([]string, len(specs))
	for i, spec := range specs {
		ids[i] = tc.submit(spec).ID
	}
	for _, id := range ids {
		st := tc.waitTerminal(id, 120*time.Second)
		if st.State != service.StateSucceeded {
			t.Fatalf("%s finished %s: %s", id, st.State, st.Error)
		}
		assertVerified(t, tc.result(id))
	}
}

// TestWorkerReregisters: a coordinator that forgot a worker (restart)
// re-learns it from the heartbeat 404 → re-register path.
func TestWorkerReregisters(t *testing.T) {
	tc := startTestCluster(t)
	tc.addWorker("w1", 0)
	tc.coord.Registry().Deregister("w1", nil) // simulate a coordinator wipe
	tc.waitFor("w1 re-registered", 5*time.Second, func() bool {
		return tc.coord.Registry().Alive("w1")
	})
}

// TestRegistrySweepReconcilesPrewarmedStore: a worker that joins with
// records the coordinator has never seen — including an
// unsatisfiable-profile record, which the public /codes listing omits —
// gets fully reconciled by the heartbeat-triggered pull sweep.
func TestRegistrySweepReconcilesPrewarmedStore(t *testing.T) {
	tc := startTestCluster(t)

	st := store.New(store.NewMemBackend())
	unsat := &store.CodeRecord{ProfileHash: "feedfeed", K: 16, Exhausted: true}
	if err := st.PutCode(unsat); err != nil {
		t.Fatal(err)
	}
	code := repro.Hamming74()
	text, err := code.MarshalText()
	if err != nil {
		t.Fatal(err)
	}
	solved := &store.CodeRecord{
		ProfileHash: "cafecafe",
		K:           code.K(),
		N:           code.N(),
		Codes:       []string{string(text)},
		Unique:      true,
		Source:      "prewarmed",
	}
	if err := st.PutCode(solved); err != nil {
		t.Fatal(err)
	}

	tc.addWorkerStore("w1", 0, st)
	for _, hash := range []string{"feedfeed", "cafecafe"} {
		tc.waitFor("record "+hash+" pulled", 5*time.Second, func() bool {
			_, ok, err := tc.coord.store.GetCode(hash)
			return err == nil && ok
		})
	}
	if got := tc.coord.syncPulls.Load(); got != 2 {
		t.Fatalf("coordinator pulled %d records, want 2", got)
	}
}

// TestClusterProgressAggregation: a remotely executing job streams
// non-trivial per-stage progress through the coordinator's status
// endpoint.
func TestClusterProgressAggregation(t *testing.T) {
	tc := startTestCluster(t)
	tc.addWorker("w1", 0)

	status := tc.submit(recoverSpec("B", 16, 1))
	sawCollect := false
	tc.waitFor("job terminal", 60*time.Second, func() bool {
		st := tc.status(status.ID)
		if st.Progress.Collect.Count > 0 {
			sawCollect = true
		}
		return st.State.Terminal()
	})
	final := tc.status(status.ID)
	if final.State != service.StateSucceeded {
		t.Fatalf("job finished %s: %s", final.State, final.Error)
	}
	p := final.Progress
	if !sawCollect && p.Collect.Count == 0 {
		t.Fatal("no collection progress ever surfaced through the coordinator")
	}
	if !p.Discover.Done || !p.Collect.Done || !p.Solve.Done {
		t.Fatalf("terminal job with unfinished stages: %+v", p)
	}
	if p.Worker != "w1" || p.Dispatches != 1 {
		t.Fatalf("progress attribution wrong: worker=%q dispatches=%d", p.Worker, p.Dispatches)
	}
}
