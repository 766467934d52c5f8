package service

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"repro"
	"repro/internal/obs"
	"repro/internal/store"
)

// fileStore opens a file-backed result store rooted at dir.
func fileStore(t *testing.T, dir string) *store.Store {
	t.Helper()
	fb, err := store.NewFileBackend(dir)
	if err != nil {
		t.Fatal(err)
	}
	return store.New(fb)
}

// TestRestartPreservesCompletedJobs is the durability acceptance test:
// a beerd backed by a file store is stopped after a job completes and a new
// server is booted on the same directory; the job, its result and the
// recovered code registry must all survive.
func TestRestartPreservesCompletedJobs(t *testing.T) {
	dir := t.TempDir()

	srv1 := New(repro.NewEngine(2), WithStore(fileStore(t, dir)))
	ts1 := httptest.NewServer(srv1.Handler())

	resp, body := do(t, http.MethodPost, ts1.URL+"/api/v1/jobs", JobSpec{
		Type:         "recover",
		Manufacturer: "B",
		K:            16,
		Seed:         7,
		Verify:       true,
	})
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit: %s: %s", resp.Status, body)
	}
	id := decode[JobStatus](t, body).ID
	final := waitTerminal(t, ts1.URL, id)
	if final.State != StateSucceeded {
		t.Fatalf("job finished %s: %s", final.State, final.Error)
	}
	_, body = do(t, http.MethodGet, ts1.URL+"/api/v1/jobs/"+id+"/result", nil)
	original := decode[JobResult](t, body)
	if original.Recover == nil || original.Recover.ProfileHash == "" {
		t.Fatalf("result carries no profile hash: %s", body)
	}

	// The registry lists the recovered function while the first server runs.
	_, body = do(t, http.MethodGet, ts1.URL+"/codes", nil)
	listing := decode[struct{ Codes []codeListing }](t, body)
	if len(listing.Codes) != 1 || listing.Codes[0].ProfileHash != original.Recover.ProfileHash {
		t.Fatalf("codes listing before restart: %s", body)
	}
	if listing.Codes[0].Scheme != "HSC" || listing.Codes[0].Unique == nil || !*listing.Codes[0].Unique {
		t.Fatalf("codes listing not in export format: %s", body)
	}

	ts1.Close()
	srv1.Close()

	// Boot a brand-new server over the same directory.
	srv2 := New(repro.NewEngine(2), WithStore(fileStore(t, dir)))
	ts2 := httptest.NewServer(srv2.Handler())
	t.Cleanup(func() { ts2.Close(); srv2.Close() })

	resp, body = do(t, http.MethodGet, ts2.URL+"/api/v1/jobs/"+id, nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("replayed job status: %s: %s", resp.Status, body)
	}
	replayed := decode[JobStatus](t, body)
	if replayed.State != StateSucceeded || !replayed.Progress.Solve.Done {
		t.Fatalf("replayed job not terminal-complete: %+v", replayed)
	}
	resp, body = do(t, http.MethodGet, ts2.URL+"/api/v1/jobs/"+id+"/result", nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("replayed result: %s: %s", resp.Status, body)
	}
	restored := decode[JobResult](t, body)
	if restored.Recover == nil ||
		restored.Recover.Code != original.Recover.Code ||
		restored.Recover.ProfileHash != original.Recover.ProfileHash {
		t.Fatalf("replayed result differs:\n%+v\nvs\n%+v", restored.Recover, original.Recover)
	}
	_, body = do(t, http.MethodGet, ts2.URL+"/codes", nil)
	listing = decode[struct{ Codes []codeListing }](t, body)
	if len(listing.Codes) != 1 || listing.Codes[0].ProfileHash != original.Recover.ProfileHash {
		t.Fatalf("codes listing lost across restart: %s", body)
	}
	// The detail endpoint resolves the hash to every candidate.
	resp, body = do(t, http.MethodGet, ts2.URL+"/codes/"+original.Recover.ProfileHash, nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("code detail: %s: %s", resp.Status, body)
	}
	detail := decode[codeDetail](t, body)
	if !detail.Unique || len(detail.Codes) != 1 || detail.K != 16 {
		t.Fatalf("code detail: %s", body)
	}

	// New submissions on the restarted server continue the id sequence.
	resp, body = do(t, http.MethodPost, ts2.URL+"/api/v1/jobs", JobSpec{Type: "simulate", Words: 1000})
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit after restart: %s: %s", resp.Status, body)
	}
	if newID := decode[JobStatus](t, body).ID; newID == id {
		t.Fatalf("restarted server reused job id %s", newID)
	}
}

// TestRestartReplaysPortfolioEraResult: job records written by a server
// that raced a SAT portfolio carry "races" and "competitors" in their
// result's solver block. The fields no longer exist; a server booting over
// such a store must still replay the job with its recovered code intact.
func TestRestartReplaysPortfolioEraResult(t *testing.T) {
	dir := t.TempDir()

	srv1 := New(repro.NewEngine(2), WithStore(fileStore(t, dir)))
	ts1 := httptest.NewServer(srv1.Handler())
	resp, body := do(t, http.MethodPost, ts1.URL+"/api/v1/jobs", JobSpec{
		Type: "recover", Manufacturer: "B", K: 8, Seed: 3, Verify: true,
	})
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit: %s: %s", resp.Status, body)
	}
	id := decode[JobStatus](t, body).ID
	if final := waitTerminal(t, ts1.URL, id); final.State != StateSucceeded {
		t.Fatalf("job finished %s: %s", final.State, final.Error)
	}
	_, body = do(t, http.MethodGet, ts1.URL+"/api/v1/jobs/"+id+"/result", nil)
	original := decode[JobResult](t, body)
	if original.Recover == nil || original.Recover.Code == "" || original.Recover.Solver == nil {
		t.Fatalf("result carries no code or solver block: %s", body)
	}
	ts1.Close()
	srv1.Close()

	// Rewrite the record the way a portfolio-era server persisted it.
	st := fileStore(t, dir)
	rec, ok, err := st.GetJob(id)
	if err != nil || !ok {
		t.Fatalf("GetJob(%s) = %v, %v", id, ok, err)
	}
	var result map[string]any
	if err := json.Unmarshal(rec.Result, &result); err != nil {
		t.Fatal(err)
	}
	recoverBlock, _ := result["recover"].(map[string]any)
	solver, ok := recoverBlock["solver"].(map[string]any)
	if !ok {
		t.Fatalf("stored result has no recover.solver block: %s", rec.Result)
	}
	solver["races"] = 3
	solver["competitors"] = []map[string]any{
		{"name": "cdcl-0", "wins": 2, "losses": 1},
		{"name": "kissat", "wins": 1, "losses": 1, "timeouts": 1},
	}
	if rec.Result, err = json.Marshal(result); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(rec.Result), `"races":3`) {
		t.Fatalf("crafted record lacks the portfolio fields: %s", rec.Result)
	}
	if err := st.PutJob(rec); err != nil {
		t.Fatal(err)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}

	srv2 := New(repro.NewEngine(2), WithStore(fileStore(t, dir)))
	ts2 := httptest.NewServer(srv2.Handler())
	t.Cleanup(func() { ts2.Close(); srv2.Close() })
	resp, body = do(t, http.MethodGet, ts2.URL+"/api/v1/jobs/"+id, nil)
	if resp.StatusCode != http.StatusOK || decode[JobStatus](t, body).State != StateSucceeded {
		t.Fatalf("replayed job status: %s: %s", resp.Status, body)
	}
	resp, body = do(t, http.MethodGet, ts2.URL+"/api/v1/jobs/"+id+"/result", nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("replayed result: %s: %s", resp.Status, body)
	}
	restored := decode[JobResult](t, body)
	if restored.Recover == nil ||
		restored.Recover.Code != original.Recover.Code ||
		restored.Recover.ProfileHash != original.Recover.ProfileHash ||
		restored.Recover.Solver == nil ||
		*restored.Recover.Solver != *original.Recover.Solver {
		t.Fatalf("replayed result differs:\n%+v\nvs\n%+v", restored.Recover, original.Recover)
	}
}

// TestRestartResumesInterruptedJob kills a server mid-job (graceful Close,
// which persists in-flight jobs as still running) and checks that a new
// server on the same store re-runs the job to completion.
func TestRestartResumesInterruptedJob(t *testing.T) {
	dir := t.TempDir()
	srv1 := New(repro.NewEngine(2), WithStore(fileStore(t, dir)))
	ts1 := httptest.NewServer(srv1.Handler())

	resp, body := do(t, http.MethodPost, ts1.URL+"/api/v1/jobs", JobSpec{
		Type:         "recover",
		Manufacturer: "B",
		K:            16,
		Seed:         3,
		Rounds:       16, // long enough to still be running at Close
	})
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit: %s: %s", resp.Status, body)
	}
	id := decode[JobStatus](t, body).ID

	ts1.Close()
	srv1.Close() // cancels the running job; persisted state stays "running"

	rec, ok, err := srv1.Store().GetJob(id)
	if err != nil || !ok {
		t.Fatalf("job record after close: ok=%v err=%v", ok, err)
	}
	if rec.State != string(StateRunning) {
		t.Skipf("job finished before Close (state %s); resume path not exercised", rec.State)
	}

	srv2 := New(repro.NewEngine(2), WithStore(fileStore(t, dir)))
	ts2 := httptest.NewServer(srv2.Handler())
	t.Cleanup(func() { ts2.Close(); srv2.Close() })

	final := waitTerminal(t, ts2.URL, id)
	if final.State != StateSucceeded {
		t.Fatalf("resumed job finished %s: %s", final.State, final.Error)
	}
	resp, body = do(t, http.MethodGet, ts2.URL+"/api/v1/jobs/"+id+"/result", nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("resumed result: %s: %s", resp.Status, body)
	}
	if res := decode[JobResult](t, body); res.Recover == nil || !res.Recover.Unique {
		t.Fatalf("resumed job result: %s", body)
	}
	// The store now records the terminal state.
	rec, ok, err = srv2.Store().GetJob(id)
	if err != nil || !ok || rec.State != string(StateSucceeded) {
		t.Fatalf("store state after resume: %+v ok=%v err=%v", rec, ok, err)
	}
}

// TestResumeFromCraftedRunningRecord simulates a hard crash (kill -9): a
// "running" record exists in the store but no process ever finished it. The
// booting server must pick it up and run it.
func TestResumeFromCraftedRunningRecord(t *testing.T) {
	dir := t.TempDir()
	st := fileStore(t, dir)
	spec, err := json.Marshal(JobSpec{Type: "recover", Manufacturer: "B", K: 16, Seed: 9, Verify: true})
	if err != nil {
		t.Fatal(err)
	}
	if err := st.PutJob(&store.JobRecord{
		ID:      "job-5",
		Type:    "recover",
		Spec:    spec,
		State:   string(StateRunning),
		Created: time.Now().UTC(),
	}); err != nil {
		t.Fatal(err)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}

	srv := New(repro.NewEngine(2), WithStore(fileStore(t, dir)))
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(func() { ts.Close(); srv.Close() })

	final := waitTerminal(t, ts.URL, "job-5")
	if final.State != StateSucceeded {
		t.Fatalf("crash-resumed job finished %s: %s", final.State, final.Error)
	}
	resp, body := do(t, http.MethodGet, ts.URL+"/api/v1/jobs/job-5/result", nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("result: %s: %s", resp.Status, body)
	}
	res := decode[JobResult](t, body)
	if res.Recover == nil || res.Recover.GroundTruthMatch == nil || !*res.Recover.GroundTruthMatch {
		t.Fatalf("crash-resumed job did not verify: %s", body)
	}
	// The next fresh submission must not collide with the resumed id space.
	resp, body = do(t, http.MethodPost, ts.URL+"/api/v1/jobs", JobSpec{Type: "simulate", Words: 1000})
	if resp.StatusCode != http.StatusAccepted || decode[JobStatus](t, body).ID != "job-6" {
		t.Fatalf("seq not restored: %s: %s", resp.Status, body)
	}
}

// TestDeleteCancelStaysTerminalAcrossRestart: a DELETE-cancelled job must
// persist as "canceled" even when server shutdown races the job goroutine,
// and must NOT resume on the next boot (shutdown-cancelled jobs do).
func TestDeleteCancelStaysTerminalAcrossRestart(t *testing.T) {
	dir := t.TempDir()
	srv1 := New(repro.NewEngine(2), WithStore(fileStore(t, dir)))
	ts1 := httptest.NewServer(srv1.Handler())

	resp, body := do(t, http.MethodPost, ts1.URL+"/api/v1/jobs", JobSpec{
		Type:         "recover",
		Manufacturer: "B",
		K:            16,
		Rounds:       16, // long enough to still be running when deleted
	})
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit: %s: %s", resp.Status, body)
	}
	id := decode[JobStatus](t, body).ID
	if resp, body := do(t, http.MethodDelete, ts1.URL+"/api/v1/jobs/"+id, nil); resp.StatusCode != http.StatusOK {
		t.Fatalf("cancel: %s: %s", resp.Status, body)
	}
	// The terminal intent must be durable the moment DELETE returns — a
	// hard crash before the job goroutine notices the cancel must not
	// leave a resumable "running" record.
	if rec, ok, err := srv1.Store().GetJob(id); err != nil || !ok {
		t.Fatalf("record right after DELETE: ok=%v err=%v", ok, err)
	} else if rec.State == string(StateRunning) {
		t.Fatalf("record still resumable after DELETE returned: %q", rec.State)
	}
	// Close immediately: the job goroutine's finish/persist may now run
	// with baseCtx already cancelled — the DELETE must still win.
	ts1.Close()
	srv1.Close()

	rec, ok, err := srv1.Store().GetJob(id)
	if err != nil || !ok {
		t.Fatalf("record after close: ok=%v err=%v", ok, err)
	}
	if rec.State == string(StateSucceeded) {
		t.Skip("job finished before DELETE landed; cancel path not exercised")
	}
	if rec.State != string(StateCanceled) {
		t.Fatalf("DELETE-cancelled job persisted as %q, want canceled", rec.State)
	}

	srv2 := New(repro.NewEngine(2), WithStore(fileStore(t, dir)))
	ts2 := httptest.NewServer(srv2.Handler())
	t.Cleanup(func() { ts2.Close(); srv2.Close() })
	resp, body = do(t, http.MethodGet, ts2.URL+"/api/v1/jobs/"+id, nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status after restart: %s: %s", resp.Status, body)
	}
	if st := decode[JobStatus](t, body); st.State != StateCanceled {
		t.Fatalf("cancelled job resumed as %q after restart", st.State)
	}
}

// TestForeignJobRecordsIgnored: ids that are not exactly "job-<n>" (e.g. an
// operator's backup copy job-2.bak) must be left in the store but never
// replayed, resumed, or counted into the id sequence.
func TestForeignJobRecordsIgnored(t *testing.T) {
	dir := t.TempDir()
	st := fileStore(t, dir)
	spec, _ := json.Marshal(JobSpec{Type: "simulate", Words: 1000})
	for _, id := range []string{"job-2.bak", "job-", "job-0", "backup-job-3", "job-007x"} {
		if err := st.PutJob(&store.JobRecord{ID: id, Type: "simulate", Spec: spec, State: string(StateRunning), Created: time.Now()}); err != nil {
			t.Fatal(err)
		}
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}

	srv := New(repro.NewEngine(1), WithStore(fileStore(t, dir)))
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(func() { ts.Close(); srv.Close() })

	_, body := do(t, http.MethodGet, ts.URL+"/api/v1/jobs", nil)
	if listing := decode[struct{ Jobs []JobStatus }](t, body); len(listing.Jobs) != 0 {
		t.Fatalf("foreign records entered the job table: %s", body)
	}
	// The sequence starts fresh: the first real submission is job-1.
	resp, body := do(t, http.MethodPost, ts.URL+"/api/v1/jobs", JobSpec{Type: "simulate", Words: 1000})
	if resp.StatusCode != http.StatusAccepted || decode[JobStatus](t, body).ID != "job-1" {
		t.Fatalf("sequence polluted by foreign ids: %s: %s", resp.Status, body)
	}
	// The foreign records are still in the store, untouched.
	if rec, ok, err := srv.Store().GetJob("job-2.bak"); err != nil || !ok || rec.State != string(StateRunning) {
		t.Fatalf("foreign record mutated: %+v ok=%v err=%v", rec, ok, err)
	}
}

// TestCorruptSpecSurfacesAsFailedJob: a "running" record whose spec JSON is
// unreadable cannot resume, but it must not vanish either — it shows up as a
// failed job and its store record stops saying "running".
func TestCorruptSpecSurfacesAsFailedJob(t *testing.T) {
	dir := t.TempDir()
	st := fileStore(t, dir)
	if err := st.PutJob(&store.JobRecord{
		ID:   "job-1",
		Type: "recover",
		// Valid JSON, wrong shape: unmarshals into JobSpec with an error.
		Spec:    json.RawMessage(`"not-a-spec-object"`),
		State:   string(StateRunning),
		Created: time.Now().UTC(),
	}); err != nil {
		t.Fatal(err)
	}
	// A record that is not even JSON must not block replaying the others.
	if err := st.Backend().Put(store.BucketJobs, "job-3", []byte("{broken")); err != nil {
		t.Fatal(err)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}

	srv := New(repro.NewEngine(1), WithStore(fileStore(t, dir)))
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(func() { ts.Close(); srv.Close() })

	resp, body := do(t, http.MethodGet, ts.URL+"/api/v1/jobs/job-1", nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("corrupt-spec job missing from table: %s: %s", resp.Status, body)
	}
	status := decode[JobStatus](t, body)
	if status.State != StateFailed || !strings.Contains(status.Error, "corrupt spec") {
		t.Fatalf("corrupt-spec job state: %+v", status)
	}
	if status.Type != "recover" {
		t.Fatalf("type lost on corrupt-spec job: %+v", status)
	}
	rec, ok, err := srv.Store().GetJob("job-1")
	if err != nil || !ok || rec.State != string(StateFailed) {
		t.Fatalf("store still says %q: ok=%v err=%v", rec.State, ok, err)
	}
	// The unreadable job-3 record still reserves its id: a fresh submission
	// must mint job-4, never overwrite job-3's file.
	resp, body = do(t, http.MethodPost, ts.URL+"/api/v1/jobs", JobSpec{Type: "simulate", Words: 1000})
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit: %s: %s", resp.Status, body)
	}
	if newID := decode[JobStatus](t, body).ID; newID != "job-4" {
		t.Fatalf("new job minted %s; corrupt job-3's id was not reserved", newID)
	}
	if raw, ok, err := srv.Store().Backend().Get(store.BucketJobs, "job-3"); err != nil || !ok || string(raw) != "{broken" {
		t.Fatalf("corrupt record was touched: %q ok=%v err=%v", raw, ok, err)
	}
}

// TestDuplicateProfileSkipsSolver is the dedupe acceptance test: two
// submissions carrying byte-identical miscorrection profiles (same simulated
// chip, same sweep) must run the SAT solver exactly once — the second result
// replays from the content-addressed registry.
func TestDuplicateProfileSkipsSolver(t *testing.T) {
	srv, ts := newTestServer(t)

	submit := func() JobResult {
		resp, body := do(t, http.MethodPost, ts.URL+"/api/v1/jobs", JobSpec{
			Type:         "recover",
			Manufacturer: "B",
			K:            16,
			Seed:         11,
		})
		if resp.StatusCode != http.StatusAccepted {
			t.Fatalf("submit: %s: %s", resp.Status, body)
		}
		final := waitTerminal(t, ts.URL, decode[JobStatus](t, body).ID)
		if final.State != StateSucceeded {
			t.Fatalf("job finished %s: %s", final.State, final.Error)
		}
		_, body = do(t, http.MethodGet, ts.URL+"/api/v1/jobs/"+final.ID+"/result", nil)
		return decode[JobResult](t, body)
	}

	first := submit()
	if inv, hits := srv.solveCounters(); inv != 1 || hits != 0 {
		t.Fatalf("after first job: invocations=%d hits=%d", inv, hits)
	}

	second := submit()
	inv, hits := srv.solveCounters()
	if inv != 1 {
		t.Fatalf("duplicate profile re-ran the solver: invocations=%d", inv)
	}
	if hits != 1 {
		t.Fatalf("duplicate profile missed the cache: hits=%d", hits)
	}
	if first.Recover.ProfileHash != second.Recover.ProfileHash {
		t.Fatalf("identical submissions hashed differently: %s vs %s",
			first.Recover.ProfileHash, second.Recover.ProfileHash)
	}
	if first.Recover.Code != second.Recover.Code {
		t.Fatal("cached result returned a different code")
	}

	// The registry lists exactly one record for the shared profile, sourced
	// from the job that actually solved it.
	_, body := do(t, http.MethodGet, ts.URL+"/codes", nil)
	listing := decode[struct{ Codes []codeListing }](t, body)
	if len(listing.Codes) != 1 || listing.Codes[0].ProfileHash != first.Recover.ProfileHash {
		t.Fatalf("registry after duplicate jobs: %s", body)
	}
	if listing.Codes[0].Source != "job-1" {
		t.Fatalf("registry provenance: %s", body)
	}
	// Solver counters are also visible on healthz.
	_, body = do(t, http.MethodGet, ts.URL+"/healthz", nil)
	health := decode[map[string]any](t, body)
	solver, ok := health["solver"].(map[string]any)
	if !ok || int(solver["invocations"].(float64)) != 1 || int(solver["cache_hits"].(float64)) != 1 {
		t.Fatalf("healthz solver counters: %s", body)
	}
}

// terminalGate is a job store backend whose first Put of a terminal job
// record signals blocked and then waits for release to be closed.
type terminalGate struct {
	*store.MemBackend
	once    sync.Once
	blocked chan struct{}
	release chan struct{}
}

func (g *terminalGate) Put(bucket, key string, value []byte) error {
	var rec store.JobRecord
	if bucket == store.BucketJobs && json.Unmarshal(value, &rec) == nil && State(rec.State).Terminal() {
		g.once.Do(func() { close(g.blocked) })
		<-g.release
	}
	return g.MemBackend.Put(bucket, key, value)
}

// TestTerminalStatusFollowsStoreWrite: a job publishes its terminal state
// only after the terminal record is stored. While that write is blocked, a
// status poll still reads "running"; once a poll reads a terminal state,
// the stored record is terminal too.
func TestTerminalStatusFollowsStoreWrite(t *testing.T) {
	gate := &terminalGate{
		MemBackend: store.NewMemBackend(),
		blocked:    make(chan struct{}),
		release:    make(chan struct{}),
	}
	var released sync.Once
	release := func() { released.Do(func() { close(gate.release) }) }
	srv := New(repro.NewEngine(1), WithStore(store.New(gate)))
	t.Cleanup(func() { release(); srv.Close() })

	poll := func(id string) JobStatus {
		t.Helper()
		rec := httptest.NewRecorder()
		srv.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/api/v1/jobs/"+id, nil))
		if rec.Code != http.StatusOK {
			t.Fatalf("status %s: %d: %s", id, rec.Code, rec.Body)
		}
		return decode[JobStatus](t, rec.Body.Bytes())
	}
	storedState := func(id string) string {
		t.Helper()
		rec, ok, err := srv.Store().GetJob(id)
		if err != nil || !ok {
			t.Fatalf("job record %s: ok=%v err=%v", id, ok, err)
		}
		return rec.State
	}

	j, err := srv.submit(JobSpec{Type: "simulate", Words: 1000}, obs.SpanContext{})
	if err != nil {
		t.Fatal(err)
	}
	wake, unwatch := j.watch()
	defer unwatch()
	<-gate.blocked
	if st := poll(j.id); st.State != StateRunning {
		t.Fatalf("status during the terminal store write = %s, want running (store holds %s)",
			st.State, storedState(j.id))
	}
	release()
	for {
		st := poll(j.id)
		if st.State.Terminal() {
			if got := storedState(j.id); got != string(st.State) {
				t.Fatalf("status reads %s while the store holds %s", st.State, got)
			}
			return
		}
		<-wake // the job goroutine notifies watchers after its terminal transition
	}
}
