package service

import (
	"bytes"
	"encoding/json"
	"net/http"
	"sync"
	"testing"
)

// submission is one concurrent POST /api/v1/jobs outcome.
type submission struct {
	status JobStatus
	code   int
	loc    string
}

// submitConcurrently releases one POST per payload at the same instant and
// returns the outcomes in payload order, failing on any transport or
// decode error or a non-202 answer.
func submitConcurrently(t *testing.T, url string, payloads ...[]byte) []submission {
	t.Helper()
	subs := make([]submission, len(payloads))
	errs := make([]error, len(payloads))
	start := make(chan struct{})
	var wg sync.WaitGroup
	for i, payload := range payloads {
		wg.Add(1)
		go func(i int, payload []byte) {
			defer wg.Done()
			<-start
			resp, err := http.Post(url+"/api/v1/jobs", "application/json", bytes.NewReader(payload))
			if err != nil {
				errs[i] = err
				return
			}
			defer resp.Body.Close()
			subs[i].code = resp.StatusCode
			subs[i].loc = resp.Header.Get("Location")
			errs[i] = json.NewDecoder(resp.Body).Decode(&subs[i].status)
		}(i, payload)
	}
	close(start)
	wg.Wait()
	for i, s := range subs {
		if errs[i] != nil {
			t.Fatalf("submission %d: %v", i, errs[i])
		}
		if s.code != http.StatusAccepted {
			t.Fatalf("submission %d: status %d, want 202", i, s.code)
		}
	}
	return subs
}

// TestConcurrentSubmitDedupe proves the single-flight guarantee on the
// standalone path: N identical concurrent submissions collapse into exactly
// one execution and one solver invocation, and every submitter receives the
// same job — and therefore the same result. Run under -race, this also
// exercises the inflight table and the sharded job table under contention.
func TestConcurrentSubmitDedupe(t *testing.T) {
	srv, ts := newTestServer(t)

	const n = 8
	spec := JobSpec{Type: "recover", Manufacturer: "B", K: 16, Chips: 2, Seed: 7, Verify: true}
	payload, err := json.Marshal(spec)
	if err != nil {
		t.Fatal(err)
	}
	payloads := make([][]byte, n)
	for i := range payloads {
		payloads[i] = payload
	}
	subs := submitConcurrently(t, ts.URL, payloads...)

	id := subs[0].status.ID
	for i, s := range subs {
		if s.status.ID != id {
			t.Fatalf("submission %d joined job %s, submission 0 got %s — dedupe leaked an execution", i, s.status.ID, id)
		}
		if s.loc != "/api/v1/jobs/"+id {
			t.Fatalf("submission %d: Location = %q, want %q", i, s.loc, "/api/v1/jobs/"+id)
		}
	}
	if hits := srv.metrics.dedupeHits.Value(); hits != n-1 {
		t.Fatalf("dedupe hits = %d, want %d", hits, n-1)
	}

	// Exactly one job exists on the server.
	resp, body := do(t, http.MethodGet, ts.URL+"/api/v1/jobs", nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("list: %s", resp.Status)
	}
	listing := decode[map[string][]JobStatus](t, body)
	if len(listing["jobs"]) != 1 {
		t.Fatalf("server holds %d jobs, want exactly 1", len(listing["jobs"]))
	}

	final := waitTerminal(t, ts.URL, id)
	if final.State != StateSucceeded {
		t.Fatalf("job finished %s: %s", final.State, final.Error)
	}
	// One execution means one solver invocation — N independent runs would
	// each have solved (or raced on) the profile.
	if inv, _ := srv.solveCounters(); inv != 1 {
		t.Fatalf("solver invoked %d times, want 1", inv)
	}

	// Every submitter's Location serves the shared result.
	for i, s := range subs {
		resp, body := do(t, http.MethodGet, ts.URL+s.loc+"/result", nil)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("submission %d result: %s: %s", i, resp.Status, body)
		}
		res := decode[JobResult](t, body)
		if res.Recover == nil || !res.Recover.Unique {
			t.Fatalf("submission %d: unexpected result payload: %s", i, body)
		}
	}

	// Completion releases the single-flight slot: an identical resubmission
	// must start a fresh execution, not resurrect the finished job.
	resp, body = do(t, http.MethodPost, ts.URL+"/api/v1/jobs", spec)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("resubmit: %s: %s", resp.Status, body)
	}
	if again := decode[JobStatus](t, body); again.ID == id {
		t.Fatalf("resubmission after completion reused finished job %s", id)
	}
}

// TestDedupeDistinguishesSpecs: specs differing in any result-affecting
// field must not collapse, even when submitted concurrently.
func TestDedupeDistinguishesSpecs(t *testing.T) {
	srv, ts := newTestServer(t)

	specs := []JobSpec{
		{Type: "recover", Manufacturer: "B", K: 16, Seed: 7},
		{Type: "recover", Manufacturer: "B", K: 16, Seed: 8},               // different chip
		{Type: "recover", Manufacturer: "A", K: 16, Seed: 7},               // different code
		{Type: "recover", Manufacturer: "B", K: 16, Seed: 7, Verify: true}, // different run shape
	}
	payloads := make([][]byte, len(specs))
	for i, spec := range specs {
		payload, err := json.Marshal(spec)
		if err != nil {
			t.Fatal(err)
		}
		payloads[i] = payload
	}
	subs := submitConcurrently(t, ts.URL, payloads...)

	seen := make(map[string]int)
	for i, s := range subs {
		if prev, dup := seen[s.status.ID]; dup {
			t.Fatalf("distinct specs %d and %d collapsed into job %s", prev, i, s.status.ID)
		}
		seen[s.status.ID] = i
	}
	if hits := srv.metrics.dedupeHits.Value(); hits != 0 {
		t.Fatalf("dedupe hits = %d on distinct specs, want 0", hits)
	}
	for _, s := range subs {
		waitTerminal(t, ts.URL, s.status.ID)
	}
}

// TestDedupeIgnoresLazySolverFlag: use_lazy_solver is accepted for
// compatibility but selects nothing, so concurrent submissions differing
// only in it are the same work and must share one job.
func TestDedupeIgnoresLazySolverFlag(t *testing.T) {
	srv, ts := newTestServer(t)

	subs := submitConcurrently(t, ts.URL,
		[]byte(`{"type":"recover","manufacturer":"B","k":16,"seed":7,"chips":2}`),
		[]byte(`{"type":"recover","manufacturer":"B","k":16,"seed":7,"chips":2,"use_lazy_solver":true}`))
	if subs[0].status.ID != subs[1].status.ID {
		t.Fatalf("submissions differing only in use_lazy_solver ran as jobs %s and %s", subs[0].status.ID, subs[1].status.ID)
	}
	if hits := srv.metrics.dedupeHits.Value(); hits != 1 {
		t.Fatalf("dedupe hits = %d, want 1", hits)
	}
	if final := waitTerminal(t, ts.URL, subs[0].status.ID); final.State != StateSucceeded {
		t.Fatalf("job finished %s: %s", final.State, final.Error)
	}
}

// TestDedupeKeyIgnoresInertFields: specs that request the same work share
// a key even when they spell an inert field differently, and fields that
// change the work still split keys.
func TestDedupeKeyIgnoresInertFields(t *testing.T) {
	drop := func(n int) *int { return &n }
	base := JobSpec{Type: "recover", Manufacturer: "B", K: 16, Seed: 7}
	with := func(f func(*JobSpec)) JobSpec {
		s := base
		f(&s)
		return s
	}
	same := [][2]JobSpec{
		// Every negative max_drop means unlimited.
		{with(func(s *JobSpec) { s.MaxDrop = drop(-1) }), with(func(s *JobSpec) { s.MaxDrop = drop(-5) })},
		{with(func(s *JobSpec) { s.NoiseFP, s.MaxDrop = 0.01, drop(-2) }), with(func(s *JobSpec) { s.NoiseFP = 0.01 })},
		// noise_seed draws nothing without noise_fp or noise_fn.
		{base, with(func(s *JobSpec) { s.NoiseSeed = 9 })},
		{with(func(s *JobSpec) { s.MaxDrop = drop(3) }), with(func(s *JobSpec) { s.MaxDrop, s.NoiseSeed = drop(3), 4 })},
	}
	for i, p := range same {
		if a, b := dedupeKey(p[0]), dedupeKey(p[1]); a != b {
			t.Errorf("pair %d: same work, different keys:\n %s\n %s", i, a, b)
		}
	}
	distinct := [][2]JobSpec{
		{base, with(func(s *JobSpec) { s.MaxDrop = drop(-1) })},
		{with(func(s *JobSpec) { s.MaxDrop = drop(0) }), with(func(s *JobSpec) { s.MaxDrop = drop(-1) })},
		{with(func(s *JobSpec) { s.NoiseFP, s.NoiseSeed = 0.01, 1 }), with(func(s *JobSpec) { s.NoiseFP, s.NoiseSeed = 0.01, 2 })},
	}
	for i, p := range distinct {
		if dedupeKey(p[0]) == dedupeKey(p[1]) {
			t.Errorf("pair %d: different work, one key %s", i, dedupeKey(p[0]))
		}
	}
}
