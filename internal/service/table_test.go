package service

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"

	"repro"
)

// instantExecutor finishes every job at once: a job whose seed is a
// multiple of 5 fails, any other succeeds with its seed as the word count.
type instantExecutor struct{}

func (instantExecutor) Prepare(spec JobSpec) (Execution, error) {
	return func(ctx context.Context, env ExecEnv) (*JobResult, error) {
		if spec.Seed%5 == 0 {
			return nil, fmt.Errorf("seed %d fails", spec.Seed)
		}
		return &JobResult{Simulate: &SimulateResult{Words: int64(spec.Seed)}}, nil
	}, nil
}

func (instantExecutor) Describe() string { return "instant" }

// size counts the jobs the table holds.
func (t *jobTable) size() int {
	n := 0
	for i := range t.shards {
		sh := &t.shards[i]
		sh.mu.RLock()
		n += len(sh.m)
		sh.mu.RUnlock()
	}
	return n
}

// submitAndWait submits a simulate job with the given seed and follows its
// SSE stream to the done event, returning the job's id.
func submitAndWait(base string, seed uint64) (string, error) {
	body, err := json.Marshal(JobSpec{Type: "simulate", K: 8, Seed: seed})
	if err != nil {
		return "", err
	}
	resp, err := http.Post(base+"/api/v1/jobs", "application/json", bytes.NewReader(body))
	if err != nil {
		return "", err
	}
	var st JobStatus
	err = json.NewDecoder(resp.Body).Decode(&st)
	resp.Body.Close()
	if err != nil || resp.StatusCode != http.StatusAccepted {
		return "", fmt.Errorf("submit: %s: %v", resp.Status, err)
	}
	resp, err = http.Get(base + "/api/v1/jobs/" + st.ID + "/events")
	if err != nil {
		return "", err
	}
	defer resp.Body.Close()
	for sc := bufio.NewScanner(resp.Body); sc.Scan(); {
		if sc.Text() == "event: done" {
			return st.ID, nil
		}
	}
	return "", fmt.Errorf("job %s: event stream ended without a done event", st.ID)
}

// TestJobTableBound runs more jobs than the job table keeps and requires
// every job's status and result to stay readable, GET /jobs to list them
// all in submission order, /healthz to count them exactly, and the table
// never to hold more than maxFinishedJobs finished jobs.
func TestJobTableBound(t *testing.T) {
	srv := New(repro.NewEngine(1), WithExecutor(instantExecutor{}))
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	defer srv.Close()

	const n, submitters = maxFinishedJobs + 300, 4
	seeds := make(map[string]uint64, n)
	var mu sync.Mutex
	var wg sync.WaitGroup
	for w := range submitters {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := w; i < n; i += submitters {
				seed := uint64(i + 1)
				id, err := submitAndWait(ts.URL, seed)
				if err != nil {
					t.Error(err)
					return
				}
				mu.Lock()
				seeds[id] = seed
				mu.Unlock()
				// Each submitter has at most one job running and one
				// finished but not yet retired.
				if size := srv.table.size(); size > maxFinishedJobs+2*submitters {
					t.Errorf("the job table holds %d jobs", size)
				}
			}
		}()
	}
	wg.Wait()
	if t.Failed() {
		return
	}
	if err := srv.Drain(context.Background()); err != nil {
		t.Fatal(err)
	}
	if size := srv.table.size(); size != maxFinishedJobs {
		t.Fatalf("after %d jobs the table holds %d, want %d", n, size, maxFinishedJobs)
	}

	wantCounts := map[string]int{}
	for id, seed := range seeds {
		want := StateSucceeded
		if seed%5 == 0 {
			want = StateFailed
		}
		wantCounts[string(want)]++
		_, body := do(t, http.MethodGet, ts.URL+"/api/v1/jobs/"+id, nil)
		if st := decode[JobStatus](t, body); st.ID != id || st.State != want {
			t.Fatalf("status of %s (seed %d): %s %s, want %s", id, seed, st.ID, st.State, want)
		}
		resp, body := do(t, http.MethodGet, ts.URL+"/api/v1/jobs/"+id+"/result", nil)
		if want == StateFailed {
			if resp.StatusCode != http.StatusConflict || !strings.Contains(string(body), fmt.Sprintf("seed %d fails", seed)) {
				t.Fatalf("result of failed %s: %s: %s", id, resp.Status, body)
			}
			continue
		}
		if res := decode[JobResult](t, body); resp.StatusCode != http.StatusOK || res.Simulate == nil || res.Simulate.Words != int64(seed) {
			t.Fatalf("result of %s (seed %d): %s: %s", id, seed, resp.Status, body)
		}
	}

	_, body := do(t, http.MethodGet, ts.URL+"/api/v1/jobs", nil)
	listing := decode[struct{ Jobs []JobStatus }](t, body)
	if len(listing.Jobs) != n {
		t.Fatalf("GET /jobs lists %d jobs, want %d", len(listing.Jobs), n)
	}
	for i, st := range listing.Jobs {
		if want := fmt.Sprintf("job-%d", i+1); st.ID != want {
			t.Fatalf("GET /jobs entry %d is %s, want %s", i, st.ID, want)
		}
	}

	_, body = do(t, http.MethodGet, ts.URL+"/healthz", nil)
	health := decode[struct{ Jobs map[string]int }](t, body)
	if fmt.Sprint(health.Jobs) != fmt.Sprint(wantCounts) {
		t.Fatalf("/healthz counts %v, want %v", health.Jobs, wantCounts)
	}
}
