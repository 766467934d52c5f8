package service

import (
	"context"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"repro"
	"repro/internal/obs"
)

// TestDrainFinishesInFlightJobs: Drain rejects new submissions with 503
// while the in-flight job keeps running to a successful finish, and
// status polls answer throughout.
func TestDrainFinishesInFlightJobs(t *testing.T) {
	srv := New(repro.NewEngine(2))
	defer srv.Close()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	resp, body := do(t, http.MethodPost, ts.URL+"/api/v1/jobs",
		JobSpec{Type: "recover", Manufacturer: "B", K: 8, Verify: true})
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit: %s: %s", resp.Status, body)
	}
	id := decode[JobStatus](t, body).ID

	drained := make(chan error, 1)
	go func() {
		ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
		defer cancel()
		drained <- srv.Drain(ctx)
	}()

	// isDraining flips quickly; new submissions must bounce with 503 +
	// Retry-After while the old job still runs.
	deadline := time.Now().Add(5 * time.Second)
	for !srv.isDraining() {
		if time.Now().After(deadline) {
			t.Fatal("server never started draining")
		}
		time.Sleep(5 * time.Millisecond)
	}
	resp, body = do(t, http.MethodPost, ts.URL+"/api/v1/jobs", JobSpec{Type: "simulate"})
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("submit while draining: %s: %s", resp.Status, body)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("503 without Retry-After")
	}
	if resp, _ := do(t, http.MethodGet, ts.URL+"/api/v1/jobs/"+id, nil); resp.StatusCode != http.StatusOK {
		t.Fatalf("status poll while draining: %s", resp.Status)
	}

	if err := <-drained; err != nil {
		t.Fatalf("drain: %v", err)
	}
	_, body = do(t, http.MethodGet, ts.URL+"/api/v1/jobs/"+id, nil)
	if st := decode[JobStatus](t, body); st.State != StateSucceeded {
		t.Fatalf("in-flight job finished %s (error %q), want succeeded", st.State, st.Error)
	}
}

// TestDrainTimeout: a drain that cannot finish in time reports how many
// jobs are still running and leaves them for Close.
func TestDrainTimeout(t *testing.T) {
	srv := New(repro.NewEngine(1))
	defer srv.Close()
	// A heavyweight job that cannot finish within the drain window.
	j, err := srv.submit(JobSpec{Type: "recover", Manufacturer: "B", K: 32, Chips: 8, Rounds: 16}, obs.SpanContext{})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	if err := srv.Drain(ctx); err == nil {
		st, _, _, _ := j.snapshotState()
		t.Fatalf("drain returned nil with job in state %s", st)
	}
}

// TestAdmissionControl429: a server capped at one concurrent job answers
// the second submission with 429 + Retry-After, and accepts again once
// the slot frees.
func TestAdmissionControl429(t *testing.T) {
	srv := New(repro.NewEngine(2), WithMaxConcurrent(1))
	defer srv.Close()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	resp, body := do(t, http.MethodPost, ts.URL+"/api/v1/jobs",
		JobSpec{Type: "recover", Manufacturer: "B", K: 8, Verify: true})
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("first submit: %s: %s", resp.Status, body)
	}
	id := decode[JobStatus](t, body).ID

	resp, body = do(t, http.MethodPost, ts.URL+"/api/v1/jobs", JobSpec{Type: "simulate"})
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("saturated submit: %s: %s", resp.Status, body)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("429 without Retry-After")
	}

	if st := waitTerminal(t, ts.URL, id); st.State != StateSucceeded {
		t.Fatalf("first job finished %s: %s", st.State, st.Error)
	}
	resp, body = do(t, http.MethodPost, ts.URL+"/api/v1/jobs", JobSpec{Type: "simulate", Words: 100})
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit after slot freed: %s: %s", resp.Status, body)
	}
}
