package service

import (
	"net/http"
	"testing"
)

// TestPlanJobEndToEnd drives a "plan": true recovery job through the HTTP
// surface: the job must succeed, verify against ground truth, report the
// planner's patterns economy and solver counters in the result, stream a
// monotonic solver progress block in its status, and feed the server-wide
// /healthz solver totals.
func TestPlanJobEndToEnd(t *testing.T) {
	_, ts := newTestServer(t)

	resp, body := do(t, http.MethodPost, ts.URL+"/api/v1/jobs", JobSpec{
		Type:         "recover",
		Manufacturer: "B",
		K:            16,
		Seed:         77,
		Verify:       true,
		Plan:         true,
	})
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit: %s: %s", resp.Status, body)
	}
	accepted := decode[JobStatus](t, body)

	st := waitTerminal(t, ts.URL, accepted.ID)
	if st.State != StateSucceeded {
		t.Fatalf("job finished %s: %s", st.State, st.Error)
	}
	if st.Progress.Solver.PatternsUsed == 0 || st.Progress.Solver.PatternsPlanned == 0 {
		t.Fatalf("status carries no planner solver progress: %+v", st.Progress.Solver)
	}
	if st.Progress.Solver.PatternsUsed > st.Progress.Solver.PatternsPlanned {
		t.Fatalf("patterns used (%d) exceeds planned total (%d)",
			st.Progress.Solver.PatternsUsed, st.Progress.Solver.PatternsPlanned)
	}

	resp, body = do(t, http.MethodGet, ts.URL+"/api/v1/jobs/"+accepted.ID+"/result", nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("result: %s: %s", resp.Status, body)
	}
	res := decode[JobResult](t, body)
	rec := res.Recover
	if rec == nil || !rec.Unique {
		t.Fatalf("expected unique recovery, got %+v", res)
	}
	if rec.GroundTruthMatch == nil || !*rec.GroundTruthMatch {
		t.Fatal("planned recovery does not match ground truth")
	}
	if rec.PatternsUsed == 0 || rec.PatternsUsed >= rec.PatternsFull {
		t.Fatalf("planner economy missing or inverted: used %d of %d", rec.PatternsUsed, rec.PatternsFull)
	}
	if rec.Solver == nil || rec.Solver.Propagations == 0 {
		t.Fatalf("result carries no solver stats: %+v", rec.Solver)
	}

	resp, body = do(t, http.MethodGet, ts.URL+"/healthz", nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz: %s", resp.Status)
	}
	health := decode[map[string]any](t, body)
	solver, ok := health["solver"].(map[string]any)
	if !ok {
		t.Fatalf("healthz solver block missing: %s", body)
	}
	if solver["propagations"].(float64) == 0 {
		t.Fatalf("healthz solver totals not aggregated: %s", body)
	}
}

// TestPlanRejectsAntiRows: the planner schedules true-cell patterns only,
// so the combination must be a 400 at submission time.
func TestPlanRejectsAntiRows(t *testing.T) {
	_, ts := newTestServer(t)
	resp, body := do(t, http.MethodPost, ts.URL+"/api/v1/jobs", JobSpec{
		Type:        "recover",
		Plan:        true,
		UseAntiRows: true,
	})
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("plan+anti submit: %s: %s", resp.Status, body)
	}
}

// TestPlanMultiChipFinishesCollect: a planned fleet job must report every
// stage finished. Each chip sends its own collect-Done event, and the
// status fold marks collection done once all chips have.
func TestPlanMultiChipFinishesCollect(t *testing.T) {
	_, ts := newTestServer(t)
	resp, body := do(t, http.MethodPost, ts.URL+"/api/v1/jobs", JobSpec{
		Type:         "recover",
		Manufacturer: "B",
		K:            16,
		Seed:         7,
		Chips:        2,
		Plan:         true,
	})
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit: %s: %s", resp.Status, body)
	}
	st := waitTerminal(t, ts.URL, decode[JobStatus](t, body).ID)
	if st.State != StateSucceeded {
		t.Fatalf("job finished %s: %s", st.State, st.Error)
	}
	p := st.Progress
	if !p.Discover.Done || !p.Collect.Done || !p.Solve.Done {
		t.Fatalf("finished planned fleet job reports unfinished stages: discover=%+v collect=%+v solve=%+v",
			p.Discover, p.Collect, p.Solve)
	}
	if p.Collect.Count == 0 || p.Collect.Count != p.Collect.Total {
		t.Fatalf("collect progress %+v, want every pass counted", p.Collect)
	}
}
