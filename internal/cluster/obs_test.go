package cluster

import (
	"context"
	"net/http"
	"strings"
	"testing"
	"time"

	"repro/internal/obs"
	"repro/internal/service"
)

// TestDrainedWorkerCountersFoldIntoFleet: the regression the /healthz
// cluster block used to have — a worker deregistering during a graceful
// drain took its solver counters with it, so fleet totals dropped. The
// departure request's final counters must survive in the aggregate after
// the member row is gone.
func TestDrainedWorkerCountersFoldIntoFleet(t *testing.T) {
	tc := startTestCluster(t)
	w := tc.addWorker("w1", 0)

	st := tc.submit(recoverSpec("B", 8, 1))
	if final := tc.waitTerminal(st.ID, 120*time.Second); final.State != service.StateSucceeded {
		t.Fatalf("job finished %s: %s", final.State, final.Error)
	}
	want := w.srv.SolverTotals()
	if want.Invocations == 0 {
		t.Fatal("worker reports zero solver invocations after a successful recovery")
	}

	// Graceful departure, the cmd/beerd shutdown order: stop the heartbeat
	// loop first (so the 404 → re-register path cannot resurrect the
	// member), then deregister with the final counters.
	w.cancel()
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := w.agent.Deregister(ctx); err != nil {
		t.Fatalf("deregister: %v", err)
	}
	if _, ok := tc.coord.Registry().Get("w1"); ok {
		t.Fatal("w1 still in the membership table after deregister")
	}

	fleet := tc.coord.Registry().FleetSolver()
	if fleet.Invocations < want.Invocations || fleet.Conflicts < want.Conflicts {
		t.Fatalf("fleet totals dropped the drained worker's counters: fleet %+v, worker had %+v", fleet, want)
	}
	hs := tc.coord.HealthStats()
	got, ok := hs["fleet_solver"].(service.SolverTotals)
	if !ok {
		t.Fatalf("healthz cluster block has no fleet_solver (got %T)", hs["fleet_solver"])
	}
	if got.Invocations < want.Invocations {
		t.Fatalf("healthz fleet_solver lost the drained worker: %+v < %+v", got, want)
	}
}

// TestHeartbeatWithPortfolioEraSolverDecodes: workers that raced a SAT
// portfolio reported "races" in their heartbeat's solver block. The field
// is gone; the coordinator must still accept such a heartbeat and fold the
// counters it does know into the fleet totals.
func TestHeartbeatWithPortfolioEraSolverDecodes(t *testing.T) {
	tc := startTestCluster(t)
	tc.coord.Registry().Register(WorkerInfo{ID: "old", URL: "http://127.0.0.1:1"})
	body := `{"id":"old","running":0,"in_flight":0,"codes":0,` +
		`"solver":{"invocations":2,"cache_hits":1,"conflicts":40,"propagations":900,` +
		`"learned":30,"restarts":1,"races":3,"noisy_recoveries":0,"entries_dropped":0}}`
	resp, err := http.Post(tc.ts.URL+PathHeartbeat, "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("heartbeat with solver.races: %s", resp.Status)
	}
	want := service.SolverTotals{Invocations: 2, CacheHits: 1, Conflicts: 40, Propagations: 900, Learned: 30, Restarts: 1}
	if got := tc.coord.Registry().FleetSolver(); got != want {
		t.Fatalf("fleet solver totals = %+v, want %+v", got, want)
	}
}

// TestTracePropagationAcrossDispatch: a traceparent submitted to the
// coordinator must come back out in the coordinator's dispatch span AND in
// the worker's execution spans — one TraceID stitched across both
// processes' ring buffers.
func TestTracePropagationAcrossDispatch(t *testing.T) {
	tc := startTestCluster(t)
	w := tc.addWorker("w1", 0)

	const parent = "00-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-01"
	wantTrace := "4bf92f3577b34da6a3ce929d0e0e4736"

	var status service.JobStatus
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	header := http.Header{obs.TraceparentHeader: []string{parent}}
	if err := doJSONHeader(ctx, http.DefaultClient, http.MethodPost,
		tc.ts.URL+"/api/v1/jobs", header, recoverSpec("B", 8, 2), &status); err != nil {
		t.Fatalf("submit: %v", err)
	}
	if final := tc.waitTerminal(status.ID, 120*time.Second); final.State != service.StateSucceeded {
		t.Fatalf("job finished %s: %s", final.State, final.Error)
	}

	// Spans commit on End, which can trail the terminal status poll by a
	// beat on each side; poll instead of asserting a snapshot.
	spanNames := func(tr *obs.Tracer) map[string]bool {
		names := make(map[string]bool)
		for _, sp := range tr.Spans() {
			if sp.TraceID == wantTrace {
				names[sp.Name] = true
			}
		}
		return names
	}
	tc.waitFor("coordinator spans in trace", 5*time.Second, func() bool {
		names := spanNames(tc.hub.Tracer)
		return names["beerd.job"] && names["cluster.dispatch"]
	})
	tc.waitFor("worker spans in trace", 5*time.Second, func() bool {
		names := spanNames(w.hub.Tracer)
		return names["beerd.job"] && names["stage.solve"]
	})
}
