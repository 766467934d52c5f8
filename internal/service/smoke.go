package service

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strings"
	"time"

	"repro"
	"repro/internal/ecc"
	"repro/internal/obs"
)

// keyMetricFamilies is the exposition contract beerd keeps on GET /metrics:
// the families the exposition test and the smoke suite (serve-smoke) both
// require to be present and well-formed.
var keyMetricFamilies = []string{
	"beerd_jobs_submitted_total",
	"beerd_jobs_completed_total",
	"beerd_job_duration_seconds",
	"beerd_recover_stage_seconds",
	"beerd_solver_conflicts_total",
	"beerd_solver_propagations_total",
	"beerd_solve_cache_lookups_total",
	"beerd_solve_cache_hits_total",
	"beerd_noise_entries_dropped_total",
	"beerd_store_op_seconds",
	"beerd_engine_workers",
	"beerd_engine_inflight",
	"beerd_engine_runs_total",
	"beerd_jobs_executing",
	"go_goroutines",
	"go_memstats_heap_alloc_bytes",
}

// metricsSmoke scrapes base's /metrics and validates the exposition: the
// document must parse under the Prometheus text-format grammar (including
// histogram bucket invariants) and carry keyMetricFamilies. It returns the
// parsed families so the caller can assert on sample values.
func metricsSmoke(ctx context.Context, client *http.Client, base string) (map[string]*obs.Family, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, base+"/metrics", nil)
	if err != nil {
		return nil, err
	}
	resp, err := client.Do(req)
	if err != nil {
		return nil, fmt.Errorf("GET /metrics: %w", err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(io.LimitReader(resp.Body, maxBodyBytes))
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("GET /metrics: %s: %s", resp.Status, bytes.TrimSpace(data))
	}
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain; version=0.0.4") {
		return nil, fmt.Errorf("/metrics content type %q, want text/plain; version=0.0.4", ct)
	}
	fams, err := obs.CheckFamilies(string(data), keyMetricFamilies...)
	if err != nil {
		return nil, fmt.Errorf("/metrics exposition: %w", err)
	}
	return fams, nil
}

// SmokeConfig parameterizes Smoke.
type SmokeConfig struct {
	// BaseURL is the beerd server to exercise, e.g. "http://127.0.0.1:8080".
	BaseURL string
	// Jobs is how many concurrent recovery jobs to submit (default 8).
	Jobs int
	// PollInterval between status polls (default 25ms).
	PollInterval time.Duration
	// Log, when set, receives human-readable progress lines.
	Log func(format string, args ...any)
}

// Smoke is the beerd end-to-end acceptance check (make serve-smoke / CI):
// it submits N concurrent fast-window jobs against simulated
// manufacturer-B chips, polls every job's status asserting that the reported
// per-stage progress only ever advances, fetches all results, and verifies
// that every job recovered the chips' secret ECC function (the server
// compares against ground truth; the client additionally parses the
// returned codes and checks they all agree).
func Smoke(ctx context.Context, cfg SmokeConfig) error {
	if cfg.Jobs == 0 {
		cfg.Jobs = 8
	}
	if cfg.PollInterval == 0 {
		cfg.PollInterval = 25 * time.Millisecond
	}
	logf := cfg.Log
	if logf == nil {
		logf = func(string, ...any) {}
	}
	client := &http.Client{Timeout: 30 * time.Second}

	// Liveness first: a clean error beats N hanging submissions.
	if err := getJSON(ctx, client, cfg.BaseURL+"/healthz", new(map[string]any)); err != nil {
		return fmt.Errorf("healthz: %w", err)
	}

	// Submit the fleet. Distinct seeds give every job its own simulated
	// chips; same-model chips share the secret function, so all recovered
	// codes must agree. Every other job runs the adaptive planner, so the
	// smoke exercises both collection strategies against the same ground
	// truth and asserts the planner's patterns economy below.
	ids := make([]string, cfg.Jobs)
	planned := make([]bool, cfg.Jobs)
	for i := range ids {
		spec := JobSpec{
			Type:         "recover",
			Manufacturer: "B",
			K:            16,
			Chips:        1,
			Seed:         uint64(1 + i),
			Verify:       true,
			Plan:         i%2 == 1,
		}
		planned[i] = spec.Plan
		var status JobStatus
		if err := postJSON(ctx, client, cfg.BaseURL+"/api/v1/jobs", spec, &status); err != nil {
			return fmt.Errorf("submit job %d: %w", i, err)
		}
		ids[i] = status.ID
		logf("submitted %s (seed %d, plan %v)", status.ID, spec.Seed, spec.Plan)
	}

	// Job 0 is consumed over its SSE stream instead of the poll loop, so
	// the smoke exercises the push path end to end; the rest poll.
	sseCh := make(chan error, 1)
	go func() {
		st, err := consumeSSE(ctx, cfg.BaseURL, ids[0])
		if err == nil && st.State != StateSucceeded {
			err = fmt.Errorf("finished %s: %s", st.State, st.Error)
		}
		if err == nil && (st.Progress.Updates == 0 || !st.Progress.Solve.Done) {
			err = fmt.Errorf("done event with incomplete progress: %+v", st.Progress)
		}
		if err == nil {
			logf("%s consumed via SSE to completion (%d progress updates)", ids[0], st.Progress.Updates)
		}
		sseCh <- err
	}()

	// Poll the remaining jobs to completion, asserting monotonic progress.
	type watch struct {
		lastUpdates  int64
		lastDiscover int64
		lastCollect  int64
		lastSolve    int64
		done         bool
	}
	watches := make([]watch, len(ids))
	watches[0].done = true
	pending := len(ids) - 1
	for pending > 0 {
		select {
		case <-ctx.Done():
			return ctx.Err()
		case <-time.After(cfg.PollInterval):
		}
		for i, id := range ids {
			if watches[i].done {
				continue
			}
			var st JobStatus
			if err := getJSON(ctx, client, cfg.BaseURL+"/api/v1/jobs/"+id, &st); err != nil {
				return fmt.Errorf("status %s: %w", id, err)
			}
			w := &watches[i]
			p := st.Progress
			if p.Updates < w.lastUpdates ||
				p.Discover.Count < w.lastDiscover ||
				p.Collect.Count < w.lastCollect ||
				p.Solve.Count < w.lastSolve {
				return fmt.Errorf("%s: progress went backwards: %+v after updates=%d discover=%d collect=%d solve=%d",
					id, p, w.lastUpdates, w.lastDiscover, w.lastCollect, w.lastSolve)
			}
			w.lastUpdates = p.Updates
			w.lastDiscover = p.Discover.Count
			w.lastCollect = p.Collect.Count
			w.lastSolve = p.Solve.Count
			if st.State.Terminal() {
				if st.State != StateSucceeded {
					return fmt.Errorf("%s finished %s: %s", id, st.State, st.Error)
				}
				if p.Updates == 0 || p.Collect.Count == 0 {
					return fmt.Errorf("%s succeeded without reporting progress: %+v", id, p)
				}
				if !p.Discover.Done || !p.Collect.Done || !p.Solve.Done {
					return fmt.Errorf("%s succeeded with unfinished stages: %+v", id, p)
				}
				w.done = true
				pending--
				logf("%s succeeded after %d progress updates (%d collection passes)",
					id, p.Updates, p.Collect.Count)
			}
		}
	}

	select {
	case <-ctx.Done():
		return ctx.Err()
	case err := <-sseCh:
		if err != nil {
			return fmt.Errorf("sse %s: %w", ids[0], err)
		}
	}

	// Fetch results: every job must have recovered the unique secret
	// function, matching ground truth, and all codes must agree. Planned
	// jobs must additionally have stopped collecting before the full sweep.
	var reference *ecc.Code
	for i, id := range ids {
		var res JobResult
		if err := getJSON(ctx, client, cfg.BaseURL+"/api/v1/jobs/"+id+"/result", &res); err != nil {
			return fmt.Errorf("result %s: %w", id, err)
		}
		rec := res.Recover
		if rec == nil {
			return fmt.Errorf("%s: result carries no recovery payload", id)
		}
		if !rec.Unique {
			return fmt.Errorf("%s: expected a unique ECC function, got %d candidates", id, rec.Candidates)
		}
		if rec.GroundTruthMatch == nil || !*rec.GroundTruthMatch {
			return fmt.Errorf("%s: recovered function does not match ground truth", id)
		}
		if planned[i] {
			if rec.PatternsUsed == 0 || rec.PatternsFull == 0 {
				return fmt.Errorf("%s: planned job reported no pattern counts: %+v", id, rec)
			}
			if rec.PatternsUsed >= rec.PatternsFull {
				return fmt.Errorf("%s: planner used %d of %d patterns; expected strictly fewer than the full sweep",
					id, rec.PatternsUsed, rec.PatternsFull)
			}
			logf("%s: planner used %d of %d patterns", id, rec.PatternsUsed, rec.PatternsFull)
		}
		code := new(ecc.Code)
		if err := code.UnmarshalText([]byte(rec.Code)); err != nil {
			return fmt.Errorf("%s: unparseable recovered code: %w", id, err)
		}
		if reference == nil {
			reference = code
		} else if !code.EquivalentTo(reference) {
			return fmt.Errorf("%s: recovered a different function than the other jobs", id)
		}
	}
	truth := repro.GroundTruth(repro.SimulatedChip(repro.MfrB, 16, 1))
	if !reference.EquivalentTo(truth) {
		return fmt.Errorf("recovered codes do not match the client-side ground truth")
	}
	logf("all %d jobs recovered the secret ECC function (H verified against ground truth)", cfg.Jobs)

	if err := noiseSmoke(ctx, client, cfg, logf, truth); err != nil {
		return err
	}

	// Exposition check last, when every family has real samples: /metrics
	// must parse and the run's work must be visible in the counters.
	fams, err := metricsSmoke(ctx, client, cfg.BaseURL)
	if err != nil {
		return err
	}
	if v := familyTotal(fams, "beerd_jobs_completed_total"); v < float64(cfg.Jobs+1) {
		return fmt.Errorf("/metrics reports %.0f completed jobs, want >= %d", v, cfg.Jobs+1)
	}
	if v := familyTotal(fams, "beerd_sse_streams_total"); v < 1 {
		return fmt.Errorf("/metrics reports no SSE streams despite the smoke consuming one")
	}
	logf("metrics: exposition valid, %.0f jobs on the counters", familyTotal(fams, "beerd_jobs_completed_total"))
	return nil
}

// familyTotal sums a family's plain samples (for histograms, pass the base
// family of interest and read buckets yourself; the smoke only totals
// counters and gauges).
func familyTotal(fams map[string]*obs.Family, name string) float64 {
	f, ok := fams[name]
	if !ok {
		return 0
	}
	var total float64
	for _, s := range f.Samples {
		if s.Name == name {
			total += s.Value
		}
	}
	return total
}

// consumeSSE reads one job's /events stream to its terminal frame — the
// push-path counterpart of the poll loop, with the same monotonicity
// assertion. It returns the terminal status from the done event.
func consumeSSE(ctx context.Context, base, id string) (JobStatus, error) {
	var st JobStatus
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, base+"/api/v1/jobs/"+id+"/events", nil)
	if err != nil {
		return st, err
	}
	// A dedicated client without a global timeout: the stream legitimately
	// lives as long as the job; ctx bounds it instead.
	resp, err := (&http.Client{}).Do(req)
	if err != nil {
		return st, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return st, fmt.Errorf("GET /events: %s", resp.Status)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/event-stream") {
		return st, fmt.Errorf("/events content type %q, want text/event-stream", ct)
	}

	scanner := bufio.NewScanner(resp.Body)
	scanner.Buffer(make([]byte, 0, 64*1024), 1<<20)
	event := ""
	lastUpdates := int64(-1)
	for scanner.Scan() {
		line := scanner.Text()
		switch {
		case line == "":
			if event == "" {
				continue // keep-alive terminator
			}
			if st.Progress.Updates < lastUpdates {
				return st, fmt.Errorf("progress went backwards on the stream (%d < %d)", st.Progress.Updates, lastUpdates)
			}
			lastUpdates = st.Progress.Updates
			if event == "done" {
				if !st.State.Terminal() {
					return st, fmt.Errorf("done event with non-terminal state %s", st.State)
				}
				return st, nil
			}
			event = ""
		case strings.HasPrefix(line, ":"): // keep-alive comment
		case strings.HasPrefix(line, "id: "):
		case strings.HasPrefix(line, "event: "):
			event = strings.TrimPrefix(line, "event: ")
		case strings.HasPrefix(line, "data: "):
			if err := json.Unmarshal([]byte(strings.TrimPrefix(line, "data: ")), &st); err != nil {
				return st, fmt.Errorf("bad event data: %w", err)
			}
		default:
			return st, fmt.Errorf("unexpected stream line %q", line)
		}
	}
	return st, fmt.Errorf("stream ended without a done event (read error: %v)", scanner.Err())
}

// noiseSmoke exercises the confidence-weighted recovery path end to end: it
// submits one job whose profile is perturbed with a mild PBEM-style
// false-positive rate, waits for the drop-k solver to retract the corrupted
// entries, and asserts that the result JSON carries the "noise" block —
// confidence, margin and dropped-entry accounting — that the CLI and
// dashboards read, and that the recovered function still matches ground
// truth.
func noiseSmoke(ctx context.Context, client *http.Client, cfg SmokeConfig, logf func(string, ...any), truth *ecc.Code) error {
	spec := JobSpec{
		Type:         "recover",
		Manufacturer: "B",
		K:            16,
		Seed:         1,
		Verify:       true,
		NoiseFP:      0.002,
	}
	var status JobStatus
	if err := postJSON(ctx, client, cfg.BaseURL+"/api/v1/jobs", spec, &status); err != nil {
		return fmt.Errorf("submit noisy job: %w", err)
	}
	id := status.ID
	logf("submitted %s (noise_fp=%g)", id, spec.NoiseFP)

	for {
		select {
		case <-ctx.Done():
			return ctx.Err()
		case <-time.After(cfg.PollInterval):
		}
		var st JobStatus
		if err := getJSON(ctx, client, cfg.BaseURL+"/api/v1/jobs/"+id, &st); err != nil {
			return fmt.Errorf("status %s: %w", id, err)
		}
		if !st.State.Terminal() {
			continue
		}
		if st.State != StateSucceeded {
			return fmt.Errorf("noisy job %s finished %s: %s", id, st.State, st.Error)
		}
		// The live progress stream must have carried the drop-k telemetry.
		if st.Progress.Solver.EntriesDropped == 0 {
			return fmt.Errorf("noisy job %s: progress reported no dropped entries", id)
		}
		if c := st.Progress.Solver.Confidence; c <= 0 || c > 1 {
			return fmt.Errorf("noisy job %s: progress confidence %v out of (0, 1]", id, c)
		}
		break
	}

	var res JobResult
	if err := getJSON(ctx, client, cfg.BaseURL+"/api/v1/jobs/"+id+"/result", &res); err != nil {
		return fmt.Errorf("result %s: %w", id, err)
	}
	rec := res.Recover
	if rec == nil || rec.Noise == nil {
		return fmt.Errorf("%s: noisy result carries no noise block", id)
	}
	n := rec.Noise
	if n.Total != n.Retained+n.Dropped {
		return fmt.Errorf("%s: noise accounting does not add up: %+v", id, n)
	}
	if n.Dropped == 0 || len(n.DroppedEntries) != n.Dropped {
		return fmt.Errorf("%s: expected dropped false-positive entries, got %+v", id, n)
	}
	if n.Confidence <= 0 || n.Confidence >= 1 {
		return fmt.Errorf("%s: confidence %v out of (0, 1) for a lossy recovery", id, n.Confidence)
	}
	if !rec.Unique {
		return fmt.Errorf("%s: expected a unique function after drop-k, got %d candidates", id, rec.Candidates)
	}
	if rec.GroundTruthMatch == nil || !*rec.GroundTruthMatch {
		return fmt.Errorf("%s: noisy recovery does not match ground truth", id)
	}
	code := new(ecc.Code)
	if err := code.UnmarshalText([]byte(rec.Code)); err != nil {
		return fmt.Errorf("%s: unparseable recovered code: %w", id, err)
	}
	if !code.EquivalentTo(truth) {
		return fmt.Errorf("%s: noisy recovery does not match the client-side ground truth", id)
	}

	// Assert on the raw wire format too: the "confidence" field must be
	// present in the result JSON regardless of how the typed structs evolve.
	var raw map[string]any
	if err := getJSON(ctx, client, cfg.BaseURL+"/api/v1/jobs/"+id+"/result", &raw); err != nil {
		return fmt.Errorf("raw result %s: %w", id, err)
	}
	recRaw, _ := raw["recover"].(map[string]any)
	noiseRaw, _ := recRaw["noise"].(map[string]any)
	if noiseRaw == nil {
		return fmt.Errorf("%s: result JSON carries no recover.noise object", id)
	}
	if _, ok := noiseRaw["confidence"]; !ok {
		return fmt.Errorf("%s: result JSON carries no confidence field", id)
	}
	logf("%s: drop-k retracted %d/%d entries, confidence %.3f, margin %.3f (H verified against ground truth)",
		id, n.Dropped, n.Total, n.Confidence, n.Margin)
	return nil
}

func postJSON(ctx context.Context, client *http.Client, url string, body, out any) error {
	payload, err := json.Marshal(body)
	if err != nil {
		return err
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, url, bytes.NewReader(payload))
	if err != nil {
		return err
	}
	req.Header.Set("Content-Type", "application/json")
	return doJSON(client, req, out)
}

func getJSON(ctx context.Context, client *http.Client, url string, out any) error {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, url, nil)
	if err != nil {
		return err
	}
	return doJSON(client, req, out)
}

func doJSON(client *http.Client, req *http.Request, out any) error {
	resp, err := client.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(io.LimitReader(resp.Body, maxBodyBytes))
	if err != nil {
		return err
	}
	if resp.StatusCode >= 300 {
		return fmt.Errorf("%s %s: %s: %s", req.Method, req.URL.Path, resp.Status, bytes.TrimSpace(data))
	}
	if out == nil {
		return nil
	}
	return json.Unmarshal(data, out)
}
