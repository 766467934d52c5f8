package service

import (
	"bufio"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"repro"
	"repro/internal/obs"
)

// TestMetricsExposition: after one successful recovery job, GET /metrics
// serves grammatically valid Prometheus text whose key families carry the
// job's signals — the golden test for the exposition contract.
func TestMetricsExposition(t *testing.T) {
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
	if st := waitTerminal(t, ts.URL, id); st.State != StateSucceeded {
		t.Fatalf("job finished %s: %s", st.State, st.Error)
	}

	resp, body = do(t, http.MethodGet, ts.URL+"/metrics", nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /metrics: %s", resp.Status)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain; version=0.0.4") {
		t.Fatalf("content type %q, want text/plain; version=0.0.4", ct)
	}
	fams, err := obs.CheckFamilies(string(body), keyMetricFamilies...)
	if err != nil {
		t.Fatalf("exposition: %v", err)
	}

	// The completed job must be visible in the families, not just named.
	sampleValue := func(family, sample string, labels map[string]string) float64 {
		t.Helper()
		f, ok := fams[family]
		if !ok {
			t.Fatalf("family %s missing", family)
		}
	next:
		for _, s := range f.Samples {
			if s.Name != sample {
				continue
			}
			for k, v := range labels {
				if s.Labels[k] != v {
					continue next
				}
			}
			return s.Value
		}
		t.Fatalf("no sample %s%v in family %s", sample, labels, family)
		return 0
	}
	if v := sampleValue("beerd_jobs_submitted_total", "beerd_jobs_submitted_total",
		map[string]string{"type": "recover"}); v < 1 {
		t.Fatalf("jobs_submitted{type=recover} = %v, want >= 1", v)
	}
	if v := sampleValue("beerd_jobs_completed_total", "beerd_jobs_completed_total",
		map[string]string{"type": "recover", "state": "succeeded"}); v < 1 {
		t.Fatalf("jobs_completed{recover,succeeded} = %v, want >= 1", v)
	}
	if v := sampleValue("beerd_recover_stage_seconds", "beerd_recover_stage_seconds_count",
		map[string]string{"stage": "solve"}); v < 1 {
		t.Fatalf("recover_stage_seconds_count{stage=solve} = %v, want >= 1", v)
	}
	if v := sampleValue("beerd_solve_cache_lookups_total", "beerd_solve_cache_lookups_total", nil); v < 1 {
		t.Fatalf("solve_cache_lookups = %v, want >= 1", v)
	}
	if v := sampleValue("beerd_store_op_seconds", "beerd_store_op_seconds_count",
		map[string]string{"op": "put"}); v < 1 {
		t.Fatalf("store_op_seconds_count{op=put} = %v, want >= 1", v)
	}
}

// sseEvent is one parsed SSE frame from the /events stream.
type sseEvent struct {
	id    string
	event string
	data  JobStatus
}

// readSSE consumes a /jobs/{id}/events stream to its terminal event.
func readSSE(t *testing.T, url string) []sseEvent {
	t.Helper()
	client := &http.Client{Timeout: 2 * time.Minute}
	resp, err := client.Get(url)
	if err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s: %s", url, resp.Status)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/event-stream") {
		t.Fatalf("content type %q, want text/event-stream", ct)
	}

	var events []sseEvent
	var cur sseEvent
	scanner := bufio.NewScanner(resp.Body)
	scanner.Buffer(make([]byte, 0, 64*1024), 1<<20)
	for scanner.Scan() {
		line := scanner.Text()
		switch {
		case line == "":
			if cur.event != "" {
				events = append(events, cur)
				if cur.event == "done" {
					return events
				}
				cur = sseEvent{}
			}
		case strings.HasPrefix(line, ":"):
			// keep-alive comment
		case strings.HasPrefix(line, "id: "):
			cur.id = strings.TrimPrefix(line, "id: ")
		case strings.HasPrefix(line, "event: "):
			cur.event = strings.TrimPrefix(line, "event: ")
		case strings.HasPrefix(line, "data: "):
			if err := json.Unmarshal([]byte(strings.TrimPrefix(line, "data: ")), &cur.data); err != nil {
				t.Fatalf("bad SSE data: %v", err)
			}
		default:
			t.Fatalf("unexpected SSE line %q", line)
		}
	}
	t.Fatalf("stream ended without a done event (%d events, scan err %v)", len(events), scanner.Err())
	return nil
}

// TestJobEventsSSE: the event stream replaces the poll loop — submit a
// job, consume GET /jobs/{id}/events to completion, and verify progress
// never steps backwards and the stream terminates with one done event
// carrying the terminal status.
func TestJobEventsSSE(t *testing.T) {
	srv := New(repro.NewEngine(2))
	defer srv.Close()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	resp, body := do(t, http.MethodPost, ts.URL+"/api/v1/jobs",
		JobSpec{Type: "recover", Manufacturer: "B", K: 8, Chips: 2, Verify: true})
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit: %s: %s", resp.Status, body)
	}
	id := decode[JobStatus](t, body).ID

	events := readSSE(t, ts.URL+"/api/v1/jobs/"+id+"/events")
	if len(events) == 0 {
		t.Fatal("no events")
	}
	last := events[len(events)-1]
	if last.event != "done" {
		t.Fatalf("stream ended with event %q, want done", last.event)
	}
	if last.data.State != StateSucceeded {
		t.Fatalf("terminal state %s: %s", last.data.State, last.data.Error)
	}
	for i, ev := range events {
		if i > 0 && ev.data.Progress.Updates < events[i-1].data.Progress.Updates {
			t.Fatalf("progress stepped backwards at event %d: %d -> %d",
				i, events[i-1].data.Progress.Updates, ev.data.Progress.Updates)
		}
		if i < len(events)-1 && ev.event != "progress" {
			t.Fatalf("event %d is %q, want progress", i, ev.event)
		}
	}

	// A job that is already terminal yields exactly one done event.
	events = readSSE(t, ts.URL+"/api/v1/jobs/"+id+"/events")
	if len(events) != 1 || events[0].event != "done" {
		t.Fatalf("terminal job stream: %d events, first %q; want exactly one done", len(events), events[0].event)
	}
}
