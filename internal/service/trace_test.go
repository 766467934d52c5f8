package service

import (
	"bytes"
	"net/http"
	"testing"
	"time"

	"repro/internal/obs"
)

// TestSubmitAdoptsTraceparent: a submission's traceparent header, read by
// the handler itself when no middleware runs, parents the job's spans on
// the caller's trace. The header is untrusted input, so a malformed or
// all-zero value must be ignored and the job must start a fresh trace.
func TestSubmitAdoptsTraceparent(t *testing.T) {
	srv, ts := newTestServer(t)
	const (
		wantTrace  = "4bf92f3577b34da6a3ce929d0e0e4736"
		wantParent = "00f067aa0ba902b7"
	)
	spec := []byte(`{"type":"simulate","words":1000}`)
	for _, tc := range []struct {
		name, header string
		adopt        bool
	}{
		{"valid", "00-" + wantTrace + "-" + wantParent + "-01", true},
		{"all-zero trace", "00-00000000000000000000000000000000-" + wantParent + "-01", false},
		{"garbage", "00-" + wantTrace + "-zz-01", false},
	} {
		req, err := http.NewRequest(http.MethodPost, ts.URL+"/api/v1/jobs", bytes.NewReader(spec))
		if err != nil {
			t.Fatal(err)
		}
		req.Header.Set(obs.TraceparentHeader, tc.header)
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		var body bytes.Buffer
		_, err = body.ReadFrom(resp.Body)
		resp.Body.Close()
		if err != nil {
			t.Fatalf("%s: read submit response: %v", tc.name, err)
		}
		if resp.StatusCode != http.StatusAccepted {
			t.Fatalf("%s: submit: %s: %s", tc.name, resp.Status, body.Bytes())
		}
		id := decode[JobStatus](t, body.Bytes()).ID
		if final := waitTerminal(t, ts.URL, id); final.State != StateSucceeded {
			t.Fatalf("%s: job finished %s: %s", tc.name, final.State, final.Error)
		}

		// The root span ends just after the terminal state is published.
		var root obs.SpanData
		for deadline := time.Now().Add(5 * time.Second); time.Now().Before(deadline); time.Sleep(5 * time.Millisecond) {
			for _, sp := range srv.hub.Tracer.Spans() {
				if sp.Name == "beerd.job" && sp.Attrs["job_id"] == id {
					root = sp
				}
			}
			if root.Name != "" {
				break
			}
		}
		if root.Name == "" {
			t.Fatalf("%s: no beerd.job span for %s", tc.name, id)
		}
		adopted := root.TraceID == wantTrace && root.ParentID == wantParent
		if adopted != tc.adopt {
			t.Fatalf("%s: root span trace %s parent %q, adopt = %t", tc.name, root.TraceID, root.ParentID, tc.adopt)
		}
		if !tc.adopt && root.ParentID != "" {
			t.Fatalf("%s: root span has parent %q, want a fresh trace", tc.name, root.ParentID)
		}
		var exec bool
		for _, sp := range srv.hub.Tracer.Spans() {
			exec = exec || (sp.Name == "local.execute" && sp.TraceID == root.TraceID && sp.ParentID == root.SpanID)
		}
		if !exec {
			t.Fatalf("%s: no local.execute span under the job's root span", tc.name)
		}
	}
}
