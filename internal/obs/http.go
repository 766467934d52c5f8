package obs

import (
	"encoding/json"
	"fmt"
	"log/slog"
	"net/http"
	"strings"
	"time"
)

// statusWriter captures the response status for the request log and metrics
// while passing Flush through — SSE handlers downstream of the middleware
// need the http.Flusher of the underlying ResponseWriter.
type statusWriter struct {
	http.ResponseWriter
	status int
}

func (w *statusWriter) WriteHeader(code int) {
	if w.status == 0 {
		w.status = code
	}
	w.ResponseWriter.WriteHeader(code)
}

func (w *statusWriter) Write(p []byte) (int, error) {
	if w.status == 0 {
		w.status = http.StatusOK
	}
	return w.ResponseWriter.Write(p)
}

func (w *statusWriter) Flush() {
	if f, ok := w.ResponseWriter.(http.Flusher); ok {
		f.Flush()
	}
}

// quietPath reports request lines logged at Debug instead of Info: scrape
// and poll endpoints that fire several times a second and would drown the
// log at default level. Submissions, cancels and every non-2xx response
// stay at Info.
func quietPath(method, path string) bool {
	if method != http.MethodGet {
		return false
	}
	switch path {
	case "/metrics", "/healthz", "/debug/traces":
		return true
	}
	// Status polls: GET /api/v1/jobs and GET /api/v1/jobs/{id}.
	return strings.HasPrefix(path, "/api/v1/jobs") && !strings.HasSuffix(path, "/result")
}

// Middleware wraps an HTTP handler with the hub's request instrumentation:
// it parses an inbound traceparent header into the request context (so
// handlers can parent their spans on the caller's), logs a structured
// request line with the trace id, and counts requests and latency into
// beerd_http_requests_total / beerd_http_request_seconds.
func (h *Hub) Middleware(next http.Handler) http.Handler {
	requests := h.Metrics.CounterVec("beerd_http_requests_total",
		"HTTP requests served, by method and status class.", "method", "code")
	latency := h.Metrics.Histogram("beerd_http_request_seconds",
		"HTTP request latency in seconds.", nil)
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		sc, _ := ParseTraceparent(r.Header.Get(TraceparentHeader))
		if sc.Valid() {
			r = r.WithContext(ContextWithSpan(r.Context(), sc))
		}
		sw := &statusWriter{ResponseWriter: w}
		next.ServeHTTP(sw, r)
		status := sw.status
		if status == 0 {
			status = http.StatusOK
		}
		elapsed := time.Since(start)
		requests.With(r.Method, fmt.Sprintf("%dxx", status/100)).Inc()
		latency.Observe(elapsed.Seconds())

		attrs := []any{
			slog.String("method", r.Method),
			slog.String("path", r.URL.Path),
			slog.Int("status", status),
			slog.Duration("dur", elapsed),
		}
		if sc.Valid() {
			attrs = append(attrs, slog.String("trace_id", sc.Trace.String()))
		}
		level := slog.LevelInfo
		if quietPath(r.Method, r.URL.Path) && status < 400 {
			level = slog.LevelDebug
		}
		h.Log.LogAttrs(r.Context(), level, "http request", toAttrs(attrs)...)
	})
}

func toAttrs(kv []any) []slog.Attr {
	out := make([]slog.Attr, 0, len(kv))
	for _, a := range kv {
		if attr, ok := a.(slog.Attr); ok {
			out = append(out, attr)
		}
	}
	return out
}

// SSEWriter streams Server-Sent Events over an http.ResponseWriter,
// flushing after every event so clients see progress immediately.
type SSEWriter struct {
	w http.ResponseWriter
	f http.Flusher
}

// NewSSE prepares w for an event stream (headers + immediate flush). It
// fails when the ResponseWriter cannot stream (no http.Flusher).
func NewSSE(w http.ResponseWriter) (*SSEWriter, error) {
	f, ok := w.(http.Flusher)
	if !ok {
		return nil, fmt.Errorf("response writer does not support streaming")
	}
	h := w.Header()
	h.Set("Content-Type", "text/event-stream")
	h.Set("Cache-Control", "no-cache")
	h.Set("Connection", "keep-alive")
	h.Set("X-Accel-Buffering", "no")
	w.WriteHeader(http.StatusOK)
	f.Flush()
	return &SSEWriter{w: w, f: f}, nil
}

// Event writes one event: `id:`, `event:`, a JSON-encoded `data:` line and
// the blank terminator, then flushes.
func (s *SSEWriter) Event(id int64, event string, data any) error {
	payload, err := json.Marshal(data)
	if err != nil {
		return err
	}
	if _, err := fmt.Fprintf(s.w, "id: %d\nevent: %s\ndata: %s\n\n", id, event, payload); err != nil {
		return err
	}
	s.f.Flush()
	return nil
}

// Comment writes an SSE comment line — the keep-alive heartbeat clients
// ignore but proxies see as traffic.
func (s *SSEWriter) Comment(text string) error {
	if _, err := fmt.Fprintf(s.w, ": %s\n\n", text); err != nil {
		return err
	}
	s.f.Flush()
	return nil
}
