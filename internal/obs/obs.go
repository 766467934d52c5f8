// Package obs is beerd's zero-dependency observability core: a
// Prometheus-text-format metrics registry (counters, gauges, classic-bucket
// histograms with atomic hot paths), lightweight W3C-traceparent-style trace
// spans collected in a ring buffer, structured logging via log/slog, an SSE
// event-stream writer, and HTTP plumbing (middleware, /metrics,
// /debug/traces, and an opt-in pprof debug mux).
//
// Everything hangs off a Hub, one per process: the service layer and
// cmd/beerd's HTTP middleware share the same Hub, so one scrape of GET
// /metrics sees every subsystem and one job's spans — the caller's
// traceparent, the job, its stages — stitch under a single TraceID. All
// types are safe for concurrent use; increments on the hot
// path are single atomic ops (see BenchmarkMetricsHotPath).
package obs

import (
	"io"
	"log/slog"
)

// defaultTraceCapacity is the span ring-buffer size a Hub is built with.
const defaultTraceCapacity = 512

// Hub bundles the three observability facilities a beerd process shares
// across its subsystems. Fields are never nil.
type Hub struct {
	Metrics *Registry
	Tracer  *Tracer
	Log     *slog.Logger
}

// NewHub builds a Hub with a fresh metrics registry (runtime metrics
// pre-registered) and span ring buffer. A nil logger discards log output —
// the right default for embedded/test servers; cmd/beerd passes a real one.
func NewHub(logger *slog.Logger) *Hub {
	if logger == nil {
		logger = slog.New(slog.NewTextHandler(io.Discard, nil))
	}
	h := &Hub{
		Metrics: newRegistry(),
		Tracer:  newTracer(defaultTraceCapacity),
		Log:     logger,
	}
	registerRuntimeMetrics(h.Metrics)
	return h
}
