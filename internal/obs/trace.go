package obs

import (
	"context"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math/rand/v2"
	"net/http"
	"sync"
	"time"
)

// TraceID identifies one end-to-end job trace; every span of the job — the
// job's root, its execution and its stages — carries the same TraceID.
type TraceID [16]byte

// isZero reports whether the id is the invalid all-zero id.
func (t TraceID) isZero() bool { return t == TraceID{} }

// String renders the id as 32 lowercase hex digits.
func (t TraceID) String() string { return hex.EncodeToString(t[:]) }

// spanID identifies one span within a trace.
type spanID [8]byte

// isZero reports whether the id is the invalid all-zero id.
func (s spanID) isZero() bool { return s == spanID{} }

// String renders the id as 16 lowercase hex digits.
func (s spanID) String() string { return hex.EncodeToString(s[:]) }

// SpanContext is the propagated slice of a span: enough to parent a child
// span in another goroutine or another process.
type SpanContext struct {
	Trace TraceID
	Span  spanID
}

// Valid reports whether both ids are nonzero.
func (sc SpanContext) Valid() bool { return !sc.Trace.isZero() && !sc.Span.isZero() }

// TraceparentHeader is the HTTP header spans propagate through, following
// the W3C Trace Context format: 00-<32 hex trace-id>-<16 hex parent-id>-<2
// hex flags>.
const TraceparentHeader = "traceparent"

// ParseTraceparent parses a traceparent header value. It accepts any
// version except the reserved ff, and rejects all-zero ids per the spec.
func ParseTraceparent(h string) (SpanContext, error) {
	var sc SpanContext
	if len(h) < 55 {
		return sc, fmt.Errorf("traceparent too short: %q", h)
	}
	if h[2] != '-' || h[35] != '-' || h[52] != '-' {
		return sc, fmt.Errorf("malformed traceparent %q", h)
	}
	version := h[:2]
	if _, err := hex.DecodeString(version); err != nil || version == "ff" {
		return sc, fmt.Errorf("bad traceparent version %q", version)
	}
	if version == "00" && len(h) != 55 {
		return sc, fmt.Errorf("traceparent version 00 must be 55 chars, got %d", len(h))
	}
	if _, err := hex.Decode(sc.Trace[:], []byte(h[3:35])); err != nil {
		return SpanContext{}, fmt.Errorf("bad trace-id in %q", h)
	}
	if _, err := hex.Decode(sc.Span[:], []byte(h[36:52])); err != nil {
		return SpanContext{}, fmt.Errorf("bad parent-id in %q", h)
	}
	if _, err := hex.DecodeString(h[53:55]); err != nil {
		return SpanContext{}, fmt.Errorf("bad flags in %q", h)
	}
	if !sc.Valid() {
		return SpanContext{}, fmt.Errorf("all-zero id in %q", h)
	}
	return sc, nil
}

type ctxKey struct{}

// contextWithSpan returns ctx carrying sc, for in-process propagation
// (middleware → handler → submit).
func contextWithSpan(ctx context.Context, sc SpanContext) context.Context {
	return context.WithValue(ctx, ctxKey{}, sc)
}

// SpanContextFrom extracts the span context carried by ctx, if any.
func SpanContextFrom(ctx context.Context) SpanContext {
	sc, _ := ctx.Value(ctxKey{}).(SpanContext)
	return sc
}

// SpanData is one finished span as stored in the ring buffer and dumped by
// GET /debug/traces.
type SpanData struct {
	TraceID    string            `json:"trace_id"`
	SpanID     string            `json:"span_id"`
	ParentID   string            `json:"parent_id,omitempty"`
	Name       string            `json:"name"`
	Start      time.Time         `json:"start"`
	DurationMS float64           `json:"duration_ms"`
	Attrs      map[string]string `json:"attrs,omitempty"`
	Error      string            `json:"error,omitempty"`
}

// Tracer mints spans and retains the most recent finished ones in a fixed
// ring buffer. A nil *Tracer is valid and discards everything, as is a nil
// *Span — callers never need nil checks.
type Tracer struct {
	mu      sync.Mutex
	buf     []SpanData
	next    int
	total   uint64
	dropped uint64
}

// newTracer builds a tracer retaining up to capacity finished spans.
func newTracer(capacity int) *Tracer {
	if capacity <= 0 {
		capacity = defaultTraceCapacity
	}
	return &Tracer{buf: make([]SpanData, 0, capacity)}
}

func randTraceID() TraceID {
	var id TraceID
	for id.isZero() {
		hi, lo := rand.Uint64(), rand.Uint64()
		for i := 0; i < 8; i++ {
			id[i] = byte(hi >> (8 * i))
			id[8+i] = byte(lo >> (8 * i))
		}
	}
	return id
}

func randSpanID() spanID {
	var id spanID
	for id.isZero() {
		v := rand.Uint64()
		for i := 0; i < 8; i++ {
			id[i] = byte(v >> (8 * i))
		}
	}
	return id
}

// Span is one in-flight operation. Methods are nil-safe and (except End)
// must be called from one goroutine or externally synchronized.
type Span struct {
	tracer *Tracer
	sc     SpanContext
	data   SpanData

	mu    sync.Mutex
	ended bool
	start time.Time
}

// StartSpan starts a span. A valid parent makes the new span its child
// (same TraceID); otherwise a fresh trace is minted. Nil tracers return a
// nil span, which absorbs all calls.
func (t *Tracer) StartSpan(parent SpanContext, name string) *Span {
	if t == nil {
		return nil
	}
	sc := SpanContext{Span: randSpanID()}
	parentID := ""
	if parent.Valid() {
		sc.Trace = parent.Trace
		parentID = parent.Span.String()
	} else {
		sc.Trace = randTraceID()
	}
	now := time.Now()
	return &Span{
		tracer: t,
		sc:     sc,
		start:  now,
		data: SpanData{
			TraceID:  sc.Trace.String(),
			SpanID:   sc.Span.String(),
			ParentID: parentID,
			Name:     name,
			Start:    now,
		},
	}
}

// Context returns the span's propagation context (zero for a nil span).
func (s *Span) Context() SpanContext {
	if s == nil {
		return SpanContext{}
	}
	return s.sc
}

// SetAttr attaches a key/value attribute.
func (s *Span) SetAttr(key, value string) {
	if s == nil {
		return
	}
	s.mu.Lock()
	if s.data.Attrs == nil {
		s.data.Attrs = make(map[string]string)
	}
	s.data.Attrs[key] = value
	s.mu.Unlock()
}

// SetError records err on the span (no-op for nil errors).
func (s *Span) SetError(err error) {
	if s == nil || err == nil {
		return
	}
	s.mu.Lock()
	s.data.Error = err.Error()
	s.mu.Unlock()
}

// End finishes the span and commits it to the tracer's ring buffer.
// Idempotent: only the first End records.
func (s *Span) End() {
	if s == nil {
		return
	}
	s.mu.Lock()
	if s.ended {
		s.mu.Unlock()
		return
	}
	s.ended = true
	s.data.DurationMS = float64(time.Since(s.start)) / float64(time.Millisecond)
	data := s.data
	if data.Attrs != nil {
		attrs := make(map[string]string, len(data.Attrs))
		for k, v := range data.Attrs {
			attrs[k] = v
		}
		data.Attrs = attrs
	}
	s.mu.Unlock()
	s.tracer.record(data)
}

func (t *Tracer) record(d SpanData) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.total++
	if len(t.buf) < cap(t.buf) {
		t.buf = append(t.buf, d)
		return
	}
	t.buf[t.next] = d
	t.next = (t.next + 1) % len(t.buf)
	t.dropped++
}

// Spans returns the retained finished spans, oldest first.
func (t *Tracer) Spans() []SpanData {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make([]SpanData, 0, len(t.buf))
	out = append(out, t.buf[t.next:]...)
	out = append(out, t.buf[:t.next]...)
	return out
}

// traceDump is the GET /debug/traces response body.
type traceDump struct {
	Capacity int        `json:"capacity"`
	Recorded uint64     `json:"recorded"`
	Dropped  uint64     `json:"dropped"`
	Spans    []SpanData `json:"spans"` // newest first
}

// Handler serves GET /debug/traces: a JSON dump of the span ring buffer,
// newest span first. `?trace_id=<32 hex>` filters to one trace.
func (t *Tracer) Handler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		spans := t.Spans()
		// Reverse: newest first reads best when debugging the recent past.
		for i, j := 0, len(spans)-1; i < j; i, j = i+1, j-1 {
			spans[i], spans[j] = spans[j], spans[i]
		}
		if want := r.URL.Query().Get("trace_id"); want != "" {
			filtered := spans[:0]
			for _, s := range spans {
				if s.TraceID == want {
					filtered = append(filtered, s)
				}
			}
			spans = filtered
		}
		t.mu.Lock()
		dump := traceDump{Capacity: cap(t.buf), Recorded: t.total, Dropped: t.dropped, Spans: spans}
		t.mu.Unlock()
		w.Header().Set("Content-Type", "application/json")
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		enc.Encode(dump)
	})
}
