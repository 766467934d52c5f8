package obs

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http/httptest"
	"testing"
)

// traceparent renders sc as a traceparent header value (sampled flag
// set).
func traceparent(sc SpanContext) string {
	return fmt.Sprintf("00-%s-%s-01", sc.Trace, sc.Span)
}

func TestTraceparentRoundTrip(t *testing.T) {
	tr := newTracer(8)
	root := tr.StartSpan(SpanContext{}, "root")
	h := traceparent(root.Context())
	sc, err := ParseTraceparent(h)
	if err != nil {
		t.Fatalf("ParseTraceparent(%q): %v", h, err)
	}
	if sc != root.Context() {
		t.Errorf("round trip: got %+v, want %+v", sc, root.Context())
	}

	for _, bad := range []string{
		"",
		"00-xyz",
		"00-00000000000000000000000000000000-0000000000000000-01",
		"ff-0af7651916cd43dd8448eb211c80319c-b7ad6b7169203331-01",
		"00-0af7651916cd43dd8448eb211c80319c-b7ad6b7169203331-01-extra",
		"00-0af7651916cd43dd8448eb211c80319X-b7ad6b7169203331-01",
	} {
		if _, err := ParseTraceparent(bad); err == nil {
			t.Errorf("ParseTraceparent(%q) accepted", bad)
		}
	}
}

func TestSpanParentingAndRing(t *testing.T) {
	tr := newTracer(4)
	root := tr.StartSpan(SpanContext{}, "root")
	child := tr.StartSpan(root.Context(), "child")
	if child.Context().Trace != root.Context().Trace {
		t.Errorf("child trace id differs from parent")
	}
	child.SetAttr("k", "v")
	child.SetError(errors.New("boom"))
	child.End()
	child.End() // idempotent
	root.End()

	spans := tr.Spans()
	if len(spans) != 2 {
		t.Fatalf("got %d spans, want 2", len(spans))
	}
	if spans[0].Name != "child" || spans[0].ParentID != root.Context().Span.String() {
		t.Errorf("child span misrecorded: %+v", spans[0])
	}
	if spans[0].Error != "boom" || spans[0].Attrs["k"] != "v" {
		t.Errorf("child attrs/error lost: %+v", spans[0])
	}

	// Overflow the ring: only the newest 4 survive.
	for i := 0; i < 10; i++ {
		tr.StartSpan(SpanContext{}, "filler").End()
	}
	spans = tr.Spans()
	if len(spans) != 4 {
		t.Fatalf("ring holds %d, want 4", len(spans))
	}
	for _, s := range spans {
		if s.Name != "filler" {
			t.Errorf("old span survived overflow: %+v", s)
		}
	}
}

func TestNilTracerAndSpanAreSafe(t *testing.T) {
	var tr *Tracer
	s := tr.StartSpan(SpanContext{}, "x")
	if s != nil {
		t.Fatalf("nil tracer minted a span")
	}
	s.SetAttr("k", "v")
	s.SetError(errors.New("x"))
	s.End()
	if s.Context().Valid() {
		t.Errorf("nil span has valid context")
	}
	if tr.Spans() != nil {
		t.Errorf("nil tracer has spans")
	}
}

func TestTraceDumpHandler(t *testing.T) {
	tr := newTracer(8)
	a := tr.StartSpan(SpanContext{}, "a")
	tr.StartSpan(a.Context(), "b").End()
	a.End()
	other := tr.StartSpan(SpanContext{}, "other")
	other.End()

	srv := httptest.NewServer(tr.Handler())
	defer srv.Close()

	resp, err := srv.Client().Get(srv.URL + "?trace_id=" + a.Context().Trace.String())
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var dump traceDump
	if err := json.NewDecoder(resp.Body).Decode(&dump); err != nil {
		t.Fatalf("decode: %v", err)
	}
	if dump.Recorded != 3 || dump.Capacity != 8 {
		t.Errorf("dump meta = %+v", dump)
	}
	if len(dump.Spans) != 2 {
		t.Fatalf("filtered spans = %d, want 2", len(dump.Spans))
	}
	// Newest first: "a" ended after "b".
	if dump.Spans[0].Name != "a" || dump.Spans[1].Name != "b" {
		t.Errorf("span order: %s, %s", dump.Spans[0].Name, dump.Spans[1].Name)
	}
}
