package main

import (
	"math"
	"testing"

	"repro/internal/store"
)

func TestUnion(t *testing.T) {
	got := union([][2]int64{{20, 30}, {0, 10}, {5, 15}, {12, 14}})
	if got != 25 {
		t.Errorf("union = %d, want 25", got)
	}
	if union(nil) != 0 {
		t.Error("union of nothing is not 0")
	}
}

func TestSelfTimes(t *testing.T) {
	spans := []span{
		{Op: 1, ID: 1, Name: spanOp, Start: 0, End: 100},
		{Op: 1, ID: 2, Parent: 1, Name: "a", Start: 10, End: 30},
		{Op: 1, ID: 3, Parent: 1, Name: "b", Start: 20, End: 50}, // overlaps a
		{Op: 1, ID: 4, Parent: 1, Name: "c", Start: 60, End: 70},
		{Op: 1, ID: 5, Parent: 3, Name: "d", Start: 25, End: 35},
		{Op: 1, ID: 6, Parent: 4, Name: "e", Start: 65, End: 90}, // overruns its parent
	}
	self := selfTimes(spans)
	for id, want := range map[int64]int64{1: 100 - 50, 2: 20, 3: 30 - 10, 4: 10 - 5, 5: 10, 6: 25} {
		if self[id] != want {
			t.Errorf("self time of span %d = %d, want %d", id, self[id], want)
		}
	}
}

// The unattributed residual is the root's self time: latency not covered
// by any layer span, averaged over operations.
func TestUnattributedResidual(t *testing.T) {
	const ms = 1e6
	spans := []span{
		{Op: 1, ID: 1, Name: spanOp, Start: 0, End: 100 * ms},
		{Op: 1, ID: 2, Parent: 1, Name: spanDiscover, Start: 0, End: 30 * ms},
		{Op: 1, ID: 3, Parent: 1, Name: spanCollect, Start: 30 * ms, End: 90 * ms},
		{Op: 2, ID: 4, Name: spanOp, Start: 200 * ms, End: 240 * ms},
		{Op: 2, ID: 5, Parent: 4, Name: spanSolve, Start: 205 * ms, End: 240 * ms},
		{Op: 2, ID: 6, Parent: 5, Name: spanSAT, Start: 210 * ms, End: 230 * ms},
		{ID: 7, Name: spanSAT, Start: 0, End: 50 * ms}, // attributed to no operation
	}
	m := reduceLayers(spans, 0.05)
	for name, want := range map[string]float64{
		"trace.unattributed_ms_per_op": (10 + 5) / 2.0,
		"core.solve.ms_per_op":         35 / 2.0,
		"sat.search_ms_per_op":         20 / 2.0,
		"core.solve.encode_ms_per_op":  15 / 2.0,
		"sat.solve_calls_per_op":       0.5,
		"trace.overhead_frac":          0.05,
	} {
		if math.Abs(m[name]-want) > 1e-9 {
			t.Errorf("%s = %g, want %g", name, m[name], want)
		}
	}
}

// link joins server-side spans to the operation that submitted the job,
// marks later submitters as dedupe joiners and derives the waits the
// client cannot see.
func TestLinkAttributesJobs(t *testing.T) {
	tr := newTracer()
	tr.spans = []span{
		{Op: 1, ID: 1, Name: spanOp, Start: 0, End: 100, Attrs: map[string]any{"job": "job-1", "accepted_ns": int64(10), "terminal_ns": int64(90)}},
		{Op: 2, ID: 2, Name: spanOp, Start: 5, End: 110, Attrs: map[string]any{"job": "job-1", "accepted_ns": int64(15), "terminal_ns": int64(95)}},
		{Op: 3, ID: 3, Name: spanOp, Start: 0, End: 50, Attrs: map[string]any{"job": "job-2", "accepted_ns": int64(5), "terminal_ns": int64(45)}},
		{ID: 10, Name: spanExecute, Start: 8, End: 80, job: "job-1"},
		{ID: 11, Parent: 10, Name: spanSolve, Start: 50, End: 80, job: "job-1"},
		{ID: 12, Name: spanSAT, Start: 60, End: 70, job: "job-1"},
		{ID: 13, Name: spanPut, Start: 81, End: 82, job: "job-1", Attrs: map[string]any{"bucket": store.BucketJobs}},
		{ID: 20, Name: spanExecute, Start: 20, End: 40, job: "job-2"},
		{ID: 30, Name: spanSAT, Start: 1, End: 2, job: "job-9"},
	}
	tr.next.Store(100)
	tr.link()
	byID := map[int64]span{}
	waits := map[int64][]span{}
	for _, s := range tr.spans {
		byID[s.ID] = s
		if s.Name == spanQueue || s.Name == spanNotify || s.Name == spanDedupe {
			waits[s.Op] = append(waits[s.Op], s)
		}
	}
	for id, want := range map[int64][2]int64{10: {1, 1}, 11: {1, 10}, 12: {1, 11}, 13: {1, 1}, 20: {3, 3}, 30: {0, 0}} {
		if got := byID[id]; got.Op != want[0] || got.Parent != want[1] {
			t.Errorf("span %d (%s): op %d parent %d, want op %d parent %d", id, got.Name, got.Op, got.Parent, want[0], want[1])
		}
	}
	check := func(op int64, want ...span) {
		t.Helper()
		if len(waits[op]) != len(want) {
			t.Fatalf("op %d waits %+v, want %d", op, waits[op], len(want))
		}
		for i, w := range want {
			got := waits[op][i]
			if got.Name != w.Name || got.Start != w.Start || got.End != w.End || got.Parent != op {
				t.Errorf("op %d wait %d = %s [%d,%d] parent %d, want %s [%d,%d]", op, i, got.Name, got.Start, got.End, got.Parent, w.Name, w.Start, w.End)
			}
		}
	}
	check(1, span{Name: spanNotify, Start: 80, End: 90}) // execution began before the 202 arrived: no queue
	check(2, span{Name: spanDedupe, Start: 15, End: 95})
	check(3, span{Name: spanQueue, Start: 5, End: 20}, span{Name: spanNotify, Start: 40, End: 45})
	if byID[2].Attrs["joined"] != true || byID[1].Attrs["joined"] != nil {
		t.Errorf("joined flags: owner %v, joiner %v", byID[1].Attrs["joined"], byID[2].Attrs["joined"])
	}
}
