package obs

import (
	"math"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
)

func render(t *testing.T, r *Registry) string {
	t.Helper()
	var sb strings.Builder
	if err := r.writePrometheus(&sb); err != nil {
		t.Fatalf("WritePrometheus: %v", err)
	}
	return sb.String()
}

func TestCounterGaugeExposition(t *testing.T) {
	r := newRegistry()
	c := r.Counter("test_ops_total", "Ops.")
	r.GaugeFunc("test_depth", "Depth.", func() float64 { return 1.5 })
	c.Inc()
	c.Add(4)
	c.Add(-3) // ignored: counters only grow

	text := render(t, r)
	fams, err := parseExposition(text)
	if err != nil {
		t.Fatalf("own output fails validation: %v\n%s", err, text)
	}
	if got := fams["test_ops_total"].Samples[0].Value; got != 5 {
		t.Errorf("counter = %v, want 5", got)
	}
	if fams["test_ops_total"].Type != "counter" {
		t.Errorf("type = %s, want counter", fams["test_ops_total"].Type)
	}
	if got := fams["test_depth"].Samples[0].Value; got != 1.5 {
		t.Errorf("gauge = %v, want 1.5", got)
	}
}

func TestHistogramCumulativeBuckets(t *testing.T) {
	r := newRegistry()
	h := r.Histogram("test_seconds", "Latency.", []float64{0.1, 1, 10})
	for _, v := range []float64{0.05, 0.5, 0.5, 5, 50} {
		h.Observe(v)
	}
	text := render(t, r)
	fams, err := parseExposition(text)
	if err != nil {
		t.Fatalf("validation: %v\n%s", err, text)
	}
	want := map[string]float64{"0.1": 1, "1": 3, "10": 4, "+Inf": 5}
	for _, s := range fams["test_seconds"].Samples {
		if s.Name == "test_seconds_bucket" {
			le := s.Labels["le"]
			if s.Value != want[le] {
				t.Errorf("bucket le=%s = %v, want %v", le, s.Value, want[le])
			}
		}
		if s.Name == "test_seconds_count" && s.Value != 5 {
			t.Errorf("count = %v, want 5", s.Value)
		}
		if s.Name == "test_seconds_sum" && math.Abs(s.Value-56.05) > 1e-9 {
			t.Errorf("sum = %v, want 56.05", s.Value)
		}
	}
	if h.count.Load() != 5 {
		t.Errorf("count = %d, want 5", h.count.Load())
	}
}

func TestVecsAndLabelEscaping(t *testing.T) {
	r := newRegistry()
	cv := r.CounterVec("test_jobs_total", "Jobs.", "type", "state")
	cv.With("recover", "succeeded").Add(3)
	cv.With(`we"ird\val`+"\n", "failed").Inc()
	hv := r.HistogramVec("test_stage_seconds", "Stage latency.", []float64{1}, "stage")
	hv.With("collect").Observe(0.5)
	hv.With("solve").Observe(2)

	text := render(t, r)
	fams, err := parseExposition(text)
	if err != nil {
		t.Fatalf("validation: %v\n%s", err, text)
	}
	var found bool
	for _, s := range fams["test_jobs_total"].Samples {
		if s.Labels["type"] == `we"ird\val`+"\n" && s.Labels["state"] == "failed" {
			found = true
			if s.Value != 1 {
				t.Errorf("escaped child = %v, want 1", s.Value)
			}
		}
	}
	if !found {
		t.Errorf("escaped label value did not round-trip:\n%s", text)
	}
	if n := len(fams["test_stage_seconds"].Samples); n != 2*4 {
		t.Errorf("histogram vec samples = %d, want 8 (2 children x bucket+Inf+sum+count)", n)
	}
}

func TestFuncCollectorsAndHandler(t *testing.T) {
	r := newRegistry()
	v := 7.0
	r.GaugeFunc("test_live", "Live.", func() float64 { return v })
	r.CounterFunc("test_seen_total", "Seen.", func() float64 { return 42 })

	srv := httptest.NewServer(r.Handler())
	defer srv.Close()
	resp, err := srv.Client().Get(srv.URL)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain; version=0.0.4") {
		t.Errorf("Content-Type = %q", ct)
	}
	var sb strings.Builder
	buf := make([]byte, 32<<10)
	for {
		n, err := resp.Body.Read(buf)
		sb.Write(buf[:n])
		if err != nil {
			break
		}
	}
	if _, err := CheckFamilies(sb.String(), "test_live", "test_seen_total"); err != nil {
		t.Fatalf("scrape invalid: %v", err)
	}
}

func TestRegistryRejectsBadAndDuplicateNames(t *testing.T) {
	r := newRegistry()
	mustPanic := func(name string, fn func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Errorf("%s: expected panic", name)
			}
		}()
		fn()
	}
	r.Counter("test_dup_total", "x")
	mustPanic("duplicate", func() { r.Counter("test_dup_total", "x") })
	mustPanic("bad name", func() { r.Counter("9leading_digit", "x") })
	mustPanic("bad char", func() { r.Counter("has-dash", "x") })
	mustPanic("bad label", func() { r.CounterVec("test_ok_total", "x", "bad-label") })
	mustPanic("bad buckets", func() { r.Histogram("test_h", "x", []float64{1, 1}) })
}

func TestConcurrentIncrements(t *testing.T) {
	r := newRegistry()
	c := r.Counter("test_total", "x")
	h := r.Histogram("test_lat", "x", nil)
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 1000; j++ {
				c.Inc()
				h.Observe(0.01)
			}
		}()
	}
	wg.Wait()
	if c.Value() != 8000 {
		t.Errorf("counter = %d, want 8000", c.Value())
	}
	if h.count.Load() != 8000 {
		t.Errorf("histogram count = %d, want 8000", h.count.Load())
	}
	if _, err := parseExposition(render(t, r)); err != nil {
		t.Fatalf("validation after contention: %v", err)
	}
}

func TestParseExpositionRejectsMalformed(t *testing.T) {
	bad := []string{
		"metric_no_value\n",
		"bad-name 1\n",
		`m{l="unterminated} 1` + "\n",
		"m 1 2 3\n",
		"# TYPE m sometype\nm 1\n",
		"m 1\n# TYPE m counter\n",
		// Histogram whose buckets decrease.
		"# TYPE h histogram\nh_bucket{le=\"1\"} 5\nh_bucket{le=\"+Inf\"} 3\nh_count 3\nh_sum 1\n",
		// Histogram missing +Inf.
		"# TYPE h histogram\nh_bucket{le=\"1\"} 5\nh_count 5\nh_sum 1\n",
		// +Inf bucket disagrees with _count.
		"# TYPE h histogram\nh_bucket{le=\"+Inf\"} 4\nh_count 5\nh_sum 1\n",
	}
	for _, text := range bad {
		if _, err := parseExposition(text); err == nil {
			t.Errorf("accepted malformed exposition:\n%s", text)
		}
	}
	good := "# HELP m total ops\n# TYPE m counter\nm{a=\"b\"} 1\nm{a=\"c\"} 2\n"
	if _, err := parseExposition(good); err != nil {
		t.Errorf("rejected valid exposition: %v", err)
	}
}
