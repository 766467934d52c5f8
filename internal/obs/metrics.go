package obs

import (
	"fmt"
	"io"
	"math"
	"net/http"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
)

// Registry holds named metric families and renders them in the Prometheus
// text exposition format (version 0.0.4). Registration happens at wiring
// time and panics on an invalid or duplicate name — a misnamed metric is a
// programming error, not a runtime condition — while the increment paths
// are lock-free atomics.
type Registry struct {
	mu       sync.Mutex
	families map[string]*family
}

// family is one registered metric name: help/type metadata plus a collect
// function that appends its current samples.
type family struct {
	name, help, typ string
	collect         func(b *strings.Builder)
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{families: make(map[string]*family)}
}

// metricNameOK enforces the exposition-format metric-name grammar
// [a-zA-Z_:][a-zA-Z0-9_:]*.
func metricNameOK(name string) bool {
	if name == "" {
		return false
	}
	for i, r := range name {
		ok := r == '_' || r == ':' ||
			(r >= 'a' && r <= 'z') || (r >= 'A' && r <= 'Z') ||
			(i > 0 && r >= '0' && r <= '9')
		if !ok {
			return false
		}
	}
	return true
}

// labelNameOK enforces the label-name grammar [a-zA-Z_][a-zA-Z0-9_]*.
func labelNameOK(name string) bool {
	if name == "" {
		return false
	}
	for i, r := range name {
		ok := r == '_' ||
			(r >= 'a' && r <= 'z') || (r >= 'A' && r <= 'Z') ||
			(i > 0 && r >= '0' && r <= '9')
		if !ok {
			return false
		}
	}
	return true
}

func (r *Registry) register(name, help, typ string, labels []string, collect func(b *strings.Builder)) {
	if !metricNameOK(name) {
		panic(fmt.Sprintf("obs: invalid metric name %q", name))
	}
	for _, l := range labels {
		if !labelNameOK(l) {
			panic(fmt.Sprintf("obs: metric %s: invalid label name %q", name, l))
		}
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, dup := r.families[name]; dup {
		panic(fmt.Sprintf("obs: duplicate metric name %q", name))
	}
	r.families[name] = &family{name: name, help: help, typ: typ, collect: collect}
}

// escapeHelp escapes a HELP string per the exposition format.
func escapeHelp(s string) string {
	s = strings.ReplaceAll(s, `\`, `\\`)
	return strings.ReplaceAll(s, "\n", `\n`)
}

// escapeLabel escapes a label value per the exposition format.
func escapeLabel(s string) string {
	s = strings.ReplaceAll(s, `\`, `\\`)
	s = strings.ReplaceAll(s, "\n", `\n`)
	return strings.ReplaceAll(s, `"`, `\"`)
}

// formatValue renders a sample value. Integral floats print without an
// exponent or trailing zeros; specials use the exposition spellings.
func formatValue(v float64) string {
	switch {
	case math.IsInf(v, 1):
		return "+Inf"
	case math.IsInf(v, -1):
		return "-Inf"
	case math.IsNaN(v):
		return "NaN"
	case v == math.Trunc(v) && math.Abs(v) < 1e15:
		return strconv.FormatInt(int64(v), 10)
	default:
		return strconv.FormatFloat(v, 'g', -1, 64)
	}
}

// labelString renders {k="v",...} for parallel name/value slices, or ""
// when there are no labels.
func labelString(names, values []string) string {
	if len(names) == 0 {
		return ""
	}
	var b strings.Builder
	b.WriteByte('{')
	for i, n := range names {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(n)
		b.WriteString(`="`)
		b.WriteString(escapeLabel(values[i]))
		b.WriteByte('"')
	}
	b.WriteByte('}')
	return b.String()
}

// WritePrometheus renders every registered family, sorted by name, in the
// text exposition format.
func (r *Registry) WritePrometheus(w io.Writer) error {
	r.mu.Lock()
	fams := make([]*family, 0, len(r.families))
	for _, f := range r.families {
		fams = append(fams, f)
	}
	r.mu.Unlock()
	sort.Slice(fams, func(i, j int) bool { return fams[i].name < fams[j].name })

	var b strings.Builder
	for _, f := range fams {
		fmt.Fprintf(&b, "# HELP %s %s\n", f.name, escapeHelp(f.help))
		fmt.Fprintf(&b, "# TYPE %s %s\n", f.name, f.typ)
		f.collect(&b)
	}
	_, err := io.WriteString(w, b.String())
	return err
}

// Handler serves GET /metrics.
func (r *Registry) Handler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		r.WritePrometheus(w)
	})
}

// Counter is a monotonically increasing integer metric.
type Counter struct {
	v atomic.Int64
}

// Inc adds one.
func (c *Counter) Inc() { c.v.Add(1) }

// Add adds delta (negative deltas are ignored: counters only grow).
func (c *Counter) Add(delta int64) {
	if delta > 0 {
		c.v.Add(delta)
	}
}

// Value returns the current count.
func (c *Counter) Value() int64 { return c.v.Load() }

// Counter registers and returns a counter.
func (r *Registry) Counter(name, help string) *Counter {
	c := &Counter{}
	r.register(name, help, "counter", nil, func(b *strings.Builder) {
		b.WriteString(name)
		b.WriteByte(' ')
		b.WriteString(strconv.FormatInt(c.Value(), 10))
		b.WriteByte('\n')
	})
	return c
}

// CounterFunc registers a counter whose value is read from fn at scrape
// time — for sources that already keep their own atomic tallies (the
// engine's run count, GC cycle counts).
func (r *Registry) CounterFunc(name, help string, fn func() float64) {
	r.register(name, help, "counter", nil, func(b *strings.Builder) {
		b.WriteString(name)
		b.WriteByte(' ')
		b.WriteString(formatValue(fn()))
		b.WriteByte('\n')
	})
}

// Gauge is a float metric that can go up and down.
type Gauge struct {
	bits atomic.Uint64
}

// Set stores v.
func (g *Gauge) Set(v float64) { g.bits.Store(math.Float64bits(v)) }

// Add adds delta with a CAS loop.
func (g *Gauge) Add(delta float64) {
	for {
		old := g.bits.Load()
		next := math.Float64bits(math.Float64frombits(old) + delta)
		if g.bits.CompareAndSwap(old, next) {
			return
		}
	}
}

// Value returns the current value.
func (g *Gauge) Value() float64 { return math.Float64frombits(g.bits.Load()) }

// Gauge registers and returns a gauge.
func (r *Registry) Gauge(name, help string) *Gauge {
	g := &Gauge{}
	r.register(name, help, "gauge", nil, func(b *strings.Builder) {
		b.WriteString(name)
		b.WriteByte(' ')
		b.WriteString(formatValue(g.Value()))
		b.WriteByte('\n')
	})
	return g
}

// GaugeFunc registers a gauge read from fn at scrape time (goroutine
// counts, heap bytes, registry sizes — anything already counted elsewhere).
func (r *Registry) GaugeFunc(name, help string, fn func() float64) {
	r.register(name, help, "gauge", nil, func(b *strings.Builder) {
		b.WriteString(name)
		b.WriteByte(' ')
		b.WriteString(formatValue(fn()))
		b.WriteByte('\n')
	})
}

// DefBuckets are the classic Prometheus duration buckets (seconds).
var DefBuckets = []float64{.005, .01, .025, .05, .1, .25, .5, 1, 2.5, 5, 10}

// Histogram is a classic cumulative-bucket histogram. Observations are two
// atomic adds plus a CAS for the sum; bucket counts are kept per-bucket
// (non-cumulative) and accumulated only at exposition time.
type Histogram struct {
	upper   []float64 // ascending upper bounds, exclusive of +Inf
	buckets []atomic.Int64
	count   atomic.Int64
	sumBits atomic.Uint64
}

// Observe records v.
func (h *Histogram) Observe(v float64) {
	// Linear scan: bucket lists are short (~11) and the comparison loop is
	// branch-predictable, beating binary search at this size.
	i := 0
	for i < len(h.upper) && v > h.upper[i] {
		i++
	}
	if i < len(h.buckets) {
		h.buckets[i].Add(1)
	}
	h.count.Add(1)
	for {
		old := h.sumBits.Load()
		next := math.Float64bits(math.Float64frombits(old) + v)
		if h.sumBits.CompareAndSwap(old, next) {
			return
		}
	}
}

// Count returns the total number of observations.
func (h *Histogram) Count() int64 { return h.count.Load() }

// Sum returns the sum of observed values.
func (h *Histogram) Sum() float64 { return math.Float64frombits(h.sumBits.Load()) }

func newHistogram(buckets []float64) *Histogram {
	if len(buckets) == 0 {
		buckets = DefBuckets
	}
	for i := 1; i < len(buckets); i++ {
		if buckets[i] <= buckets[i-1] {
			panic(fmt.Sprintf("obs: histogram buckets not ascending: %v", buckets))
		}
	}
	upper := append([]float64(nil), buckets...)
	return &Histogram{
		upper: upper,
		// One overflow slot for observations above the last bound; its
		// cumulative count is the +Inf bucket.
		buckets: make([]atomic.Int64, len(upper)+1),
	}
}

// writeSamples appends the histogram's _bucket/_sum/_count lines. extra
// holds pre-rendered label pairs (without braces) prepended to the le
// label, or "".
func (h *Histogram) writeSamples(b *strings.Builder, name, extra string) {
	cum := int64(0)
	for i, bound := range h.upper {
		cum += h.buckets[i].Load()
		b.WriteString(name)
		b.WriteString(`_bucket{`)
		if extra != "" {
			b.WriteString(extra)
			b.WriteByte(',')
		}
		b.WriteString(`le="`)
		b.WriteString(formatValue(bound))
		b.WriteString(`"} `)
		b.WriteString(strconv.FormatInt(cum, 10))
		b.WriteByte('\n')
	}
	total := h.Count()
	b.WriteString(name)
	b.WriteString(`_bucket{`)
	if extra != "" {
		b.WriteString(extra)
		b.WriteByte(',')
	}
	b.WriteString(`le="+Inf"} `)
	b.WriteString(strconv.FormatInt(total, 10))
	b.WriteByte('\n')

	suffix := ""
	if extra != "" {
		suffix = "{" + extra + "}"
	}
	b.WriteString(name)
	b.WriteString("_sum")
	b.WriteString(suffix)
	b.WriteByte(' ')
	b.WriteString(formatValue(h.Sum()))
	b.WriteByte('\n')
	b.WriteString(name)
	b.WriteString("_count")
	b.WriteString(suffix)
	b.WriteByte(' ')
	b.WriteString(strconv.FormatInt(total, 10))
	b.WriteByte('\n')
}

// Histogram registers and returns a histogram. Nil buckets selects
// DefBuckets.
func (r *Registry) Histogram(name, help string, buckets []float64) *Histogram {
	h := newHistogram(buckets)
	r.register(name, help, "histogram", nil, func(b *strings.Builder) {
		h.writeSamples(b, name, "")
	})
	return h
}

// CounterVec is a family of counters keyed by label values. Children are
// created on first use and live forever (label cardinality is expected to
// be small and bounded: job types, stages, states).
type CounterVec struct {
	name   string
	labels []string

	mu       sync.Mutex
	children map[string]*Counter
	keys     []string // sorted lazily at collect time
}

// With returns the child counter for the given label values (one per
// registered label, in order).
func (v *CounterVec) With(values ...string) *Counter {
	if len(values) != len(v.labels) {
		panic(fmt.Sprintf("obs: %s: got %d label values, want %d", v.name, len(values), len(v.labels)))
	}
	key := strings.Join(values, "\xff")
	v.mu.Lock()
	defer v.mu.Unlock()
	c, ok := v.children[key]
	if !ok {
		c = &Counter{}
		v.children[key] = c
		v.keys = append(v.keys, key)
	}
	return c
}

func (v *CounterVec) collect(b *strings.Builder) {
	v.mu.Lock()
	keys := append([]string(nil), v.keys...)
	children := make([]*Counter, len(keys))
	sort.Strings(keys)
	for i, k := range keys {
		children[i] = v.children[k]
	}
	v.mu.Unlock()
	for i, k := range keys {
		b.WriteString(v.name)
		b.WriteString(labelString(v.labels, strings.Split(k, "\xff")))
		b.WriteByte(' ')
		b.WriteString(strconv.FormatInt(children[i].Value(), 10))
		b.WriteByte('\n')
	}
}

// CounterVec registers a labeled counter family.
func (r *Registry) CounterVec(name, help string, labels ...string) *CounterVec {
	v := &CounterVec{name: name, labels: labels, children: make(map[string]*Counter)}
	r.register(name, help, "counter", labels, v.collect)
	return v
}

// HistogramVec is a family of histograms keyed by label values.
type HistogramVec struct {
	name    string
	labels  []string
	buckets []float64

	mu       sync.Mutex
	children map[string]*Histogram
	keys     []string
}

// With returns the child histogram for the given label values.
func (v *HistogramVec) With(values ...string) *Histogram {
	if len(values) != len(v.labels) {
		panic(fmt.Sprintf("obs: %s: got %d label values, want %d", v.name, len(values), len(v.labels)))
	}
	key := strings.Join(values, "\xff")
	v.mu.Lock()
	defer v.mu.Unlock()
	h, ok := v.children[key]
	if !ok {
		h = newHistogram(v.buckets)
		v.children[key] = h
		v.keys = append(v.keys, key)
	}
	return h
}

func (v *HistogramVec) collect(b *strings.Builder) {
	v.mu.Lock()
	keys := append([]string(nil), v.keys...)
	sort.Strings(keys)
	children := make([]*Histogram, len(keys))
	for i, k := range keys {
		children[i] = v.children[k]
	}
	v.mu.Unlock()
	for i, k := range keys {
		values := strings.Split(k, "\xff")
		extra := labelString(v.labels, values)
		// Strip the braces: writeSamples re-renders them with le appended.
		children[i].writeSamples(b, v.name, strings.TrimSuffix(strings.TrimPrefix(extra, "{"), "}"))
	}
}

// HistogramVec registers a labeled histogram family. Nil buckets selects
// DefBuckets.
func (r *Registry) HistogramVec(name, help string, buckets []float64, labels ...string) *HistogramVec {
	v := &HistogramVec{name: name, labels: labels, buckets: buckets, children: make(map[string]*Histogram)}
	r.register(name, help, "histogram", labels, v.collect)
	return v
}
