package obs

import (
	"fmt"
	"math"
	"sort"
	"strconv"
	"strings"
)

// Family is one parsed metric family from an exposition document.
type Family struct {
	Name    string
	Type    string // counter | gauge | histogram | summary | untyped
	Help    string
	Samples []Sample
}

// Sample is one exposition sample line.
type Sample struct {
	Name   string            // full sample name including _bucket/_sum/_count suffixes
	Labels map[string]string // nil when unlabeled
	Value  float64
}

// parseExposition parses and validates a Prometheus text-format document,
// returning the families keyed by name. It enforces the grammar the smoke
// suites and golden tests gate on: metric/label name character sets, HELP
// and TYPE appearing at most once and before any sample of their family,
// parseable sample values, and — for histograms — cumulative
// non-decreasing buckets whose +Inf bucket equals _count. A family with
// metadata but zero samples is legal (a labeled family before first use).
func parseExposition(text string) (map[string]*Family, error) {
	families := make(map[string]*Family)
	// sampled tracks families that have emitted at least one sample, to
	// reject metadata appearing after samples.
	sampled := make(map[string]bool)

	get := func(name string) *Family {
		f, ok := families[name]
		if !ok {
			f = &Family{Name: name, Type: "untyped"}
			families[name] = f
		}
		return f
	}

	for ln, line := range strings.Split(text, "\n") {
		lineNo := ln + 1
		if strings.TrimSpace(line) == "" {
			continue
		}
		if strings.HasPrefix(line, "#") {
			fields := strings.SplitN(line, " ", 4)
			if len(fields) < 3 {
				continue // free-form comment
			}
			switch fields[1] {
			case "HELP":
				name := fields[2]
				if !metricNameOK(name) {
					return nil, fmt.Errorf("line %d: invalid metric name %q in HELP", lineNo, name)
				}
				f := get(name)
				if sampled[name] {
					return nil, fmt.Errorf("line %d: HELP for %s after its samples", lineNo, name)
				}
				if f.Help != "" {
					return nil, fmt.Errorf("line %d: duplicate HELP for %s", lineNo, name)
				}
				if len(fields) == 4 {
					f.Help = fields[3]
				} else {
					f.Help = " " // present but empty
				}
			case "TYPE":
				if len(fields) != 4 {
					return nil, fmt.Errorf("line %d: malformed TYPE line %q", lineNo, line)
				}
				name, typ := fields[2], fields[3]
				if !metricNameOK(name) {
					return nil, fmt.Errorf("line %d: invalid metric name %q in TYPE", lineNo, name)
				}
				switch typ {
				case "counter", "gauge", "histogram", "summary", "untyped":
				default:
					return nil, fmt.Errorf("line %d: unknown metric type %q for %s", lineNo, typ, name)
				}
				f := get(name)
				if sampled[name] {
					return nil, fmt.Errorf("line %d: TYPE for %s after its samples", lineNo, name)
				}
				f.Type = typ
			}
			continue
		}

		s, err := parseSample(line)
		if err != nil {
			return nil, fmt.Errorf("line %d: %w", lineNo, err)
		}
		famName := familyOf(s.Name, families)
		f := get(famName)
		f.Samples = append(f.Samples, s)
		sampled[famName] = true
	}

	for _, f := range families {
		if f.Type == "histogram" {
			if err := checkHistogram(f); err != nil {
				return nil, fmt.Errorf("histogram %s: %w", f.Name, err)
			}
		}
	}
	return families, nil
}

// familyOf maps a sample name to its family: histogram/summary samples use
// the base name's _bucket/_sum/_count suffixes.
func familyOf(sample string, families map[string]*Family) string {
	for _, suffix := range []string{"_bucket", "_sum", "_count"} {
		base := strings.TrimSuffix(sample, suffix)
		if base == sample {
			continue
		}
		if f, ok := families[base]; ok && (f.Type == "histogram" || f.Type == "summary") {
			return base
		}
	}
	return sample
}

// parseSample parses `name{labels} value` (timestamps are not produced by
// the registry and are rejected).
func parseSample(line string) (Sample, error) {
	var s Sample
	rest := line
	i := strings.IndexAny(rest, "{ ")
	if i < 0 {
		return s, fmt.Errorf("malformed sample %q", line)
	}
	s.Name = rest[:i]
	if !metricNameOK(s.Name) {
		return s, fmt.Errorf("invalid sample name %q", s.Name)
	}
	rest = rest[i:]
	if rest[0] == '{' {
		end := strings.LastIndexByte(rest, '}')
		if end < 0 {
			return s, fmt.Errorf("unterminated label set in %q", line)
		}
		labels, err := parseLabels(rest[1:end])
		if err != nil {
			return s, fmt.Errorf("%w in %q", err, line)
		}
		s.Labels = labels
		rest = rest[end+1:]
	}
	rest = strings.TrimSpace(rest)
	if rest == "" || strings.ContainsAny(rest, " \t") {
		return s, fmt.Errorf("expected exactly one value in %q", line)
	}
	v, err := strconv.ParseFloat(rest, 64)
	if err != nil {
		return s, fmt.Errorf("bad value %q in %q", rest, line)
	}
	s.Value = v
	return s, nil
}

func parseLabels(body string) (map[string]string, error) {
	labels := make(map[string]string)
	rest := body
	for rest != "" {
		eq := strings.IndexByte(rest, '=')
		if eq < 0 {
			return nil, fmt.Errorf("malformed label pair %q", rest)
		}
		name := rest[:eq]
		if !labelNameOK(name) {
			return nil, fmt.Errorf("invalid label name %q", name)
		}
		rest = rest[eq+1:]
		if len(rest) == 0 || rest[0] != '"' {
			return nil, fmt.Errorf("label %s: value not quoted", name)
		}
		rest = rest[1:]
		var val strings.Builder
		closed := false
		for i := 0; i < len(rest); i++ {
			c := rest[i]
			if c == '\\' && i+1 < len(rest) {
				i++
				switch rest[i] {
				case 'n':
					val.WriteByte('\n')
				case '\\':
					val.WriteByte('\\')
				case '"':
					val.WriteByte('"')
				default:
					return nil, fmt.Errorf("label %s: bad escape \\%c", name, rest[i])
				}
				continue
			}
			if c == '"' {
				rest = rest[i+1:]
				closed = true
				break
			}
			val.WriteByte(c)
		}
		if !closed {
			return nil, fmt.Errorf("label %s: unterminated value", name)
		}
		if _, dup := labels[name]; dup {
			return nil, fmt.Errorf("duplicate label %s", name)
		}
		labels[name] = val.String()
		rest = strings.TrimPrefix(rest, ",")
	}
	return labels, nil
}

// checkHistogram verifies the cumulative-bucket invariants for every label
// combination of a histogram family.
func checkHistogram(f *Family) error {
	// Group buckets/sums/counts by their non-le label signature.
	type series struct {
		bounds []float64
		counts map[float64]float64
		count  float64
		hasCnt bool
	}
	groups := make(map[string]*series)
	sig := func(labels map[string]string) string {
		keys := make([]string, 0, len(labels))
		for k := range labels {
			if k != "le" {
				keys = append(keys, k)
			}
		}
		sort.Strings(keys)
		var b strings.Builder
		for _, k := range keys {
			b.WriteString(k)
			b.WriteByte('=')
			b.WriteString(labels[k])
			b.WriteByte(';')
		}
		return b.String()
	}
	getSeries := func(labels map[string]string) *series {
		k := sig(labels)
		g, ok := groups[k]
		if !ok {
			g = &series{counts: make(map[float64]float64)}
			groups[k] = g
		}
		return g
	}
	for _, s := range f.Samples {
		switch s.Name {
		case f.Name + "_bucket":
			le, ok := s.Labels["le"]
			if !ok {
				return fmt.Errorf("bucket sample without le label")
			}
			var bound float64
			if le == "+Inf" {
				bound = math.Inf(1)
			} else {
				v, err := strconv.ParseFloat(le, 64)
				if err != nil {
					return fmt.Errorf("unparseable le %q", le)
				}
				bound = v
			}
			g := getSeries(s.Labels)
			g.bounds = append(g.bounds, bound)
			g.counts[bound] = s.Value
		case f.Name + "_count":
			g := getSeries(s.Labels)
			g.count = s.Value
			g.hasCnt = true
		case f.Name + "_sum":
			// value can be any float; nothing to check beyond parseability
		default:
			return fmt.Errorf("unexpected sample %s in histogram family", s.Name)
		}
	}
	for sig, g := range groups {
		if len(g.bounds) == 0 && !g.hasCnt {
			continue
		}
		sort.Float64s(g.bounds)
		if len(g.bounds) == 0 || !math.IsInf(g.bounds[len(g.bounds)-1], 1) {
			return fmt.Errorf("series {%s} missing +Inf bucket", sig)
		}
		prev := math.Inf(-1)
		last := 0.0
		for _, bound := range g.bounds {
			if bound == prev {
				return fmt.Errorf("series {%s} duplicate bucket le=%v", sig, bound)
			}
			prev = bound
			c := g.counts[bound]
			if c < last {
				return fmt.Errorf("series {%s} bucket counts not cumulative at le=%v", sig, bound)
			}
			last = c
		}
		if g.hasCnt && g.counts[math.Inf(1)] != g.count {
			return fmt.Errorf("series {%s} +Inf bucket %v != _count %v", sig, g.counts[math.Inf(1)], g.count)
		}
	}
	return nil
}

// CheckFamilies parses text and verifies every name in want is present —
// the shared assertion behind the golden test and both smoke suites'
// /metrics scrapes. Returns the parsed families for further checks.
func CheckFamilies(text string, want ...string) (map[string]*Family, error) {
	fams, err := parseExposition(text)
	if err != nil {
		return nil, fmt.Errorf("malformed exposition: %w", err)
	}
	var missing []string
	for _, name := range want {
		if _, ok := fams[name]; !ok {
			missing = append(missing, name)
		}
	}
	if len(missing) > 0 {
		return nil, fmt.Errorf("exposition missing key families: %s", strings.Join(missing, ", "))
	}
	return fams, nil
}
