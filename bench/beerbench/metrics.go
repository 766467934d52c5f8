package main

// metricDef names a reported metric and its unit. Which direction is
// better, and the bound by which an end-to-end metric may worsen, live in
// BENCHMARK.json.
type metricDef struct{ name, unit string }

// endToEnd are measured with tracing off. Every one is reported on every
// workload. latency_tail_ms is each workload's highest percentile that has
// at least ten samples beyond it at the benchmark's run length.
var endToEnd = []metricDef{
	{"throughput_ops_s", "1/s"},
	{"latency_p50_ms", "ms"},
	{"latency_tail_ms", "ms"},
	{"cpu_ms_per_op", "ms"},
	{"peak_rss_mb", "MiB"},
	{"setup_s", "s"},
}

// perLayer are reduced from a traced phase's spans. Times a layer spends
// are given in ms per operation where every workload runs the layer, and
// otherwise as a share of the summed operation latency, so that a layer a
// workload never reaches reads 0 as a ratio, not as a time.
var perLayer = []metricDef{
	{"core.discover.ms_per_op", "ms"},
	{"core.collect.ms_per_op", "ms"},
	{"core.solve.ms_per_op", "ms"},
	{"core.solve.encode_ms_per_op", "ms"},
	{"sat.search_ms_per_op", "ms"},
	{"sat.solve_calls_per_op", "count"},
	{"sat.clauses_per_op", "count"},
	{"sat.conflicts_per_op", "count"},
	{"ondie.row_reads_per_op", "count"},
	{"ondie.row_writes_per_op", "count"},
	{"ondie.pause_refreshes_per_op", "count"},
	{"ondie.read_share", "ratio"},
	{"ondie.write_share", "ratio"},
	{"ondie.rows_per_host_s", "1/s"},
	{"parallel.collect_speedup", "ratio"},
	{"core.solvecache.hit_ratio", "ratio"},
	{"core.solvecache.lookups_per_op", "count"},
	{"core.solvecache.lookup_share", "ratio"},
	{"service.submit_share", "ratio"},
	{"service.submit_retries_per_op", "count"},
	{"service.dedupe.join_ratio", "ratio"},
	{"service.executions_per_op", "count"},
	{"service.queue_share", "ratio"},
	{"service.execute_share", "ratio"},
	{"service.notify_share", "ratio"},
	{"service.status_polls_per_op", "count"},
	{"service.status_share", "ratio"},
	{"service.result_share", "ratio"},
	{"store.put_per_op", "count"},
	{"store.put_bytes_per_op", "B"},
	{"store.put_share", "ratio"},
	{"store.get_per_op", "count"},
	{"store.get_share", "ratio"},
	{"trace.unattributed_ms_per_op", "ms"},
	{"trace.overhead_frac", "ratio"},
}

// reduceLayers turns a linked traced phase into the per-layer metrics.
// Only spans attributed to one of the phase's operations count. overhead is
// trace.overhead_frac, measured by the caller against an untraced phase.
func reduceLayers(spans []span, overhead float64) map[string]float64 {
	var (
		ops                  float64
		latency              float64 // Σ operation latency, ns
		residual             float64 // Σ root self time, ns
		dur                  = map[string]float64{}
		count                = map[string]float64{}
		attr                 = map[string]float64{}
		satInSolve           float64
		hits, joined, putLen float64
	)
	self := selfTimes(spans)
	names := map[int64]string{}
	for _, s := range spans {
		names[s.ID] = s.Name
	}
	num := func(v any) float64 {
		switch x := v.(type) {
		case int:
			return float64(x)
		case int64:
			return float64(x)
		case float64:
			return x
		}
		return 0
	}
	for _, s := range spans {
		if s.Op == 0 {
			continue
		}
		if s.Name == spanOp {
			ops++
			latency += float64(s.dur())
			residual += float64(self[s.ID])
			for k, v := range s.Attrs {
				attr[k] += num(v)
			}
			if s.Attrs["joined"] == true {
				joined++
			}
			continue
		}
		dur[s.Name] += float64(s.dur())
		count[s.Name]++
		switch s.Name {
		case spanSAT:
			attr["sat.clauses"] += num(s.Attrs["clauses"])
			attr["sat.conflicts"] += num(s.Attrs["conflicts"])
			if names[s.Parent] == spanSolve {
				satInSolve += float64(s.dur())
			}
		case spanLookup:
			if s.Attrs["hit"] == true {
				hits++
			}
		case spanPut:
			putLen += num(s.Attrs["bytes"])
		}
	}
	perOp := func(v float64) float64 {
		if ops == 0 {
			return 0
		}
		return v / ops
	}
	ms := func(ns float64) float64 { return perOp(ns) / 1e6 }
	share := func(ns float64) float64 {
		if latency == 0 {
			return 0
		}
		return ns / latency
	}
	ratio := func(a, b float64) float64 {
		if b == 0 {
			return 0
		}
		return a / b
	}
	return map[string]float64{
		"core.discover.ms_per_op":        ms(dur[spanDiscover]),
		"core.collect.ms_per_op":         ms(dur[spanCollect]),
		"core.solve.ms_per_op":           ms(dur[spanSolve]),
		"core.solve.encode_ms_per_op":    ms(dur[spanSolve] - satInSolve),
		"sat.search_ms_per_op":           ms(dur[spanSAT]),
		"sat.solve_calls_per_op":         perOp(count[spanSAT]),
		"sat.clauses_per_op":             perOp(attr["sat.clauses"]),
		"sat.conflicts_per_op":           perOp(attr["sat.conflicts"]),
		"ondie.row_reads_per_op":         perOp(attr["ondie.reads"]),
		"ondie.row_writes_per_op":        perOp(attr["ondie.writes"]),
		"ondie.pause_refreshes_per_op":   perOp(attr["ondie.pauses"]),
		"ondie.read_share":               share(attr["ondie.read_ns"]),
		"ondie.write_share":              share(attr["ondie.write_ns"]),
		"ondie.rows_per_host_s":          ratio(attr["ondie.reads"]+attr["ondie.writes"], (attr["ondie.read_ns"]+attr["ondie.write_ns"])/1e9),
		"parallel.collect_speedup":       ratio(attr["ondie.busy_ns"], attr["ondie.union_ns"]),
		"core.solvecache.hit_ratio":      ratio(hits, count[spanLookup]),
		"core.solvecache.lookups_per_op": perOp(count[spanLookup]),
		"core.solvecache.lookup_share":   share(dur[spanLookup]),
		"service.submit_share":           share(dur[spanSubmit]),
		"service.submit_retries_per_op":  perOp(attr["retries"]),
		"service.dedupe.join_ratio":      perOp(joined),
		"service.executions_per_op":      perOp(count[spanExecute]),
		"service.queue_share":            share(dur[spanQueue]),
		"service.execute_share":          share(dur[spanExecute]),
		"service.notify_share":           share(dur[spanNotify]),
		"service.status_polls_per_op":    perOp(count[spanStatus]),
		"service.status_share":           share(dur[spanStatus]),
		"service.result_share":           share(dur[spanResult]),
		"store.put_per_op":               perOp(count[spanPut]),
		"store.put_bytes_per_op":         perOp(putLen),
		"store.put_share":                share(dur[spanPut]),
		"store.get_per_op":               perOp(count[spanGet]),
		"store.get_share":                share(dur[spanGet]),
		"trace.unattributed_ms_per_op":   ms(residual),
		"trace.overhead_frac":            overhead,
	}
}
