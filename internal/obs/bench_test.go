package obs

import (
	"runtime"
	"sync"
	"testing"
)

// BenchmarkMetricsHotPath measures instrumented events — a counter
// increment plus a histogram observation, the exact pattern the progress
// fold and solve-cache wrappers execute per core.Event — under
// GOMAXPROCS-way contention on shared instruments. Each iteration performs
// a fixed 200k events per worker so the bench runs long enough at the
// gate's -benchtime 1x for a 30% ns/op move to be a real regression, not
// timer noise. It is a bench-gate key (tools/benchjson), so
// instrumentation overhead is ratcheted by CI rather than assumed
// negligible.
func BenchmarkMetricsHotPath(b *testing.B) {
	r := newRegistry()
	c := r.Counter("bench_events_total", "x")
	h := r.Histogram("bench_latency_seconds", "x", nil)
	workers := runtime.GOMAXPROCS(0)
	const perWorker = 200_000
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for j := 0; j < perWorker; j++ {
					c.Inc()
					h.Observe(0.0003)
				}
			}()
		}
		wg.Wait()
	}
}
