package obs

import (
	"fmt"
	"math/bits"
	"sync"
)

// This file implements the HDR-style latency histogram behind serving
// benchmarks (cmd/beerload). The Prometheus Histogram in metrics.go has a
// fixed handful of buckets chosen for exposition; a load generator needs
// tail quantiles (p99 of a distribution spanning sub-millisecond cache hits
// and multi-second cold solves) with bounded relative error and without
// picking bucket boundaries up front. HDR keeps one counter per log-linear
// bucket — every power of two is split into hdrSubCount linear sub-buckets —
// so any recorded value lands in a bucket whose width is at most
// 1/hdrSubCount (≈3%) of its magnitude, over the full int64 range, in a few
// kilobytes.

const (
	// hdrSubBits sets the linear resolution inside each octave:
	// 2^hdrSubBits sub-buckets, so quantiles are exact below hdrSubCount
	// and within ~2/hdrSubCount relative error above it.
	hdrSubBits  = 6
	hdrSubCount = 1 << hdrSubBits // 64
	// hdrHalf is the number of distinct sub-buckets an octave above the
	// linear range actually uses (the top half of the sub-bucket index
	// space; the bottom half belongs to smaller octaves).
	hdrHalf = hdrSubCount / 2
	// hdrBuckets covers values up to 2^63-1: the linear range plus
	// hdrHalf buckets for each of the (64 - hdrSubBits) remaining octaves.
	hdrBuckets = hdrSubCount + (64-hdrSubBits)*hdrHalf
)

// HDR is a high-dynamic-range histogram of non-negative int64 values
// (typically latencies in microseconds). Values are bucketed log-linearly
// with ~3% worst-case relative error, so Quantile answers p50/p95/p99
// without pre-chosen boundaries. All methods are safe for concurrent use;
// Record is a mutex-guarded counter bump, cheap enough for a load
// generator's per-request path.
type HDR struct {
	mu     sync.Mutex
	counts [hdrBuckets]int64
	total  int64
	sum    int64
	min    int64
	max    int64
}

// NewHDR returns an empty histogram.
func NewHDR() *HDR { return &HDR{min: -1} }

// hdrIndex maps a value to its bucket. Values < hdrSubCount are exact;
// a value in octave e ≥ 1 (2^(hdrSubBits+e-1) ≤ v < 2^(hdrSubBits+e))
// shares a bucket with the other values equal in their top hdrSubBits bits.
func hdrIndex(v int64) int {
	u := uint64(v)
	if u < hdrSubCount {
		return int(u)
	}
	e := bits.Len64(u) - hdrSubBits // octave, ≥ 1
	sub := int(u>>uint(e)) - hdrHalf
	return hdrSubCount + (e-1)*hdrHalf + sub
}

// hdrUpper is the largest value mapping to bucket idx — what Quantile
// reports, so quantile estimates err on the conservative (slow) side.
func hdrUpper(idx int) int64 {
	if idx < hdrSubCount {
		return int64(idx)
	}
	idx -= hdrSubCount
	e := idx/hdrHalf + 1
	sub := idx % hdrHalf
	return int64(uint64(hdrHalf+sub+1)<<uint(e)) - 1
}

// Record adds one observation. Negative values clamp to zero.
func (h *HDR) Record(v int64) {
	if v < 0 {
		v = 0
	}
	h.mu.Lock()
	h.counts[hdrIndex(v)]++
	h.total++
	h.sum += v
	if h.min < 0 || v < h.min {
		h.min = v
	}
	if v > h.max {
		h.max = v
	}
	h.mu.Unlock()
}

// count returns the number of recorded observations.
func (h *HDR) count() int64 {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.total
}

// Mean returns the arithmetic mean of recorded values (0 when empty).
func (h *HDR) Mean() float64 {
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.total == 0 {
		return 0
	}
	return float64(h.sum) / float64(h.total)
}

// minValue returns the smallest recorded value (0 when empty).
func (h *HDR) minValue() int64 {
	h.mu.Lock()
	defer h.mu.Unlock()
	return max(h.min, 0)
}

// Max returns the largest recorded value (0 when empty).
func (h *HDR) Max() int64 {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.max
}

// Quantile returns the value at quantile q in [0,1] — the upper bound of
// the bucket holding the ceil(q*count)-th observation, so the estimate is
// never below the true quantile by more than the bucket's ~3% width.
// Returns 0 when the histogram is empty.
func (h *HDR) Quantile(q float64) int64 {
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.total == 0 {
		return 0
	}
	if q <= 0 {
		return max(h.min, 0)
	}
	if q >= 1 {
		return h.max
	}
	rank := int64(q * float64(h.total))
	if rank < 1 {
		rank = 1
	}
	var seen int64
	for i, c := range h.counts {
		seen += c
		if seen >= rank {
			// Never report past the true maximum: the top occupied
			// bucket's upper bound can exceed it.
			return min(hdrUpper(i), h.max)
		}
	}
	return h.max
}

// String summarizes the distribution for logs.
func (h *HDR) String() string {
	return fmt.Sprintf("count=%d min=%d p50=%d p95=%d p99=%d max=%d",
		h.count(), h.minValue(), h.Quantile(0.50), h.Quantile(0.95), h.Quantile(0.99), h.Max())
}
