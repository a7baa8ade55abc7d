package sim

import (
	"fmt"
	"math"
	"math/bits"
	"strings"
)

// LatencyHist is a power-of-two-bucketed latency histogram: bucket i
// (i >= 1) counts request latencies in [2^(i-1), 2^i) nanoseconds, and
// bucket 0 counts zero-latency completions. Percentiles are
// approximated by the geometric midpoint of the containing bucket,
// which is plenty for comparing schemes.
type LatencyHist struct {
	Buckets [40]uint64 `json:"buckets"`
	Count   uint64     `json:"count"`
	Sum     uint64     `json:"sum_ns"`
	Max     uint64     `json:"max_ns"`
}

// Add records one latency sample.
func (h *LatencyHist) Add(ns uint64) {
	i := 0
	if ns > 0 {
		i = bits.Len64(ns)
		if i >= len(h.Buckets) {
			i = len(h.Buckets) - 1
		}
	}
	h.Buckets[i]++
	h.Count++
	h.Sum += ns
	if ns > h.Max {
		h.Max = ns
	}
}

// Merge folds another histogram into this one, as if every sample of
// `other` had been Added to h directly: bucket-wise and counter-wise
// addition, max of maxima. Forked crash/recovery trials record their
// own per-trial histograms and merge them into the sweep aggregate.
func (h *LatencyHist) Merge(other *LatencyHist) {
	for i := range h.Buckets {
		h.Buckets[i] += other.Buckets[i]
	}
	h.Count += other.Count
	h.Sum += other.Sum
	if other.Max > h.Max {
		h.Max = other.Max
	}
}

// Mean returns the average latency.
func (h *LatencyHist) Mean() float64 {
	if h.Count == 0 {
		return 0
	}
	return float64(h.Sum) / float64(h.Count)
}

// Percentile approximates the p-th percentile (0 < p <= 100).
func (h *LatencyHist) Percentile(p float64) uint64 {
	if h.Count == 0 {
		return 0
	}
	target := uint64(math.Ceil(float64(h.Count) * p / 100))
	if target == 0 {
		target = 1
	}
	var cum uint64
	for i, c := range h.Buckets {
		cum += c
		if cum >= target {
			if i == 0 {
				return 0
			}
			lo := uint64(1) << uint(i-1)
			return lo + lo/2 // geometric midpoint of [2^(i-1), 2^i)
		}
	}
	return h.Max
}

// String renders a compact summary.
func (h *LatencyHist) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "n=%d mean=%.0fns p50=%dns p95=%dns p99=%dns max=%dns",
		h.Count, h.Mean(), h.Percentile(50), h.Percentile(95), h.Percentile(99), h.Max)
	return b.String()
}
