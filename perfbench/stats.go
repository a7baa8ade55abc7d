package main

import (
	"anubis/internal/obs"
	"fmt"
	"math"
	"math/bits"
	"os"
	"regexp"
	"sort"
	"strconv"
	"strings"
)

// quantile returns the q-quantile (0 <= q <= 1) of xs by linear
// interpolation between closest ranks. xs need not be sorted.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := sortedCopy(xs)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

func sortedCopy(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// tailPercentile returns the highest percentile of xs that still has at
// least minBeyond samples ranked above it, with that percentile. For n
// samples that is the value of rank n-minBeyond (1-based), the
// (n-minBeyond)/n percentile. ok is false when there are not more than
// minBeyond samples.
func tailPercentile(xs []float64, minBeyond int) (value, pct float64, ok bool) {
	n := len(xs)
	if n <= minBeyond {
		return 0, 0, false
	}
	s := sortedCopy(xs)
	k := n - 1 - minBeyond
	return s[k], 100 * float64(k+1) / float64(n), true
}

var metricName = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

// validMetricName reports whether name fits the report schema: it
// starts with a letter or digit and uses at most 64 of [A-Za-z0-9_.-].
func validMetricName(name string) bool { return metricName.MatchString(name) }

// metric is one reported number. N is the sample count behind it.
type metric struct {
	Value float64
	Unit  string
	N     int
}

type metricSet map[string]metric

func (m metricSet) set(name string, value float64, unit string, n int) {
	if !validMetricName(name) {
		panic("perfbench: invalid metric name " + name)
	}
	m[name] = metric{Value: value, Unit: unit, N: n}
}

// peakRSSMiB reads the process's peak resident set size (VmHWM).
func peakRSSMiB() (float64, error) {
	b, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(b), "\n") {
		if f := strings.Fields(line); len(f) >= 2 && f[0] == "VmHWM:" {
			kb, err := strconv.ParseFloat(f[1], 64)
			if err != nil {
				return 0, fmt.Errorf("parse VmHWM: %w", err)
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc/self/status")
}

func stallComps() []string {
	var out []string
	for _, c := range obs.Comps() {
		out = append(out, c.String())
	}
	return out
}

func recPhaseNames() []string {
	var out []string
	for _, p := range obs.RecPhases() {
		out = append(out, p.String())
	}
	return out
}

// latHist is a log-linear histogram of nanosecond latencies: 128
// sub-buckets per power of two, so a quantile read from it is within
// 0.8% of the exact sample, in fixed memory however long the run.
type latHist struct {
	counts [33 * 128]uint64
	count  uint64
}

func latBucket(v uint64) int {
	if v < 128 {
		return int(v)
	}
	e := bits.Len64(v) - 8 // v>>e is in [128, 256)
	if e > 31 {
		return len(latHist{}.counts) - 1
	}
	return (e+1)*128 + int(v>>e) - 128
}

// latBucketRange returns the values bucket i covers: [lo, lo+width).
func latBucketRange(i int) (lo, width float64) {
	if i < 128 {
		return float64(i), 1
	}
	e := i/128 - 1
	return float64(uint64(128+i%128) << e), float64(uint64(1) << e)
}

func (h *latHist) add(ns uint64) {
	h.counts[latBucket(ns)]++
	h.count++
}

func (h *latHist) merge(o *latHist) {
	for i, c := range o.counts {
		h.counts[i] += c
	}
	h.count += o.count
}

// quantile interpolates the q-quantile linearly within its bucket.
func (h *latHist) quantile(q float64) float64 {
	if h.count == 0 {
		return 0
	}
	rank := q * float64(h.count-1) // 0-based, as quantile() ranks samples
	var seen float64
	for i, c := range h.counts {
		if c == 0 {
			continue
		}
		if rank < seen+float64(c) {
			lo, w := latBucketRange(i)
			return lo + w*(rank-seen+0.5)/float64(c)
		}
		seen += float64(c)
	}
	lo, w := latBucketRange(len(h.counts) - 1)
	return lo + w
}
