package sim

import (
	"math/rand"
	"testing"

	"anubis/internal/obs"
)

// Property tests for the latency histograms a Result carries
// (obs.Hist): randomized inputs, deterministic seeds. These pin the
// algebra the sweeps rely on — RecoverySweep merges per-trial
// histograms in trial order, the parallel engine in any worker order,
// and both must agree.

// randHist builds a histogram from n random samples drawn with a mix
// of magnitudes (uniform small, exponential-ish large, zeros) and
// returns the raw samples alongside.
func randHist(rng *rand.Rand, n int) (*obs.Hist, []uint64) {
	h := &obs.Hist{}
	samples := make([]uint64, n)
	for i := range samples {
		var v uint64
		switch rng.Intn(4) {
		case 0:
			v = 0
		case 1:
			v = uint64(rng.Intn(100))
		case 2:
			v = uint64(rng.Intn(1 << 20))
		default:
			v = rng.Uint64() >> uint(1+rng.Intn(40))
		}
		samples[i] = v
		h.Add(v)
	}
	return h, samples
}

// TestLatencyHistAddInvariants checks the bookkeeping identities that
// every Add must preserve: counts, sums, maxima, and bucket totals.
func TestLatencyHistAddInvariants(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 50; trial++ {
		n := 1 + rng.Intn(500)
		h, samples := randHist(rng, n)
		var sum, max uint64
		for _, v := range samples {
			sum += v
			if v > max {
				max = v
			}
		}
		if h.Count != uint64(n) {
			t.Fatalf("count %d after %d adds", h.Count, n)
		}
		if h.Sum != sum {
			t.Fatalf("sum %d, want %d", h.Sum, sum)
		}
		if h.Max != max {
			t.Fatalf("max %d, want %d", h.Max, max)
		}
		var bucketTotal uint64
		for _, c := range h.Buckets {
			bucketTotal += c
		}
		if bucketTotal != h.Count {
			t.Fatalf("buckets sum to %d, count is %d", bucketTotal, h.Count)
		}
	}
}

// TestLatencyHistPercentileMonotone checks that Percentile is
// monotonically non-decreasing in p, never exceeds Max, and that the
// median of a constant distribution lands in the value's bucket.
func TestLatencyHistPercentileMonotone(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 50; trial++ {
		h, _ := randHist(rng, 1+rng.Intn(400))
		prev := uint64(0)
		for p := 1.0; p <= 100; p += 0.5 {
			v := h.Percentile(p)
			if v < prev {
				t.Fatalf("trial %d: Percentile(%g)=%d < Percentile(%g)=%d",
					trial, p, v, p-0.5, prev)
			}
			prev = v
		}
		if max := h.Percentile(100); max > h.Max {
			t.Fatalf("trial %d: Percentile(100)=%d with Max=%d", trial, max, h.Max)
		}
	}
	// Constant distribution: every percentile must fall inside the
	// sample's power-of-two bucket [2^(k-1), 2^k).
	var h obs.Hist
	for i := 0; i < 100; i++ {
		h.Add(300) // bucket [256, 512)
	}
	for _, p := range []float64{1, 50, 99, 100} {
		if v := h.Percentile(p); v < 256 || v >= 512 {
			t.Fatalf("constant dist: Percentile(%g)=%d outside [256,512)", p, v)
		}
	}
}

// TestLatencyHistMergeCommutes checks A∪B == B∪A.
func TestLatencyHistMergeCommutes(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	for trial := 0; trial < 50; trial++ {
		a, _ := randHist(rng, rng.Intn(300))
		b, _ := randHist(rng, rng.Intn(300))
		ab, ba := *a, *b
		ab.Merge(b)
		ba.Merge(a)
		if ab != ba {
			t.Fatalf("trial %d: merge is not commutative:\n a∪b=%+v\n b∪a=%+v", trial, ab, ba)
		}
	}
}

// TestLatencyHistMergeAssociates checks (A∪B)∪C == A∪(B∪C) — the
// property that makes the sweep aggregate independent of whether
// workers merge pairwise or the reducer folds sequentially.
func TestLatencyHistMergeAssociates(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	for trial := 0; trial < 50; trial++ {
		a, _ := randHist(rng, rng.Intn(200))
		b, _ := randHist(rng, rng.Intn(200))
		c, _ := randHist(rng, rng.Intn(200))
		left := *a
		left.Merge(b)
		left.Merge(c)
		bc := *b
		bc.Merge(c)
		right := *a
		right.Merge(&bc)
		if left != right {
			t.Fatalf("trial %d: merge is not associative", trial)
		}
	}
}

// TestLatencyHistMergeEqualsBulkAdd checks that merging histograms is
// indistinguishable from one histogram fed every sample, and that Mean
// stays consistent with Sum/Count through it all.
func TestLatencyHistMergeEqualsBulkAdd(t *testing.T) {
	rng := rand.New(rand.NewSource(19))
	for trial := 0; trial < 30; trial++ {
		parts := make([]*obs.Hist, 1+rng.Intn(5))
		var all []uint64
		merged := &obs.Hist{}
		for i := range parts {
			h, samples := randHist(rng, rng.Intn(200))
			parts[i] = h
			all = append(all, samples...)
			merged.Merge(h)
		}
		bulk := &obs.Hist{}
		var sum uint64
		for _, v := range all {
			bulk.Add(v)
			sum += v
		}
		if *merged != *bulk {
			t.Fatalf("trial %d: merged parts != bulk-added samples", trial)
		}
		wantMean := 0.0
		if len(all) > 0 {
			wantMean = float64(sum) / float64(len(all))
		}
		if got := merged.Mean(); got != wantMean {
			t.Fatalf("trial %d: Mean()=%v, want %v", trial, got, wantMean)
		}
	}
}

// TestLatencyHistMergeZeroIdentity checks the empty histogram is the
// identity element on both sides.
func TestLatencyHistMergeZeroIdentity(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	h, _ := randHist(rng, 200)
	var zero obs.Hist
	left := zero
	left.Merge(h)
	right := *h
	right.Merge(&zero)
	if left != *h || right != *h {
		t.Fatal("empty histogram is not a merge identity")
	}
	if zero.Percentile(99) != 0 || zero.Mean() != 0 {
		t.Fatal("empty histogram must report zero percentiles and mean")
	}
}
