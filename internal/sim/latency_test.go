package sim

import (
	"strings"
	"testing"

	"anubis/internal/memctrl"
	"anubis/internal/obs"
)

// The histogram cases below test the latency histograms a Result
// carries, which are obs.Hist.

func TestLatencyHistEmpty(t *testing.T) {
	var h obs.Hist
	if h.Mean() != 0 || h.Percentile(50) != 0 {
		t.Fatal("empty histogram not zero")
	}
}

func TestLatencyHistBasics(t *testing.T) {
	var h obs.Hist
	for _, v := range []uint64{0, 10, 100, 100, 100, 1000, 10000} {
		h.Add(v)
	}
	if h.Count != 7 {
		t.Fatalf("count = %d", h.Count)
	}
	if h.Max != 10000 {
		t.Fatalf("max = %d", h.Max)
	}
	p50 := h.Percentile(50)
	if p50 < 64 || p50 > 256 {
		t.Fatalf("p50 = %d, want in the ~100ns bucket", p50)
	}
	p99 := h.Percentile(99)
	if p99 < 4096 {
		t.Fatalf("p99 = %d, want in the ~10µs bucket", p99)
	}
	if !strings.Contains(h.Summary("ns"), "p95=") {
		t.Fatal("String missing percentile fields")
	}
}

func TestLatencyHistMonotonePercentiles(t *testing.T) {
	var h obs.Hist
	for i := uint64(1); i < 5000; i++ {
		h.Add(i)
	}
	if h.Percentile(50) > h.Percentile(95) || h.Percentile(95) > h.Percentile(99) {
		t.Fatal("percentiles not monotone")
	}
}

func TestLatencyHistHugeValueClamped(t *testing.T) {
	var h obs.Hist
	h.Add(1 << 62) // beyond the last bucket boundary
	if h.Buckets[len(h.Buckets)-1] != 1 {
		t.Fatal("huge value not clamped into the last bucket")
	}
}

// TestLatencyHistMergeEqualsWholeStream is the Merge property test:
// splitting one sample stream into arbitrary chunks, histogramming each
// chunk separately, and merging the parts must reproduce the histogram
// of the whole stream exactly — buckets, count, sum, and max.
func TestLatencyHistMergeEqualsWholeStream(t *testing.T) {
	// Deterministic xorshift stream with a wide dynamic range so many
	// buckets (including bucket 0 and the clamped tail) are populated.
	samples := make([]uint64, 10000)
	x := uint64(0x9e3779b97f4a7c15)
	for i := range samples {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		samples[i] = x >> (x % 64) // spread across magnitudes, incl. 0
	}

	var whole obs.Hist
	for _, s := range samples {
		whole.Add(s)
	}

	for _, cuts := range [][]int{
		{5000},                  // even split
		{1, 9999},               // degenerate chunk
		{0, 10000},              // empty chunks at both ends
		{100, 2500, 2600, 9000}, // ragged multi-way split
	} {
		bounds := append(append([]int{0}, cuts...), len(samples))
		var merged obs.Hist
		for i := 0; i+1 < len(bounds); i++ {
			var part obs.Hist
			for _, s := range samples[bounds[i]:bounds[i+1]] {
				part.Add(s)
			}
			merged.Merge(&part)
		}
		if merged != whole {
			t.Fatalf("split %v: merged histogram differs from whole-stream histogram", cuts)
		}
	}
}

// TestLatencyHistMergeEmptyIdentity checks that merging an empty
// histogram is a no-op in both directions.
func TestLatencyHistMergeEmptyIdentity(t *testing.T) {
	var h, empty obs.Hist
	for _, v := range []uint64{3, 700, 12, 0, 1 << 40} {
		h.Add(v)
	}
	want := h
	h.Merge(&empty)
	if h != want {
		t.Fatal("merging an empty histogram changed the receiver")
	}
	var acc obs.Hist
	acc.Merge(&h)
	if acc != want {
		t.Fatal("merging into an empty histogram did not copy the source")
	}
}

func TestRunPopulatesLatencies(t *testing.T) {
	prof := profFor(t, "milc")
	res := runFor(t, memctrl.FamilyBonsai, prof, 2000)
	if res.ReadLat.Count == 0 || res.WriteLat.Count == 0 {
		t.Fatal("latency histograms empty")
	}
	if res.ReadLat.Count+res.WriteLat.Count != 2000 {
		t.Fatalf("latency samples = %d, want 2000", res.ReadLat.Count+res.WriteLat.Count)
	}
	// Reads must pay at least the media latency on misses; mean > 0.
	if res.ReadLat.Mean() <= 0 {
		t.Fatal("read latency mean is zero")
	}
}

func TestStrictInflatesWriteLatency(t *testing.T) {
	prof := profFor(t, "libquantum")
	wb := runSchemeFor(t, memctrl.FamilyBonsai, "writeback", prof, 4000)
	st := runSchemeFor(t, memctrl.FamilyBonsai, "strict", prof, 4000)
	if st.WriteLat.Mean() <= wb.WriteLat.Mean() {
		t.Fatalf("strict write latency (%.0f) not above write-back (%.0f)",
			st.WriteLat.Mean(), wb.WriteLat.Mean())
	}
}
