package sim

import (
	"testing"

	"anubis/internal/cache"
	"anubis/internal/memctrl"
)

// Satellite regression tests for the CleanEvictionFrac selection fix:
// the metric must pick the cache by controller FAMILY, never by "which
// cache happens to have evictions". The old fallback read the Merkle
// tree cache whenever the counter cache had zero evictions, silently
// reporting tree evictions as Figure 7 data for short Bonsai runs
// whose counter working set still fit.

func statsResult(f memctrl.Family, counter, tree cache.Stats) Result {
	var r Result
	r.Family = f
	r.Stats.CounterCache = counter
	r.Stats.TreeCache = tree
	return r
}

func TestCleanEvictionFracSelectsByFamily(t *testing.T) {
	counter := cache.Stats{Evictions: 100, CleanEvictions: 25}
	tree := cache.Stats{Evictions: 10, CleanEvictions: 10}

	if got := statsResult(memctrl.FamilyBonsai, counter, tree).CleanEvictionFrac(); got != 0.25 {
		t.Fatalf("bonsai frac = %v, want 0.25 (counter cache)", got)
	}
	if got := statsResult(memctrl.FamilySGX, counter, tree).CleanEvictionFrac(); got != 1.0 {
		t.Fatalf("sgx frac = %v, want 1.0 (combined metadata cache)", got)
	}
}

func TestCleanEvictionFracNoSilentFallback(t *testing.T) {
	// The regression shape: Bonsai counter cache fits (zero evictions)
	// while the tree cache is churning. The metric must report 0 —
	// there were no counter-cache evictions to classify — instead of
	// the tree cache's 80%.
	counter := cache.Stats{}
	tree := cache.Stats{Evictions: 50, CleanEvictions: 40}
	if got := statsResult(memctrl.FamilyBonsai, counter, tree).CleanEvictionFrac(); got != 0 {
		t.Fatalf("bonsai frac = %v, want 0 (no counter evictions; must not fall back to tree cache)", got)
	}
	// Symmetric case for SGX: empty metadata cache stats stay 0 even if
	// the (unused for this family) counter field carries numbers.
	if got := statsResult(memctrl.FamilySGX, cache.Stats{Evictions: 9, CleanEvictions: 9}, cache.Stats{}).CleanEvictionFrac(); got != 0 {
		t.Fatalf("sgx frac = %v, want 0", got)
	}
}

// TestRunTagsFamily checks sim.Run stamps the Result with the right
// family for both controller types, so the metric selection above acts
// on trustworthy input.
func TestRunTagsFamily(t *testing.T) {
	prof := profFor(t, "libquantum")
	if res := runOne(t, memctrl.FamilyBonsai, memctrl.SchemeAGITPlus, prof, 500); res.Family != memctrl.FamilyBonsai {
		t.Fatalf("bonsai run tagged %v", res.Family)
	}
	if res := runOne(t, memctrl.FamilySGX, memctrl.SchemeASIT, prof, 500); res.Family != memctrl.FamilySGX {
		t.Fatalf("sgx run tagged %v", res.Family)
	}
}
