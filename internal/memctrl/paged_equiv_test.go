package memctrl

import (
	"testing"

	"anubis/internal/nvm"
)

// These tests pin the externally observable behaviour of a full
// fill → crash → recover cycle to golden numbers captured from the
// original map-backed nvm.Device implementation. The paged sparse
// store must reproduce them exactly: same media traffic, same recovery
// work, same wear distribution, same post-recovery content. Any drift
// here means the storage-layer rewrite changed semantics, not just
// speed.

// equivGolden is one scheme's golden observation set.
type equivGolden struct {
	// Pre-crash device stats (deterministic: the workload is seeded and
	// the controller is single-threaded).
	Reads, Writes  uint64
	WritesByRegion [6]uint64
	// Recovery report.
	RedoneWrites   int
	EntriesScanned uint64
	CountersFixed  uint64
	NodesRebuilt   uint64
	FetchOps       uint64
	CryptoOps      uint64
	// Wear accounting immediately after recovery.
	WearTotal   [6]uint64
	MaxWearIdx  uint64
	MaxWearCnt  uint64
	MaxWearRegn nvm.Region
	// FNV-1a checksum over every data block read back post-recovery.
	Checksum uint64
}

// equivWorkload drives a deterministic write/read mix that forces
// evictions, shadow-table churn, stop-loss persists and WPQ pressure.
func equivWorkload(t *testing.T, ctrl Controller) {
	t.Helper()
	equivWorkloadRange(t, ctrl, 0, 4000)
}

// equivWorkloadRange drives requests [lo, hi) of the deterministic mix.
// Requests depend only on the absolute index i, so splitting the range
// across two controllers (warm parent + forked child) replays the exact
// byte stream a single straight-through run would see.
func equivWorkloadRange(t *testing.T, ctrl Controller, lo, hi uint64) {
	t.Helper()
	n := ctrl.NumBlocks()
	var data [BlockBytes]byte
	for i := lo; i < hi; i++ {
		addr := (i * 2654435761) % n
		if i%3 == 2 {
			if _, err := ctrl.ReadBlock((i * 40503) % n); err != nil {
				t.Fatalf("read %d: %v", i, err)
			}
			continue
		}
		x := addr*0x9e3779b97f4a7c15 ^ i
		for j := range data {
			x ^= x << 13
			x ^= x >> 7
			x ^= x << 17
			data[j] = byte(x)
		}
		if err := ctrl.WriteBlock(addr, data); err != nil {
			t.Fatalf("write %d: %v", i, err)
		}
	}
}

// observeEquiv runs fill → crash → recover and gathers every golden
// quantity.
func observeEquiv(t *testing.T, ctrl Controller) equivGolden {
	t.Helper()
	var g equivGolden
	equivWorkload(t, ctrl)

	dev := ctrl.Device()
	s := dev.Stats()
	g.Reads, g.Writes = s.Reads, s.Writes
	for r := nvm.RegionData; r < nvm.Region(6); r++ {
		g.WritesByRegion[r] = s.WritesByRegion[r]
	}

	ctrl.Crash()
	rep, err := ctrl.Recover()
	if err != nil {
		t.Fatalf("recover: %v", err)
	}
	g.RedoneWrites = rep.RedoneWrites
	g.EntriesScanned = rep.EntriesScanned
	g.CountersFixed = rep.CountersFixed
	g.NodesRebuilt = rep.NodesRebuilt
	g.FetchOps = rep.FetchOps
	g.CryptoOps = rep.CryptoOps

	// Wear right after recovery, before the verification sweep below
	// perturbs it with its own evictions.
	for r := nvm.RegionData; r < nvm.Region(6); r++ {
		var tot uint64
		for _, idx := range dev.BlocksIn(r) {
			tot += dev.WearOf(r, idx)
		}
		g.WearTotal[r] = tot
	}
	g.MaxWearRegn, g.MaxWearIdx, g.MaxWearCnt = dev.MaxWearAll()

	// Post-recovery content: every data block decrypts and verifies,
	// and the plaintext stream hashes to a fixed value.
	h := uint64(14695981039346656037)
	for idx := uint64(0); idx < ctrl.NumBlocks(); idx++ {
		blk, err := ctrl.ReadBlock(idx)
		if err != nil {
			t.Fatalf("post-recovery read %d: %v", idx, err)
		}
		for _, b := range blk {
			h ^= uint64(b)
			h *= 1099511628211
		}
	}
	g.Checksum = h
	return g
}

func checkEquiv(t *testing.T, got, want equivGolden) {
	t.Helper()
	if got != want {
		t.Fatalf("behaviour drifted from the map-backed golden:\n got: %+v\nwant: %+v", got, want)
	}
}

// TestPagedEquivalenceAGIT pins the AGIT-Plus (Bonsai family)
// fill/crash/recover cycle.
func TestPagedEquivalenceAGIT(t *testing.T) {
	ctrl, err := NewBonsai(TestConfig(SchemeAGITPlus))
	if err != nil {
		t.Fatal(err)
	}
	got := observeEquiv(t, ctrl)
	t.Logf("AGIT golden: %+v", got)
	checkEquiv(t, got, goldenAGIT)
}

// TestPagedEquivalenceASIT pins the ASIT (SGX family) cycle.
func TestPagedEquivalenceASIT(t *testing.T) {
	ctrl, err := NewSGX(TestConfig(SchemeASIT))
	if err != nil {
		t.Fatal(err)
	}
	got := observeEquiv(t, ctrl)
	t.Logf("ASIT golden: %+v", got)
	checkEquiv(t, got, goldenASIT)
}

// Golden observations captured from the pre-paged (map-backed) device
// implementation at the same seed/workload. Do not regenerate these
// from a paged build unless the workload itself changes.
var goldenAGIT = equivGolden{
	Reads:          6085,
	Writes:         9667,
	WritesByRegion: [6]uint64{2667, 2618, 857, 2637, 888, 0},
	RedoneWrites:   0,
	EntriesScanned: 64,
	CountersFixed:  19,
	NodesRebuilt:   32,
	FetchOps:       679,
	CryptoOps:      608,
	WearTotal:      [6]uint64{2667, 2637, 890, 2637, 888, 0},
	MaxWearIdx:     0,
	MaxWearCnt:     683,
	MaxWearRegn:    nvm.RegionSCT,
	Checksum:       7692909221537013069,
}

var goldenASIT = equivGolden{
	Reads:          14554,
	Writes:         19923,
	WritesByRegion: [6]uint64{2667, 2656, 4679, 0, 0, 9921},
	RedoneWrites:   0,
	EntriesScanned: 64,
	CountersFixed:  0,
	NodesRebuilt:   37,
	FetchOps:       128,
	CryptoOps:      110,
	WearTotal:      [6]uint64{2667, 2656, 4679, 0, 0, 9921},
	MaxWearIdx:     42,
	MaxWearCnt:     340,
	MaxWearRegn:    nvm.RegionST,
	Checksum:       7692909221537013069,
}
