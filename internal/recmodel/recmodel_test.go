package recmodel

import (
	"strings"
	"testing"
)

const (
	kb = uint64(1024)
	mb = 1024 * kb
	gb = 1024 * mb
	tb = 1024 * gb
)

func TestOsiris8TBMatchesPaper(t *testing.T) {
	// Paper §6.3.1/Figure 5: "the recovery time for 8TB memory is
	// ≈28193 seconds (≈7.8 Hours)".
	ns := OsirisFullNS(8*tb, 1.05)
	sec := Seconds(ns)
	if sec < 25000 || sec > 31000 {
		t.Fatalf("8TB Osiris recovery = %.0f s, paper reports ≈28193 s", sec)
	}
	hours := sec / 3600
	if hours < 7.0 || hours > 8.6 {
		t.Fatalf("8TB Osiris recovery = %.2f h, paper reports ≈7.8 h", hours)
	}
}

func TestOsirisScalesLinearly(t *testing.T) {
	// Figure 5's point: recovery is O(memory).
	a := OsirisFullNS(1*tb, 1.05)
	b := OsirisFullNS(2*tb, 1.05)
	ratio := float64(b) / float64(a)
	if ratio < 1.95 || ratio > 2.05 {
		t.Fatalf("doubling memory scaled recovery by %.3f, want ~2", ratio)
	}
}

func TestAGIT256KBMatchesPaper(t *testing.T) {
	// Abstract/§6.3.1: Anubis recovers in ≈0.03 s with Table 1's
	// 256 KB + 256 KB caches.
	ns := AGITNS(256*kb, 256*kb)
	sec := Seconds(ns)
	if sec < 0.025 || sec > 0.035 {
		t.Fatalf("AGIT 256KB recovery = %.4f s, paper reports ≈0.03 s", sec)
	}
}

func TestAGIT4MBMatchesPaper(t *testing.T) {
	// §6.3.1: "recovery time for extremely large cache sizes (4MB) is
	// only ≈0.48s in AGIT".
	ns := AGITNS(4*mb, 4*mb)
	sec := Seconds(ns)
	if sec < 0.42 || sec > 0.53 {
		t.Fatalf("AGIT 4MB recovery = %.4f s, paper reports ≈0.48 s", sec)
	}
}

func TestAGITIndependentOfMemorySize(t *testing.T) {
	// The headline property: Anubis recovery is a function of cache
	// size only. (The model takes no memory parameter at all; this test
	// documents the contrast with Osiris.)
	agit := AGITNS(256*kb, 256*kb)
	osiris1 := OsirisFullNS(1*tb, 1.05)
	osiris8 := OsirisFullNS(8*tb, 1.05)
	if osiris8 <= osiris1 {
		t.Fatal("Osiris must scale with memory")
	}
	if agit >= osiris1/1000 {
		t.Fatalf("AGIT (%d ns) not orders of magnitude below Osiris at 1TB (%d ns)", agit, osiris1)
	}
}

func TestSpeedupHeadline(t *testing.T) {
	// Abstract: "speeds up recovery time by almost 10^7 times (from 8
	// hours to only 0.03 seconds)".
	s := Speedup(OsirisFullNS(8*tb, 1.05), AGITNS(256*kb, 256*kb))
	if s < 5e5 || s > 5e7 {
		t.Fatalf("speedup = %.2e, paper claims ~10^6-10^7", s)
	}
}

func TestASITBelowAGIT(t *testing.T) {
	// Figure 12: ASIT recovery is below AGIT at every point.
	for _, c := range []uint64{256 * kb, 512 * kb, 1 * mb, 2 * mb, 4 * mb} {
		agit := AGITNS(c, c)
		asit := ASITNS(2 * c) // combined cache = counter + tree capacity
		if asit >= agit {
			t.Fatalf("cache %dKB: ASIT (%d) not below AGIT (%d)", c/1024, asit, agit)
		}
	}
}

func TestRecoveryLinearInCacheSize(t *testing.T) {
	a := AGITNS(256*kb, 256*kb)
	b := AGITNS(512*kb, 512*kb)
	if float64(b)/float64(a) < 1.9 || float64(b)/float64(a) > 2.1 {
		t.Fatalf("AGIT not linear in cache size: %d vs %d", a, b)
	}
	x := ASITNS(512 * kb)
	y := ASITNS(1 * mb)
	if y != 2*x {
		t.Fatalf("ASIT not linear in cache size: %d vs %d", x, y)
	}
}

// TestTreeHelpers pins the tree-derived op counts at a scale small
// enough to count by hand: 256 KB is 64 counter blocks under an 8-ary
// tree of 8 + 1 nodes on 2 levels.
func TestTreeHelpers(t *testing.T) {
	const mem = 64 * PageBytes
	// 4096 data blocks x (fetch + 1 trial) + 64 leaves + 2 x 9 nodes.
	if ops := OsirisFullOps(mem, 1); ops != 8192+64+18 {
		t.Fatalf("OsirisFullOps(256KB) = %d, want %d", ops, 8192+64+18)
	}
	for levels, want := range []uint64{64 + 8 + 8 + 1, 8 + 1, 1} {
		if ops := TriadOps(mem, levels); ops != want {
			t.Fatalf("TriadOps(256KB, %d) = %d, want %d", levels, ops, want)
		}
	}
	if g := tree(16 << 30); g.Levels() != 8 {
		t.Fatalf("16GB levels = %d, want 8", g.Levels())
	}
}

func TestFormatDuration(t *testing.T) {
	cases := map[uint64]string{
		28193 * 1e9: "h",
		90 * 1e9:    "min",
		2 * 1e9:     "s",
		30 * 1e6:    "ms",
		500:         "µs",
	}
	for ns, unit := range cases {
		got := FormatDuration(ns)
		if !strings.Contains(got, unit) {
			t.Fatalf("FormatDuration(%d) = %q, want unit %q", ns, got, unit)
		}
	}
}

func TestSpeedupEdge(t *testing.T) {
	cases := []struct {
		name       string
		slow, fast uint64
		want       float64
	}{
		{"zero denominator", 100, 0, 0},
		{"both zero", 0, 0, 0},
		{"zero numerator", 0, 5, 0},
		{"equal values", 7, 7, 1},
		{"equal large values", 1 << 40, 1 << 40, 1},
		{"simple ratio", 300, 100, 3},
		{"sub-unity (slowdown)", 100, 400, 0.25},
	}
	for _, c := range cases {
		if got := Speedup(c.slow, c.fast); got != c.want {
			t.Errorf("%s: Speedup(%d, %d) = %v, want %v", c.name, c.slow, c.fast, got, c.want)
		}
	}
}

// TestFormatDurationBoundaries pins the exact rendering at every unit
// boundary: values just below and at each threshold must pick the
// expected unit and precision.
func TestFormatDurationBoundaries(t *testing.T) {
	cases := []struct {
		name string
		ns   uint64
		want string
	}{
		{"one ns", 1, "0 µs"},
		{"sub-microsecond", 500, "0 µs"},
		{"one µs", 1_000, "1 µs"},
		{"just below ms", 999_000, "999 µs"},
		{"one ms", 1_000_000, "1.00 ms"},
		{"just below s", 999_000_000, "999.00 ms"},
		{"one second", 1_000_000_000, "1.00 s"},
		{"paper headline 0.03s", 30_000_000, "30.00 ms"},
		{"just below a minute", 59_500_000_000, "59.50 s"},
		{"one minute", 60_000_000_000, "1.0 min"},
		{"just below an hour", 3_599_000_000_000, "60.0 min"},
		{"one hour", 3_600_000_000_000, "1.0 h"},
		{"paper headline 7.8h", 28_193_000_000_000, "7.8 h"},
	}
	for _, c := range cases {
		if got := FormatDuration(c.ns); got != c.want {
			t.Errorf("%s: FormatDuration(%d) = %q, want %q", c.name, c.ns, got, c.want)
		}
	}
}

func TestTriadOpsDecreaseWithLevels(t *testing.T) {
	mem := uint64(8) * tb
	prev := TriadOps(mem, 0)
	for levels := 1; levels <= 6; levels++ {
		cur := TriadOps(mem, levels)
		if cur >= prev {
			t.Fatalf("levels %d: ops %d not below %d", levels, cur, prev)
		}
		// Each persisted level removes roughly an 8x slice of the work.
		prev = cur
	}
}

func TestTriadBetweenOsirisAndAnubis(t *testing.T) {
	mem := uint64(8) * tb
	osiris := OsirisFullNS(mem, 1.05)
	triad0 := TriadNS(mem, 0)
	agit := AGITNS(256*kb, 256*kb)
	if triad0 >= osiris {
		t.Fatalf("triad level-0 (%d) not below Osiris (%d): no data reads should be needed", triad0, osiris)
	}
	if TriadNS(mem, 3) <= agit {
		t.Fatalf("triad level-3 at 8TB should still exceed Anubis's cache-bound recovery")
	}
	// Triad stays memory-bound: doubling memory doubles work.
	if r := float64(TriadNS(2*mem, 2)) / float64(TriadNS(mem, 2)); r < 1.9 || r > 2.1 {
		t.Fatalf("triad not linear in memory: ratio %.2f", r)
	}
}

func TestTriadFullyPersistedIsConstant(t *testing.T) {
	// Persisting every level leaves only the root re-hash.
	mem := uint64(1) * gb
	if ops := TriadOps(mem, 64); ops != 1 {
		t.Fatalf("fully persisted triad ops = %d, want 1", ops)
	}
}
