package memctrl

import (
	"errors"
	"testing"

	"anubis/internal/counter"
)

// These tests keep the names they had while Bonsai could defer tree
// updates over an epoch window. Each now checks the same property on the
// one eager write path, which every scheme takes.

// eagerCase is one Bonsai configuration: every scheme, plus Triad with
// two persisted tree levels.
type eagerCase struct {
	name   string
	scheme Scheme
	levels int // TriadLevels
}

var eagerCases = []eagerCase{
	{"writeback", SchemeWriteBack, 0},
	{"strict", SchemeStrict, 0},
	{"osiris", SchemeOsiris, 0},
	{"agit-read", SchemeAGITRead, 0},
	{"agit-plus", SchemeAGITPlus, 0},
	{"selective", SchemeSelective, 0},
	{"triad", SchemeTriad, 0},
	{"triad-2", SchemeTriad, 2},
}

// treePersistingCases are the eagerCases whose write commit group
// carries tree nodes: Strict persists the whole path, Triad its lower
// levels.
func treePersistingCases() []eagerCase {
	var out []eagerCase
	for _, c := range eagerCases {
		if c.scheme == SchemeStrict || c.scheme == SchemeTriad {
			out = append(out, c)
		}
	}
	return out
}

func (c eagerCase) new(t *testing.T) *Bonsai {
	t.Helper()
	cfg := TestConfig(c.scheme)
	cfg.TriadLevels = c.levels
	b, err := NewBonsai(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

func TestEpochWriteReadRoundTrip(t *testing.T) {
	for _, c := range eagerCases {
		t.Run(c.name, func(t *testing.T) {
			b := c.new(t)
			n := b.NumBlocks()
			// One block per page: far more pages than the tiny caches
			// hold, so counter and tree evictions and refetches are
			// exercised.
			for i := uint64(0); i < 200; i++ {
				addr := (i * counter.SplitMinors) % n
				if err := b.WriteBlock(addr, pattern(i)); err != nil {
					t.Fatalf("write %d: %v", i, err)
				}
			}
			for i := uint64(0); i < 200; i++ {
				addr := (i * counter.SplitMinors) % n
				got, err := b.ReadBlock(addr)
				if err != nil {
					t.Fatalf("read back %d: %v", i, err)
				}
				if got != pattern(i) {
					t.Fatalf("page %d corrupted", i)
				}
			}
		})
	}
}

// TestEpochRootMatchesLegacyAfterClose checks that the root register is
// a function of counter content only: the same writes issued in reverse
// order anchor the exact same root.
func TestEpochRootMatchesLegacyAfterClose(t *testing.T) {
	for _, c := range eagerCases {
		t.Run(c.name, func(t *testing.T) {
			forward, reverse := c.new(t), c.new(t)
			const writes = 100
			addr := func(i uint64) uint64 { return (i * counter.SplitMinors * 3) % forward.NumBlocks() }
			for i := uint64(0); i < writes; i++ {
				if err := forward.WriteBlock(addr(i), pattern(i)); err != nil {
					t.Fatal(err)
				}
				j := writes - 1 - i
				if err := reverse.WriteBlock(addr(j), pattern(j)); err != nil {
					t.Fatal(err)
				}
			}
			fr, ok := forward.Device().GetReg64(regBonsaiRoot)
			if !ok {
				t.Fatal("no root register after eager writes")
			}
			rr, _ := reverse.Device().GetReg64(regBonsaiRoot)
			if fr != rr {
				t.Fatalf("root registers disagree: %#x vs %#x", fr, rr)
			}
		})
	}
}

// TestEpochMidWindowCrashRecovery crashes after a stream of writes with
// nothing flushed: every recoverable scheme must bring back each block's
// latest value, and write-back must report that it cannot recover.
func TestEpochMidWindowCrashRecovery(t *testing.T) {
	for _, c := range eagerCases {
		t.Run(c.name, func(t *testing.T) {
			b := c.new(t)
			n := b.NumBlocks()
			for i := uint64(0); i < 60; i++ {
				addr := (i * counter.SplitMinors) % n
				if err := b.WriteBlock(addr, pattern(i)); err != nil {
					t.Fatal(err)
				}
			}
			b.Crash()
			_, err := b.Recover()
			if c.scheme == SchemeWriteBack {
				if !errors.Is(err, ErrNotRecoverable) {
					t.Fatalf("write-back recovery: %v", err)
				}
				return
			}
			if err != nil {
				t.Fatalf("recovery failed: %v", err)
			}
			for i := uint64(0); i < 60; i++ {
				addr := (i * counter.SplitMinors) % n
				got, err := b.ReadBlock(addr)
				if err != nil {
					t.Fatalf("post-recovery read %d: %v", i, err)
				}
				if got != pattern(i) {
					t.Fatalf("block %d lost its latest value", addr)
				}
			}
		})
	}
}

// TestEpochHalfDrainedCloseRecovers crashes with a write's commit group
// half-drained (power loss mid-WPQ-drain) where that group carries tree
// nodes: the DONE_BIT redo must replay the full group — data, counter,
// tree nodes and root register — before scheme recovery runs.
func TestEpochHalfDrainedCloseRecovers(t *testing.T) {
	for _, c := range treePersistingCases() {
		t.Run(c.name, func(t *testing.T) {
			b := c.new(t)
			for i := uint64(0); i < 3; i++ {
				if err := b.WriteBlock(i*counter.SplitMinors, pattern(i)); err != nil {
					t.Fatal(err)
				}
			}
			// Power dies after the 4th write's first push; every group
			// has at least two entries (the data and the root register),
			// so the group always tears.
			b.Device().SetPushBudget(1)
			if err := b.WriteBlock(3*counter.SplitMinors, pattern(3)); err != nil {
				t.Fatal(err)
			}
			if !b.Device().DoneBit() {
				t.Fatal("commit group drained fully; budget did not bite")
			}
			b.Crash()
			rep, err := b.Recover()
			if err != nil {
				t.Fatalf("recovery failed: %v", err)
			}
			if rep.RedoneWrites == 0 {
				t.Fatal("interrupted group was not redone")
			}
			for i := uint64(0); i < 4; i++ {
				got, err := b.ReadBlock(i * counter.SplitMinors)
				if err != nil {
					t.Fatalf("read %d: %v", i, err)
				}
				if got != pattern(i) {
					t.Fatalf("block %d lost its latest value", i)
				}
			}
		})
	}
}

// TestEpochPageOverflowFallsBackToLegacy checks that a minor-counter
// overflow on a scheme that persists tree nodes re-encrypts the page
// and keeps the tree consistent for later writes to other pages.
func TestEpochPageOverflowFallsBackToLegacy(t *testing.T) {
	for _, c := range treePersistingCases() {
		t.Run(c.name, func(t *testing.T) {
			b := c.new(t)
			for i := 0; i <= counter.MinorMax+1; i++ {
				if err := b.WriteBlock(0, pattern(uint64(i))); err != nil {
					t.Fatalf("write %d: %v", i, err)
				}
			}
			if b.Stats().PageOverflows == 0 {
				t.Fatal("overflow did not happen")
			}
			got, err := b.ReadBlock(0)
			if err != nil {
				t.Fatal(err)
			}
			if got != pattern(uint64(counter.MinorMax+1)) {
				t.Fatal("post-overflow value lost")
			}
			if err := b.WriteBlock(counter.SplitMinors, pattern(7)); err != nil {
				t.Fatal(err)
			}
			if got, err := b.ReadBlock(counter.SplitMinors); err != nil || got != pattern(7) {
				t.Fatalf("write after the overflow: %v", err)
			}
		})
	}
}
