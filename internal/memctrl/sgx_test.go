package memctrl

import (
	"errors"
	"math/rand"
	"testing"

	"anubis/internal/counter"
	"anubis/internal/nvm"
)

func newSGX(t *testing.T, s Scheme) *SGX {
	t.Helper()
	c, err := NewSGX(TestConfig(s))
	if err != nil {
		t.Fatal(err)
	}
	return c
}

var sgxSchemes = []Scheme{SchemeWriteBack, SchemeStrict, SchemeOsiris, SchemeASIT}

func TestSGXReadUnwrittenIsZero(t *testing.T) {
	c := newSGX(t, SchemeWriteBack)
	got, err := c.ReadBlock(99)
	if err != nil {
		t.Fatal(err)
	}
	if got != ([BlockBytes]byte{}) {
		t.Fatal("unwritten block not zero")
	}
}

func TestSGXWriteReadRoundTrip(t *testing.T) {
	for _, s := range sgxSchemes {
		t.Run(s.String(), func(t *testing.T) {
			c := newSGX(t, s)
			for i := uint64(0); i < 60; i++ {
				if err := c.WriteBlock(i*31%c.NumBlocks(), pattern(i)); err != nil {
					t.Fatalf("write %d: %v", i, err)
				}
			}
			for i := uint64(0); i < 60; i++ {
				got, err := c.ReadBlock(i * 31 % c.NumBlocks())
				if err != nil {
					t.Fatalf("read %d: %v", i, err)
				}
				if got != pattern(i) {
					t.Fatalf("block %d corrupted", i)
				}
			}
		})
	}
}

func TestSGXEvictionPressure(t *testing.T) {
	// Touch many distinct leaf blocks and tree paths: dirty evictions
	// exercise the lazy-update writeback (parent nonce bump, MAC rebind).
	for _, s := range sgxSchemes {
		t.Run(s.String(), func(t *testing.T) {
			c := newSGX(t, s)
			n := c.NumBlocks()
			for i := uint64(0); i < 600; i++ {
				addr := (i * counter.SGXCounters * 13) % n
				if err := c.WriteBlock(addr, pattern(i)); err != nil {
					t.Fatalf("write %d: %v", i, err)
				}
			}
			for i := uint64(0); i < 600; i++ {
				addr := (i * counter.SGXCounters * 13) % n
				got, err := c.ReadBlock(addr)
				if err != nil {
					t.Fatalf("read back %d: %v", i, err)
				}
				if got != pattern(i) {
					t.Fatalf("block %d corrupted", i)
				}
			}
			if c.Stats().TreeCache.Evictions == 0 {
				t.Fatal("no evictions exercised")
			}
		})
	}
}

func TestSGXFlushThenColdRead(t *testing.T) {
	// After FlushCaches, every fetched node must verify against its
	// parent chain in NVM (lazy MACs rebound at writeback).
	c := newSGX(t, SchemeWriteBack)
	for i := uint64(0); i < 100; i++ {
		c.WriteBlock(i*8, pattern(i))
	}
	c.FlushCaches()
	if c.mCache.DirtyCount() != 0 {
		t.Fatal("dirty lines survive flush")
	}
	c.Crash()
	if _, err := c.Recover(); !errors.Is(err, ErrNotRecoverable) {
		t.Fatalf("Recover = %v", err)
	}
	for i := uint64(0); i < 100; i++ {
		got, err := c.ReadBlock(i * 8)
		if err != nil {
			t.Fatalf("cold read %d: %v", i, err)
		}
		if got != pattern(i) {
			t.Fatalf("block %d corrupted", i)
		}
	}
}

// --- tamper detection ---

func TestSGXDetectsDataTampering(t *testing.T) {
	c := newSGX(t, SchemeASIT)
	c.WriteBlock(5, pattern(5))
	c.Device().CorruptBlock(nvm.RegionData, 5, 10, 0x40)
	_, err := c.ReadBlock(5)
	var ie *IntegrityError
	if !errors.As(err, &ie) {
		t.Fatalf("tampered data read = %v, want IntegrityError", err)
	}
}

func TestSGXDetectsCounterTampering(t *testing.T) {
	c := newSGX(t, SchemeStrict)
	c.WriteBlock(5, pattern(5))
	c.FlushCaches()
	c.Crash()
	if _, err := c.Recover(); err != nil {
		t.Fatal(err)
	}
	c.Device().CorruptBlock(nvm.RegionCounter, 0, 0, 0x01)
	_, err := c.ReadBlock(5)
	var ie *IntegrityError
	if !errors.As(err, &ie) {
		t.Fatalf("tampered counter read = %v, want IntegrityError", err)
	}
}

func TestSGXDetectsCounterReplay(t *testing.T) {
	c := newSGX(t, SchemeStrict)
	c.WriteBlock(0, pattern(1))
	c.FlushCaches()
	old := c.Device().Read(nvm.RegionCounter, 0)
	for v := uint64(2); v < 6; v++ {
		c.WriteBlock(0, pattern(v))
	}
	c.FlushCaches()
	c.Crash()
	c.Recover()
	c.Device().WriteRaw(nvm.RegionCounter, 0, old)
	_, err := c.ReadBlock(0)
	var ie *IntegrityError
	if !errors.As(err, &ie) {
		t.Fatalf("replayed counter read = %v, want IntegrityError", err)
	}
}

func TestSGXZeroBlockForgeryRejected(t *testing.T) {
	// Zeroing a node in NVM is only acceptable while its parent counter
	// is zero; after the first writeback it must be rejected.
	c := newSGX(t, SchemeWriteBack)
	n := c.NumBlocks()
	for i := uint64(0); i < 600; i++ { // force leaf evictions (writebacks)
		c.WriteBlock((i*counter.SGXCounters*13)%n, pattern(i))
	}
	c.FlushCaches()
	c.Crash()
	c.Recover()
	// Find a leaf whose parent counter is nonzero and zero it.
	var target uint64
	found := false
	for _, idx := range c.Device().BlocksIn(nvm.RegionCounter) {
		c.Device().WriteRaw(nvm.RegionCounter, idx, [BlockBytes]byte{})
		target = idx
		found = true
		break
	}
	if !found {
		t.Skip("no persisted counter blocks")
	}
	_, err := c.ReadBlock(target * counter.SGXCounters)
	var ie *IntegrityError
	if !errors.As(err, &ie) {
		t.Fatalf("zeroed node accepted: %v", err)
	}
}

// --- crash & recovery ---

func sgxFillAndCrash(t *testing.T, c *SGX, writes int) map[uint64][BlockBytes]byte {
	t.Helper()
	rng := rand.New(rand.NewSource(43))
	expect := make(map[uint64][BlockBytes]byte)
	for i := 0; i < writes; i++ {
		addr := uint64(rng.Intn(int(c.NumBlocks())))
		d := pattern(uint64(i) * 17)
		if err := c.WriteBlock(addr, d); err != nil {
			t.Fatalf("write %d: %v", i, err)
		}
		expect[addr] = d
	}
	c.Crash()
	return expect
}

func TestSGXWriteBackUnrecoverable(t *testing.T) {
	c := newSGX(t, SchemeWriteBack)
	expect := sgxFillAndCrash(t, c, 400)
	if _, err := c.Recover(); !errors.Is(err, ErrNotRecoverable) {
		t.Fatalf("Recover = %v, want ErrNotRecoverable", err)
	}
	failures := 0
	for addr := range expect {
		if _, err := c.ReadBlock(addr); err != nil {
			failures++
		}
	}
	if failures == 0 {
		t.Fatal("dirty crash left a consistent image; test should exercise dirty state")
	}
}

func TestSGXOsirisCannotRecoverTree(t *testing.T) {
	// The paper's motivating observation: counter recovery alone cannot
	// rebuild a parallelizable tree.
	c := newSGX(t, SchemeOsiris)
	sgxFillAndCrash(t, c, 400)
	if _, err := c.Recover(); !errors.Is(err, ErrNotRecoverable) {
		t.Fatalf("Recover = %v, want ErrNotRecoverable", err)
	}
}

func TestSGXStrictRecovers(t *testing.T) {
	c := newSGX(t, SchemeStrict)
	expect := sgxFillAndCrash(t, c, 400)
	rep, err := c.Recover()
	if err != nil {
		t.Fatal(err)
	}
	if rep.FetchOps != 0 {
		t.Fatalf("strict recovery fetched %d blocks, want 0", rep.FetchOps)
	}
	for addr, want := range expect {
		got, err := c.ReadBlock(addr)
		if err != nil {
			t.Fatalf("read %d: %v", addr, err)
		}
		if got != want {
			t.Fatalf("block %d corrupted", addr)
		}
	}
}

func TestSGXASITRecovers(t *testing.T) {
	c := newSGX(t, SchemeASIT)
	expect := sgxFillAndCrash(t, c, 400)
	rep, err := c.Recover()
	if err != nil {
		t.Fatal(err)
	}
	if rep.EntriesScanned == 0 {
		t.Fatal("ASIT recovery found no shadow entries despite dirty cache")
	}
	for addr, want := range expect {
		got, err := c.ReadBlock(addr)
		if err != nil {
			t.Fatalf("read %d: %v", addr, err)
		}
		if got != want {
			t.Fatalf("block %d corrupted", addr)
		}
	}
}

func TestSGXASITRecoveryBounded(t *testing.T) {
	// Recovery work must be bounded by the shadow table (cache) size,
	// regardless of how much was written.
	c := newSGX(t, SchemeASIT)
	sgxFillAndCrash(t, c, 2000)
	rep, err := c.Recover()
	if err != nil {
		t.Fatal(err)
	}
	maxOps := uint64(c.st.NumSlots()) * 4 // ST read + stale read + parent read + slack
	if rep.FetchOps > maxOps {
		t.Fatalf("ASIT recovery fetches (%d) exceed cache-bounded budget (%d)", rep.FetchOps, maxOps)
	}
}

func TestSGXASITRepeatedCrashRecover(t *testing.T) {
	c := newSGX(t, SchemeASIT)
	expect := make(map[uint64][BlockBytes]byte)
	for round := 0; round < 5; round++ {
		for i := uint64(0); i < 80; i++ {
			addr := (uint64(round)*97 + i*41) % c.NumBlocks()
			d := pattern(uint64(round)<<24 | i)
			if err := c.WriteBlock(addr, d); err != nil {
				t.Fatalf("round %d write %d: %v", round, i, err)
			}
			expect[addr] = d
		}
		c.Crash()
		if _, err := c.Recover(); err != nil {
			t.Fatalf("round %d: %v", round, err)
		}
	}
	for addr, want := range expect {
		got, err := c.ReadBlock(addr)
		if err != nil || got != want {
			t.Fatalf("block %d after rounds: %v", addr, err)
		}
	}
}

func TestSGXASITCleanCrashRecovers(t *testing.T) {
	c := newSGX(t, SchemeASIT)
	for i := uint64(0); i < 50; i++ {
		c.WriteBlock(i*8, pattern(i))
	}
	c.FlushCaches()
	c.Crash()
	rep, err := c.Recover()
	if err != nil {
		t.Fatal(err)
	}
	// Shadow entries persist after a flush (they are self-consistent
	// with the written-back state), so recovery may scan them — but it
	// must reproduce exactly the flushed data.
	if rep.RedoneWrites != 0 {
		t.Fatalf("clean crash redid %d writes", rep.RedoneWrites)
	}
	for i := uint64(0); i < 50; i++ {
		got, err := c.ReadBlock(i * 8)
		if err != nil || got != pattern(i) {
			t.Fatalf("read %d: %v", i, err)
		}
	}
}

func TestSGXASITDetectsShadowTampering(t *testing.T) {
	c := newSGX(t, SchemeASIT)
	sgxFillAndCrash(t, c, 300)
	blocks := c.Device().BlocksIn(nvm.RegionST)
	if len(blocks) == 0 {
		t.Fatal("no shadow table blocks written")
	}
	c.Device().CorruptBlock(nvm.RegionST, blocks[0], 20, 0x01)
	_, err := c.Recover()
	if !errors.Is(err, ErrUnrecoverable) {
		t.Fatalf("Recover with tampered ST = %v, want ErrUnrecoverable", err)
	}
}

func TestSGXASITDetectsStaleNodeMSBTampering(t *testing.T) {
	// Recovery splices shadow LSBs onto in-memory MSBs; tampering with
	// the MSBs must be caught by the MAC verification step.
	c := newSGX(t, SchemeASIT)
	sgxFillAndCrash(t, c, 300)
	tampered := false
	for _, idx := range c.Device().BlocksIn(nvm.RegionCounter) {
		if _, ok := c.st.Get(0); ok {
			_ = ok
		}
		// Flip a high-order counter bit (byte 6 holds counter 0's MSBs).
		c.Device().CorruptBlock(nvm.RegionCounter, idx, 6, 0x80)
		tampered = true
	}
	if !tampered {
		// Ensure at least some persisted blocks exist by corrupting via
		// the tree region instead.
		for _, idx := range c.Device().BlocksIn(nvm.RegionTree) {
			c.Device().CorruptBlock(nvm.RegionTree, idx, 6, 0x80)
			tampered = true
		}
	}
	if !tampered {
		t.Skip("no persisted metadata to tamper with")
	}
	_, err := c.Recover()
	if err == nil {
		// Tampered blocks may not be among the tracked ones; then reads
		// must catch it instead.
		failures := 0
		for i := uint64(0); i < c.NumBlocks(); i += counter.SGXCounters {
			if _, err := c.ReadBlock(i); err != nil {
				failures++
			}
		}
		if failures == 0 {
			t.Fatal("MSB tampering went completely undetected")
		}
	}
}

func TestSGXCommitGroupAtomicAcrossCrash(t *testing.T) {
	c := newSGX(t, SchemeASIT)
	c.WriteBlock(3, pattern(1))
	c.Device().SetPushBudget(1)
	c.WriteBlock(3, pattern(2))
	c.Device().SetPushBudget(-1)
	c.Crash()
	rep, err := c.Recover()
	if err != nil {
		t.Fatal(err)
	}
	if rep.RedoneWrites == 0 {
		t.Fatal("interrupted group not redone")
	}
	got, err := c.ReadBlock(3)
	if err != nil {
		t.Fatal(err)
	}
	if got != pattern(2) {
		t.Fatal("committed write lost")
	}
}

// --- scheme traffic characteristics ---

func TestSGXStrictWriteAmplification(t *testing.T) {
	wb := newSGX(t, SchemeWriteBack)
	st := newSGX(t, SchemeStrict)
	for i := uint64(0); i < 100; i++ {
		addr := (i * counter.SGXCounters) % wb.NumBlocks()
		wb.WriteBlock(addr, pattern(i))
		st.WriteBlock(addr, pattern(i))
	}
	// Strict persists the whole path per write: levels+1 metadata blocks.
	want := uint64(100) * uint64(st.geom.Levels())
	if got := st.Stats().StrictWrites; got < want {
		t.Fatalf("strict metadata writes = %d, want >= %d", got, want)
	}
	if st.Stats().NVM.Writes < 2*wb.Stats().NVM.Writes {
		t.Fatalf("strict NVM writes (%d) not amplified vs write-back (%d)",
			st.Stats().NVM.Writes, wb.Stats().NVM.Writes)
	}
}

func TestSGXASITOneShadowWritePerDataWrite(t *testing.T) {
	// §6.2: "ASIT only incurs one extra write operation per memory
	// write" (plus eviction-driven entries). With no eviction pressure,
	// shadow writes == data writes exactly.
	cfg := TestConfig(SchemeASIT)
	cfg.MetaCacheBlocks = 512 // large enough to avoid evictions
	cfg.MetaCacheWays = 8
	c, err := NewSGX(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for i := uint64(0); i < 100; i++ {
		c.WriteBlock(i%64, pattern(i)) // hot set, no evictions
	}
	st := c.Stats()
	if st.TreeCache.Evictions != 0 {
		t.Skip("unexpected evictions; cannot isolate per-write shadow cost")
	}
	if st.ShadowWrites != 100 {
		t.Fatalf("shadow writes = %d, want exactly 100", st.ShadowWrites)
	}
}

func TestSGXLazyVsStrictTraffic(t *testing.T) {
	// The lazy scheme must generate far fewer metadata writes than
	// strict for a hot working set.
	asit := newSGX(t, SchemeASIT)
	strict := newSGX(t, SchemeStrict)
	for i := uint64(0); i < 500; i++ {
		addr := (i % 32) * 8
		asit.WriteBlock(addr, pattern(i))
		strict.WriteBlock(addr, pattern(i))
	}
	aw := asit.Stats().NVM.WritesTo(nvm.RegionCounter) + asit.Stats().NVM.WritesTo(nvm.RegionTree)
	sw := strict.Stats().NVM.WritesTo(nvm.RegionCounter) + strict.Stats().NVM.WritesTo(nvm.RegionTree)
	if aw*2 >= sw {
		t.Fatalf("ASIT counter+tree writes (%d) not well below strict (%d)", aw, sw)
	}
}

func TestSGXRejectsAGITScheme(t *testing.T) {
	cfg := TestConfig(SchemeAGITRead)
	if _, err := NewSGX(cfg); err == nil {
		t.Fatal("SGX controller accepted an AGIT scheme")
	}
	if _, err := OpenSGX(cfg, nvm.NewDevice(cfg.Timing)); err == nil {
		t.Fatal("OpenSGX accepted an AGIT scheme")
	}
}

func TestSGXAddressBounds(t *testing.T) {
	c := newSGX(t, SchemeWriteBack)
	if _, err := c.ReadBlock(c.NumBlocks() + 1); err == nil {
		t.Fatal("out-of-range read accepted")
	}
	if err := c.WriteBlock(c.NumBlocks(), pattern(0)); err == nil {
		t.Fatal("out-of-range write accepted")
	}
}

func TestSGXCrashedControllerRefusesIO(t *testing.T) {
	c := newSGX(t, SchemeASIT)
	c.WriteBlock(0, pattern(0))
	c.Crash()
	if _, err := c.ReadBlock(0); err == nil {
		t.Fatal("read accepted on crashed controller")
	}
}

// TestSGXEpochOneIsStructurallyLegacy checks that the SGX family
// ignores EpochRequests: at windows 1, 4 and 16 every scheme, ASIT
// included, runs the eager path of window 0, with identical timing,
// statistics and persistent state.
func TestSGXEpochOneIsStructurallyLegacy(t *testing.T) {
	for _, s := range sgxSchemes {
		t.Run(s.String(), func(t *testing.T) {
			run := func(epoch int) *SGX {
				cfg := TestConfig(s)
				cfg.EpochRequests = epoch
				c, err := NewSGX(cfg)
				if err != nil {
					t.Fatal(err)
				}
				for i := uint64(0); i < 120; i++ {
					addr := (i * 37) % c.NumBlocks()
					if err := c.WriteBlock(addr, pattern(i)); err != nil {
						t.Fatal(err)
					}
					if i%3 == 0 {
						if _, err := c.ReadBlock(addr); err != nil {
							t.Fatal(err)
						}
					}
				}
				return c
			}
			base := run(0)
			for _, e := range []int{1, 4, 16} {
				other := run(e)
				if base.Now() != other.Now() {
					t.Fatalf("epoch %d: virtual clocks diverge: %d vs %d", e, base.Now(), other.Now())
				}
				if base.Stats() != other.Stats() {
					t.Fatalf("epoch %d: stats diverge:\n%+v\n%+v", e, base.Stats(), other.Stats())
				}
				if base.Device().StateDigest() != other.Device().StateDigest() {
					t.Fatalf("epoch %d: persistent state diverges", e)
				}
			}
		})
	}
}
