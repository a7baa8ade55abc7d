package memctrl

import (
	"encoding/binary"
	"errors"
	"math/rand"
	"runtime"
	"slices"
	"testing"

	"anubis/internal/counter"
	"anubis/internal/merkle"
	"anubis/internal/nvm"
	"anubis/internal/shadow"
)

// TestBonsaiForkCrashCopiesNoCache: the caches of a fork are shared
// copy-on-write and let go at crash, so forking a warm Bonsai
// controller and crashing the fork copies neither cache. At
// DefaultConfig's cache sizes an eager copy of the two caches is about
// 850 KiB; the fork's top-level page directories (one pointer per
// 2 MiB of region) and registers stay far below the bound.
func TestBonsaiForkCrashCopiesNoCache(t *testing.T) {
	if raceEnabled {
		t.Skip("race runtime allocates on instrumented accesses; counts are not meaningful")
	}
	cfg := DefaultConfig(SchemeOsiris)
	cfg.MemoryBytes = 1 << 20
	b, err := NewBonsai(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for i := uint64(0); i < 500; i++ {
		if err := b.WriteBlock(i*7%b.NumBlocks(), pattern(i)); err != nil {
			t.Fatal(err)
		}
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	child := b.Clone()
	child.Crash()
	runtime.ReadMemStats(&after)
	if d := after.TotalAlloc - before.TotalAlloc; d >= 64<<10 {
		t.Fatalf("Clone + Crash allocated %d bytes, want < 64 KiB", d)
	}
	if _, err := child.Recover(); err != nil {
		t.Fatalf("the crashed fork does not recover: %v", err)
	}
	if got, err := b.ReadBlock(7); err != nil || got != pattern(1) {
		t.Fatalf("the parent lost block 7 after its fork crashed: %v", err)
	}
}

// TestPaperScaleControllersCostWhatTheyTouch bounds what building a
// controller at DefaultConfig's 16 GiB allocates, and what forking a
// warm one and crashing the fork allocates, for the three schemes the
// recovery sweeps fork. Neither may scale with the memory the
// controller could address: the device reserves only its top-level
// page directories, and a fork shares chunks, pages, caches and shadow
// mirrors copy-on-write and lets go of the volatile ones at crash.
func TestPaperScaleControllersCostWhatTheyTouch(t *testing.T) {
	if raceEnabled {
		t.Skip("race runtime allocates on instrumented accesses; counts are not meaningful")
	}
	for _, s := range []Scheme{SchemeOsiris, SchemeAGITPlus, SchemeASIT} {
		t.Run(s.String(), func(t *testing.T) {
			cfg := DefaultConfig(s)
			f := FamilyBonsai
			if s == SchemeASIT {
				f = FamilySGX
			}
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			c, err := New(f, cfg)
			runtime.ReadMemStats(&after)
			if err != nil {
				t.Fatal(err)
			}
			if d := after.TotalAlloc - before.TotalAlloc; d >= 4<<20 {
				t.Errorf("New at %d GiB allocated %d bytes, want < 4 MiB", cfg.MemoryBytes>>30, d)
			}
			// Scattered writes touch one directory chunk each.
			for i := uint64(0); i < 2000; i++ {
				if err := c.WriteBlock(i*0x9e3779b9%c.NumBlocks(), pattern(i)); err != nil {
					t.Fatal(err)
				}
			}
			runtime.ReadMemStats(&before)
			child := c.Clone()
			child.Crash()
			runtime.ReadMemStats(&after)
			if d := after.TotalAlloc - before.TotalAlloc; d >= 2<<20 {
				t.Errorf("Clone + Crash at %d GiB allocated %d bytes, want < 2 MiB", cfg.MemoryBytes>>30, d)
			}
			if _, err := child.Recover(); err != nil {
				t.Fatalf("the crashed fork does not recover: %v", err)
			}
			if got, err := c.ReadBlock(0x9e3779b9 % c.NumBlocks()); err != nil || got != pattern(1) {
				t.Fatalf("the parent lost a block after its fork crashed: %v", err)
			}
		})
	}
}

// TestAGITChecksSCTKeysBeforeRepair: an out-of-range SCT key fails
// recovery before any counter page is rewritten, wherever in the
// table it sits.
func TestAGITChecksSCTKeysBeforeRepair(t *testing.T) {
	b := newBonsai(t, SchemeAGITPlus)
	for i := uint64(0); i < 200; i++ {
		if err := b.WriteBlock(i*13%b.NumBlocks(), pattern(i)); err != nil {
			t.Fatal(err)
		}
	}
	b.Crash()
	// The untampered image repairs counter pages.
	if rep, err := b.Clone().Recover(); err != nil || rep.CountersFixed == 0 {
		t.Fatalf("control recovery: %d counters fixed, err %v; want a repair", rep.CountersFixed, err)
	}
	// Put a key beyond memory in the SCT's last slot, after every
	// genuine entry.
	last := b.cCache.NumSlots() - 1
	bi := uint64(last / shadow.AddrEntriesPerBlock)
	blk := b.dev.Read(nvm.RegionSCT, bi)
	binary.LittleEndian.PutUint64(blk[last%shadow.AddrEntriesPerBlock*8:], 1<<40+1)
	b.dev.WriteRaw(nvm.RegionSCT, bi, blk)
	image := b.dev.StateDigest()
	if _, err := b.Recover(); !errors.Is(err, ErrUnrecoverable) {
		t.Fatalf("Recover with an out-of-range SCT key = %v, want ErrUnrecoverable", err)
	}
	if b.dev.StateDigest() != image {
		t.Fatal("a failed recovery rewrote the image before it checked the SCT's keys")
	}
}

// TestTrackedKeysMatchesSortCompact pins trackedKeys' radix sort to
// slices.Sort plus Compact: tables empty, full, with stale duplicates,
// and with keys whose top byte is set (one pass per byte then).
func TestTrackedKeysMatchesSortCompact(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for _, tc := range []struct {
		slots, live int
		span        uint64
	}{{1, 0, 1}, {1, 1, 1}, {64, 64, 1}, {300, 200, 256}, {2048, 1500, 8192}, {2048, 2048, 1 << 40}, {500, 400, 1 << 63}} {
		tab := shadow.NewAddrTable(tc.slots)
		var want []uint64
		for _, slot := range rng.Perm(tc.slots)[:tc.live] {
			key := rng.Uint64() % tc.span
			tab.Set(slot, key)
			want = append(want, key)
		}
		slices.Sort(want)
		want = slices.Compact(want)
		var rep RecoveryReport
		got := trackedKeys(tab, &rep)
		if !slices.Equal(got, want) || rep.EntriesScanned != uint64(tc.live) {
			t.Fatalf("%d of %d slots over [0, %#x): %d keys, %d scanned; want %d keys, %d scanned",
				tc.live, tc.slots, tc.span, len(got), rep.EntriesScanned, len(want), tc.live)
		}
	}
}

// TestASITRejectsEntryOutsideItsSet: the shadow table mirrors the cache
// slot for slot, so an authenticated entry outside its key's cache set
// fails recovery even when it would not win: here an older duplicate,
// which the newest-entry rule alone would skip.
func TestASITRejectsEntryOutsideItsSet(t *testing.T) {
	c := newSGX(t, SchemeASIT)
	sgxFillAndCrash(t, c, 12) // few enough writes to leave shadow slots free
	if _, err := c.Clone().Recover(); err != nil {
		t.Fatalf("control recovery: %v", err)
	}
	c.st.Restore(func(bi uint64) [BlockBytes]byte { return c.dev.Read(nvm.RegionST, bi) })
	ways := c.mCache.Ways()
	src, dst := -1, -1
	for slot := 0; slot < c.st.NumSlots(); slot++ {
		_, live := c.st.Get(slot)
		switch {
		case live && src < 0:
			src = slot
		case !live && src >= 0 && slot/ways != src/ways && dst < 0:
			dst = slot
		}
	}
	if src < 0 || dst < 0 {
		t.Fatalf("no live entry with a free slot in another set (live slot %d, free slot %d)", src, dst)
	}
	e, _ := c.st.Get(src)
	// The duplicate carries the LSBs of the block's NVM copy: no newer
	// than NVM, so it never wins.
	region, idx := c.regionIdx(c.refOfKey(e.Key))
	stale := counter.UnpackSGX(c.dev.Read(region, idx))
	dup := shadow.STEntry{Key: e.Key, MAC: e.MAC}
	for i := range dup.LSBs {
		dup.LSBs[i] = stale.Ctr[i] & counter.LSBMask
	}
	bi, blk := c.st.Set(dst, dup)
	c.dev.WriteRaw(nvm.RegionST, bi, blk)
	var ops uint64
	root := merkle.BuildGeneral(*c.st.Tree(), c.eng,
		func(i uint64) [BlockBytes]byte { return c.st.Block(int(i)) },
		func(uint64, merkle.GNode) {}, &ops)
	c.dev.SetReg64(regShadowTreeRoot, root)
	if _, err := c.Recover(); !errors.Is(err, ErrUnrecoverable) {
		t.Fatalf("Recover with key %#x duplicated into slot %d (set %d, its set is %d) = %v, want ErrUnrecoverable",
			e.Key, dst, dst/ways, src/ways, err)
	}
}
