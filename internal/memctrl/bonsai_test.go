package memctrl

import (
	"errors"
	"math/rand"
	"testing"

	"anubis/internal/counter"
	"anubis/internal/nvm"
)

func pattern(seed uint64) (d [BlockBytes]byte) {
	x := seed*0x9e3779b97f4a7c15 + 1
	for i := range d {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		d[i] = byte(x)
	}
	return d
}

func newBonsai(t *testing.T, s Scheme) *Bonsai {
	t.Helper()
	b, err := NewBonsai(TestConfig(s))
	if err != nil {
		t.Fatal(err)
	}
	return b
}

var bonsaiSchemes = []Scheme{SchemeWriteBack, SchemeStrict, SchemeOsiris, SchemeAGITRead, SchemeAGITPlus}

func TestBonsaiReadUnwrittenIsZero(t *testing.T) {
	b := newBonsai(t, SchemeWriteBack)
	got, err := b.ReadBlock(10)
	if err != nil {
		t.Fatal(err)
	}
	if got != ([BlockBytes]byte{}) {
		t.Fatal("unwritten block not zero")
	}
}

func TestBonsaiWriteReadRoundTrip(t *testing.T) {
	for _, s := range bonsaiSchemes {
		t.Run(s.String(), func(t *testing.T) {
			b := newBonsai(t, s)
			for i := uint64(0); i < 50; i++ {
				if err := b.WriteBlock(i*37%b.NumBlocks(), pattern(i)); err != nil {
					t.Fatalf("write %d: %v", i, err)
				}
			}
			for i := uint64(0); i < 50; i++ {
				got, err := b.ReadBlock(i * 37 % b.NumBlocks())
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

func TestBonsaiOverwrite(t *testing.T) {
	b := newBonsai(t, SchemeOsiris)
	for v := uint64(0); v < 10; v++ {
		if err := b.WriteBlock(5, pattern(v)); err != nil {
			t.Fatal(err)
		}
	}
	got, err := b.ReadBlock(5)
	if err != nil {
		t.Fatal(err)
	}
	if got != pattern(9) {
		t.Fatal("overwrite lost")
	}
}

func TestBonsaiEvictionPressure(t *testing.T) {
	// Touch far more pages than the tiny caches hold, forcing evictions
	// and re-verification of counter blocks and tree nodes on re-read.
	b := newBonsai(t, SchemeAGITPlus)
	n := b.NumBlocks()
	for i := uint64(0); i < 200; i++ {
		addr := (i * counter.SplitMinors) % n // one block per page
		if err := b.WriteBlock(addr, pattern(i)); err != nil {
			t.Fatal(err)
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
	st := b.Stats()
	if st.CounterCache.Evictions == 0 {
		t.Fatal("test did not exercise evictions")
	}
}

func TestBonsaiAddressBounds(t *testing.T) {
	b := newBonsai(t, SchemeWriteBack)
	if _, err := b.ReadBlock(b.NumBlocks()); err == nil {
		t.Fatal("out-of-range read accepted")
	}
	if err := b.WriteBlock(b.NumBlocks()+5, pattern(0)); err == nil {
		t.Fatal("out-of-range write accepted")
	}
}

func TestBonsaiTimeAdvances(t *testing.T) {
	b := newBonsai(t, SchemeWriteBack)
	t0 := b.Now()
	b.WriteBlock(0, pattern(1))
	if b.Now() <= t0 {
		t.Fatal("write did not advance virtual time")
	}
	b.AdvanceTo(b.Now() + 1000)
	t1 := b.Now()
	b.ReadBlock(0)
	if b.Now() <= t1 {
		t.Fatal("read did not advance virtual time")
	}
	b.AdvanceTo(0) // must not go backwards
	if b.Now() < t1 {
		t.Fatal("AdvanceTo moved time backwards")
	}
}

// --- tamper detection ---

func TestBonsaiDetectsDataTampering(t *testing.T) {
	b := newBonsai(t, SchemeStrict)
	b.WriteBlock(3, pattern(3))
	b.Device().CorruptBlock(nvm.RegionData, 3, 0, 0xff)
	_, err := b.ReadBlock(3)
	var ie *IntegrityError
	if !errors.As(err, &ie) {
		t.Fatalf("tampered data read error = %v, want IntegrityError", err)
	}
}

func TestBonsaiDetectsCounterTampering(t *testing.T) {
	b := newBonsai(t, SchemeStrict)
	b.WriteBlock(3, pattern(3))
	b.FlushCaches()
	b.Crash() // drop caches so the tampered counter must be re-fetched
	if _, err := b.Recover(); err != nil {
		t.Fatal(err)
	}
	b.Device().CorruptBlock(nvm.RegionCounter, 0, 8, 0x01)
	_, err := b.ReadBlock(3)
	var ie *IntegrityError
	if !errors.As(err, &ie) {
		t.Fatalf("tampered counter read error = %v, want IntegrityError", err)
	}
}

func TestBonsaiDetectsTreeTampering(t *testing.T) {
	b := newBonsai(t, SchemeStrict)
	b.WriteBlock(3, pattern(3))
	b.FlushCaches()
	b.Crash()
	if _, err := b.Recover(); err != nil {
		t.Fatal(err)
	}
	b.Device().CorruptBlock(nvm.RegionTree, 0, 0, 0x80)
	_, err := b.ReadBlock(3)
	var ie *IntegrityError
	if !errors.As(err, &ie) {
		t.Fatalf("tampered tree read error = %v, want IntegrityError", err)
	}
}

func TestBonsaiDetectsCounterReplay(t *testing.T) {
	// Replay attack: restore an old counter block after newer writes.
	b := newBonsai(t, SchemeStrict)
	b.WriteBlock(0, pattern(1))
	b.FlushCaches()
	oldCounter := b.Device().Read(nvm.RegionCounter, 0)
	for v := uint64(2); v < 6; v++ {
		b.WriteBlock(0, pattern(v))
	}
	b.FlushCaches()
	b.Crash()
	b.Recover()
	b.Device().WriteRaw(nvm.RegionCounter, 0, oldCounter)
	_, err := b.ReadBlock(0)
	var ie *IntegrityError
	if !errors.As(err, &ie) {
		t.Fatalf("replayed counter read error = %v, want IntegrityError", err)
	}
}

// --- crash & recovery ---

func fillAndCrash(t *testing.T, b *Bonsai, writes int) map[uint64][BlockBytes]byte {
	t.Helper()
	rng := rand.New(rand.NewSource(42))
	expect := make(map[uint64][BlockBytes]byte)
	for i := 0; i < writes; i++ {
		addr := uint64(rng.Intn(int(b.NumBlocks())))
		d := pattern(uint64(i) * 31)
		if err := b.WriteBlock(addr, d); err != nil {
			t.Fatalf("write %d: %v", i, err)
		}
		expect[addr] = d
	}
	b.Crash()
	return expect
}

func verifyAll(t *testing.T, b *Bonsai, expect map[uint64][BlockBytes]byte) {
	t.Helper()
	for addr, want := range expect {
		got, err := b.ReadBlock(addr)
		if err != nil {
			t.Fatalf("post-recovery read %d: %v", addr, err)
		}
		if got != want {
			t.Fatalf("post-recovery block %d corrupted", addr)
		}
	}
}

func TestBonsaiCrashedControllerRefusesIO(t *testing.T) {
	b := newBonsai(t, SchemeStrict)
	b.WriteBlock(0, pattern(0))
	b.Crash()
	if _, err := b.ReadBlock(0); err == nil {
		t.Fatal("read accepted on crashed controller")
	}
	if err := b.WriteBlock(0, pattern(0)); err == nil {
		t.Fatal("write accepted on crashed controller")
	}
}

func TestBonsaiWriteBackUnrecoverable(t *testing.T) {
	b := newBonsai(t, SchemeWriteBack)
	expect := fillAndCrash(t, b, 300)
	_, err := b.Recover()
	if !errors.Is(err, ErrNotRecoverable) {
		t.Fatalf("Recover = %v, want ErrNotRecoverable", err)
	}
	// With dirty metadata lost, at least one read must fail verification.
	failures := 0
	for addr := range expect {
		if _, err := b.ReadBlock(addr); err != nil {
			failures++
		}
	}
	if failures == 0 {
		t.Fatal("write-back crash left a fully consistent image; test should exercise dirty state")
	}
}

func TestBonsaiWriteBackCleanShutdownReadable(t *testing.T) {
	b := newBonsai(t, SchemeWriteBack)
	for i := uint64(0); i < 50; i++ {
		b.WriteBlock(i*64, pattern(i))
	}
	b.FlushCaches()
	b.Crash()
	if _, err := b.Recover(); !errors.Is(err, ErrNotRecoverable) {
		t.Fatalf("Recover = %v", err)
	}
	for i := uint64(0); i < 50; i++ {
		got, err := b.ReadBlock(i * 64)
		if err != nil {
			t.Fatalf("read after clean shutdown: %v", err)
		}
		if got != pattern(i) {
			t.Fatal("clean shutdown lost data")
		}
	}
}

func TestBonsaiStrictRecovers(t *testing.T) {
	b := newBonsai(t, SchemeStrict)
	expect := fillAndCrash(t, b, 300)
	rep, err := b.Recover()
	if err != nil {
		t.Fatal(err)
	}
	if rep.FetchOps != 0 {
		t.Fatalf("strict recovery fetched %d blocks, want 0", rep.FetchOps)
	}
	verifyAll(t, b, expect)
}

func TestBonsaiOsirisFullRecovers(t *testing.T) {
	b := newBonsai(t, SchemeOsiris)
	expect := fillAndCrash(t, b, 300)
	rep, err := b.Recover()
	if err != nil {
		t.Fatal(err)
	}
	// Osiris iterates the whole memory: at least one fetch per page.
	if rep.FetchOps < b.numPages {
		t.Fatalf("full recovery fetched %d < pages %d", rep.FetchOps, b.numPages)
	}
	if rep.NodesRebuilt != b.geom.TotalNodes() {
		t.Fatalf("rebuilt %d nodes, want the whole tree (%d)", rep.NodesRebuilt, b.geom.TotalNodes())
	}
	verifyAll(t, b, expect)
}

func TestBonsaiAGITRecovers(t *testing.T) {
	for _, s := range []Scheme{SchemeAGITRead, SchemeAGITPlus} {
		t.Run(s.String(), func(t *testing.T) {
			b := newBonsai(t, s)
			expect := fillAndCrash(t, b, 300)
			rep, err := b.Recover()
			if err != nil {
				t.Fatal(err)
			}
			if rep.EntriesScanned == 0 {
				t.Fatal("AGIT recovery scanned no shadow entries")
			}
			verifyAll(t, b, expect)
		})
	}
}

func TestBonsaiAGITRecoveryIsBounded(t *testing.T) {
	// The headline claim: AGIT recovery work scales with the cache, not
	// with memory. Compare against a full Osiris recovery of the same
	// workload.
	runOps := func(s Scheme) uint64 {
		b := newBonsai(t, s)
		fillAndCrash(t, b, 500)
		rep, err := b.Recover()
		if err != nil {
			t.Fatal(err)
		}
		return rep.FetchOps + rep.CryptoOps
	}
	agit := runOps(SchemeAGITPlus)
	osiris := runOps(SchemeOsiris)
	if agit*2 >= osiris {
		t.Fatalf("AGIT recovery ops (%d) not well below Osiris full recovery (%d)", agit, osiris)
	}
}

func TestBonsaiRecoveryAfterCleanFlush(t *testing.T) {
	// Crash with clean caches: recovery must succeed with zero fixes.
	b := newBonsai(t, SchemeAGITPlus)
	for i := uint64(0); i < 50; i++ {
		b.WriteBlock(i*64, pattern(i))
	}
	b.FlushCaches()
	b.Crash()
	rep, err := b.Recover()
	if err != nil {
		t.Fatal(err)
	}
	if rep.CountersFixed != 0 {
		t.Fatalf("clean crash fixed %d counters, want 0", rep.CountersFixed)
	}
	for i := uint64(0); i < 50; i++ {
		got, err := b.ReadBlock(i * 64)
		if err != nil || got != pattern(i) {
			t.Fatalf("read %d after clean recovery: %v", i, err)
		}
	}
}

func TestBonsaiRepeatedCrashRecover(t *testing.T) {
	b := newBonsai(t, SchemeAGITPlus)
	expect := make(map[uint64][BlockBytes]byte)
	for round := 0; round < 5; round++ {
		for i := uint64(0); i < 60; i++ {
			addr := (uint64(round)*61 + i*37) % b.NumBlocks()
			d := pattern(uint64(round)<<32 | i)
			if err := b.WriteBlock(addr, d); err != nil {
				t.Fatal(err)
			}
			expect[addr] = d
		}
		b.Crash()
		if _, err := b.Recover(); err != nil {
			t.Fatalf("round %d: %v", round, err)
		}
	}
	verifyAll(t, b, expect)
}

func TestBonsaiAGITDetectsShadowTampering(t *testing.T) {
	// Tampering with SCT contents misleads recovery; the root comparison
	// must catch the resulting inconsistency (§4.2.1: shadow regions are
	// not trusted, the root is).
	b := newBonsai(t, SchemeAGITPlus)
	fillAndCrash(t, b, 300)
	// Corrupt a counter block that the SCT tracks: point recovery at
	// the wrong state by zeroing tracked SCT blocks.
	for _, bi := range b.Device().BlocksIn(nvm.RegionSCT) {
		b.Device().WriteRaw(nvm.RegionSCT, bi, [BlockBytes]byte{})
	}
	_, err := b.Recover()
	if !errors.Is(err, ErrUnrecoverable) {
		t.Fatalf("Recover with erased SCT = %v, want ErrUnrecoverable", err)
	}
}

func TestBonsaiPageOverflowReencrypts(t *testing.T) {
	b := newBonsai(t, SchemeOsiris)
	// Populate several lanes of page 0, then overflow lane 0's minor.
	for lane := uint64(1); lane < 5; lane++ {
		b.WriteBlock(lane, pattern(lane))
	}
	for i := 0; i <= counter.MinorMax; i++ {
		if err := b.WriteBlock(0, pattern(uint64(i))); err != nil {
			t.Fatal(err)
		}
	}
	if b.Stats().PageOverflows == 0 {
		t.Fatal("minor counter overflow did not trigger")
	}
	// All lanes must still decrypt correctly.
	for lane := uint64(1); lane < 5; lane++ {
		got, err := b.ReadBlock(lane)
		if err != nil {
			t.Fatalf("lane %d after overflow: %v", lane, err)
		}
		if got != pattern(lane) {
			t.Fatalf("lane %d corrupted by re-encryption", lane)
		}
	}
	got, err := b.ReadBlock(0)
	if err != nil || got != pattern(counter.MinorMax) {
		t.Fatalf("overflowing lane wrong: %v", err)
	}
}

func TestBonsaiPageOverflowSurvivesCrash(t *testing.T) {
	b := newBonsai(t, SchemeAGITPlus)
	for lane := uint64(1); lane < 3; lane++ {
		b.WriteBlock(lane, pattern(lane))
	}
	for i := 0; i <= counter.MinorMax+3; i++ {
		b.WriteBlock(0, pattern(uint64(i)))
	}
	last := pattern(uint64(counter.MinorMax + 3))
	b.Crash()
	if _, err := b.Recover(); err != nil {
		t.Fatal(err)
	}
	got, err := b.ReadBlock(0)
	if err != nil || got != last {
		t.Fatalf("overflowed lane after crash: %v", err)
	}
	for lane := uint64(1); lane < 3; lane++ {
		got, err := b.ReadBlock(lane)
		if err != nil || got != pattern(lane) {
			t.Fatalf("lane %d after overflow crash: %v", lane, err)
		}
	}
}

func TestBonsaiCommitGroupAtomicAcrossCrash(t *testing.T) {
	// Interrupt the WPQ drain mid-group (§2.7): after recovery the write
	// must be fully applied (DONE_BIT redo), never torn.
	b := newBonsai(t, SchemeStrict)
	b.WriteBlock(7, pattern(1))
	b.Device().SetPushBudget(1) // next commit: power fails after 1 push
	b.WriteBlock(7, pattern(2))
	b.Device().SetPushBudget(-1)
	b.Crash()
	rep, err := b.Recover()
	if err != nil {
		t.Fatal(err)
	}
	if rep.RedoneWrites == 0 {
		t.Fatal("interrupted group was not redone")
	}
	got, err := b.ReadBlock(7)
	if err != nil {
		t.Fatalf("read after redo: %v", err)
	}
	if got != pattern(2) {
		t.Fatal("committed write lost despite DONE_BIT")
	}
}

// --- scheme traffic characteristics ---

func TestBonsaiStrictWritesAmplified(t *testing.T) {
	wb := newBonsai(t, SchemeWriteBack)
	st := newBonsai(t, SchemeStrict)
	for i := uint64(0); i < 100; i++ {
		addr := (i * counter.SplitMinors * 7) % wb.NumBlocks()
		wb.WriteBlock(addr, pattern(i))
		st.WriteBlock(addr, pattern(i))
	}
	w1 := wb.Stats().NVM.Writes
	w2 := st.Stats().NVM.Writes
	if w2 < 2*w1 {
		t.Fatalf("strict writes (%d) not amplified vs write-back (%d)", w2, w1)
	}
	// Strict persists the counter plus one node per tree level per write.
	want := uint64(100) * uint64(st.geom.Levels()+1)
	if got := st.Stats().StrictWrites; got != want {
		t.Fatalf("strict metadata writes = %d, want %d", got, want)
	}
}

func TestBonsaiAGITShadowTraffic(t *testing.T) {
	read := newBonsai(t, SchemeAGITRead)
	plus := newBonsai(t, SchemeAGITPlus)
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 400; i++ {
		addr := uint64(rng.Intn(int(read.NumBlocks())))
		if i%4 == 0 {
			read.WriteBlock(addr, pattern(uint64(i)))
			plus.WriteBlock(addr, pattern(uint64(i)))
		} else {
			read.ReadBlock(addr)
			plus.ReadBlock(addr)
		}
	}
	sr := read.Stats()
	sp := plus.Stats()
	if sr.ShadowWrites == 0 || sp.ShadowWrites == 0 {
		t.Fatal("AGIT schemes produced no shadow writes")
	}
	// Read-dominant workload: fill tracking must cost more than
	// first-dirty tracking (the Figure 10 MCF effect).
	if sr.ShadowWrites <= sp.ShadowWrites {
		t.Fatalf("AGIT-Read shadow writes (%d) not above AGIT-Plus (%d) on a read-heavy mix",
			sr.ShadowWrites, sp.ShadowWrites)
	}
}

// TestBonsaiOsirisStopLoss: with StopLoss 4, a counter block persists on
// every fourth update since its copy in NVM was written. The count lives
// in the counter's cache line, so an eviction, which writes the line
// back, restarts it.
func TestBonsaiOsirisStopLoss(t *testing.T) {
	for _, tc := range []struct {
		name        string
		first, then int
		evict       bool
		want        uint64
	}{
		{"8 updates", 8, 0, false, 2},
		{"6 updates", 3, 3, false, 1},
		{"3 updates, eviction, 3 updates", 3, 3, true, 0},
	} {
		t.Run(tc.name, func(t *testing.T) {
			b := newBonsai(t, SchemeOsiris)
			write := func(n int) {
				for i := 0; i < n; i++ {
					if err := b.WriteBlock(uint64(i%4), pattern(uint64(i))); err != nil { // all in page 0
						t.Fatal(err)
					}
				}
			}
			write(tc.first)
			resident := func() bool { _, ok := b.cCache.Peek(0); return ok }
			for page := uint64(1); tc.evict && resident(); page++ {
				if _, err := b.ReadBlock(page * counter.SplitMinors); err != nil {
					t.Fatal(err)
				}
			}
			write(tc.then)
			if got := b.Stats().StopLossWrites; got != tc.want {
				t.Fatalf("stop-loss persists = %d, want %d", got, tc.want)
			}
		})
	}
}

func TestBonsaiWriteBackHasNoMetadataWriteTraffic(t *testing.T) {
	b := newBonsai(t, SchemeWriteBack)
	// Few writes, no eviction pressure: only data writes should hit NVM.
	for i := uint64(0); i < 10; i++ {
		b.WriteBlock(i, pattern(i))
	}
	st := b.Stats()
	if st.NVM.WritesByRegion[nvm.RegionCounter] != 0 || st.NVM.WritesByRegion[nvm.RegionTree] != 0 {
		t.Fatalf("write-back persisted metadata without eviction: ctr=%d tree=%d",
			st.NVM.WritesByRegion[nvm.RegionCounter], st.NVM.WritesByRegion[nvm.RegionTree])
	}
	if st.NVM.WritesByRegion[nvm.RegionData] != 10 {
		t.Fatalf("data writes = %d, want 10", st.NVM.WritesByRegion[nvm.RegionData])
	}
}

func TestBonsaiRejectsASITScheme(t *testing.T) {
	cfg := TestConfig(SchemeASIT)
	if _, err := NewBonsai(cfg); err == nil {
		t.Fatal("Bonsai accepted the ASIT scheme")
	}
	if _, err := OpenBonsai(cfg, nvm.NewDevice()); err == nil {
		t.Fatal("OpenBonsai accepted the ASIT scheme")
	}
}

// TestConstructorsAcceptExactlyTheTable runs every family × scheme
// through New and Open: a pair must build exactly when it is a row of
// Variants, and an unknown family never builds.
func TestConstructorsAcceptExactlyTheTable(t *testing.T) {
	for _, f := range []Family{FamilyBonsai, FamilySGX, Family(2)} {
		for s := SchemeWriteBack; s <= SchemeSelective; s++ {
			want := Supports(f, s)
			cfg := TestConfig(s)
			if _, err := New(f, cfg); (err == nil) != want {
				t.Errorf("New(%v, %v): err = %v, want accepted = %v", f, s, err, want)
			}
			if _, err := Open(f, cfg, nvm.NewDevice()); (err == nil) != want {
				t.Errorf("Open(%v, %v): err = %v, want accepted = %v", f, s, err, want)
			}
		}
	}
	if n := len(Variants); n != 11 {
		t.Fatalf("Variants has %d rows, want 11", n)
	}
}

func TestBonsaiConfigValidation(t *testing.T) {
	cfg := TestConfig(SchemeWriteBack)
	cfg.MemoryBytes = 100 // not page aligned
	if _, err := NewBonsai(cfg); err == nil {
		t.Fatal("invalid memory size accepted")
	}
	cfg = TestConfig(SchemeWriteBack)
	cfg.StopLoss = 0
	if _, err := NewBonsai(cfg); err == nil {
		t.Fatal("invalid stop-loss accepted")
	}
}

func TestSchemeString(t *testing.T) {
	for s, want := range map[Scheme]string{
		SchemeWriteBack: "writeback", SchemeStrict: "strict", SchemeOsiris: "osiris",
		SchemeAGITRead: "agit-read", SchemeAGITPlus: "agit-plus", SchemeASIT: "asit",
	} {
		if s.String() != want {
			t.Fatalf("%d.String() = %q", s, s.String())
		}
	}
}
