package anubis

import (
	"bytes"
	"errors"
	"strings"
	"testing"
	"testing/quick"
)

func testSystem(t *testing.T, s Scheme) *System {
	t.Helper()
	sys, err := New(Config{
		Scheme:            s,
		MemoryBytes:       1 << 20,
		CounterCacheBytes: 2048,
		TreeCacheBytes:    2048,
		MetaCacheBytes:    4096,
	})
	if err != nil {
		t.Fatal(err)
	}
	return sys
}

var allSchemes = []Scheme{WriteBack, Strict, Osiris, AGITRead, AGITPlus, ASIT}

func TestRoundTripAllSchemes(t *testing.T) {
	for _, s := range allSchemes {
		t.Run(s.String(), func(t *testing.T) {
			sys := testSystem(t, s)
			data := []byte("the quick brown fox jumps over the lazy dog, twice over.")
			if err := sys.WriteBlock(3, data); err != nil {
				t.Fatal(err)
			}
			got, err := sys.ReadBlock(3)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got[:len(data)], data) {
				t.Fatal("round trip corrupted data")
			}
		})
	}
}

func TestSchemeStrings(t *testing.T) {
	want := map[Scheme]string{
		WriteBack: "writeback", Strict: "strict", Osiris: "osiris",
		AGITRead: "agit-read", AGITPlus: "agit-plus", ASIT: "asit",
	}
	for s, w := range want {
		if s.String() != w {
			t.Fatalf("%d.String() = %q", s, s.String())
		}
	}
}

// TestParseSchemeRoundtrip checks the scheme table: every name parses
// to its own (scheme, tree) pair and is spelled Scheme.String(), plus
// "-sgx" on the SGX tree for a scheme both trees run; every bare
// Scheme.String() parses to its scheme; an unknown name errors with
// the list of valid names.
func TestParseSchemeRoundtrip(t *testing.T) {
	type pair struct {
		s    Scheme
		tree TreeKind
	}
	named := map[pair]string{}
	for _, name := range SchemeNames() {
		s, tree, err := ParseScheme(name)
		if err != nil {
			t.Fatalf("ParseScheme(%q): %v", name, err)
		}
		if prev, dup := named[pair{s, tree}]; dup {
			t.Fatalf("%q and %q both name %v on %v", prev, name, s, tree)
		}
		named[pair{s, tree}] = name
	}
	for p, name := range named {
		want := p.s.String()
		if _, both := named[pair{p.s, GeneralTree}]; both && p.tree == SGXTree {
			want += "-sgx"
		}
		if name != want {
			t.Errorf("%v on %v is named %q, want %q", p.s, p.tree, name, want)
		}
	}
	for s := WriteBack; s <= Selective; s++ {
		if got, _, err := ParseScheme(s.String()); err != nil || got != s {
			t.Errorf("ParseScheme(%q) = %v, %v", s.String(), got, err)
		}
	}
	_, _, err := ParseScheme("bogus")
	if err == nil {
		t.Fatal("bogus scheme parsed")
	}
	for _, name := range SchemeNames() {
		if !strings.Contains(err.Error(), name) {
			t.Errorf("error %q does not list %q", err, name)
		}
	}
}

func TestDefaultsApplied(t *testing.T) {
	sys, err := New(Config{Scheme: AGITPlus})
	if err != nil {
		t.Fatal(err)
	}
	if sys.Size() != 1<<30 {
		t.Fatalf("default size = %d, want 1GB", sys.Size())
	}
	if sys.NumBlocks() != (1<<30)/BlockSize {
		t.Fatal("NumBlocks inconsistent with Size")
	}
}

func TestSchemeForcesTreeKind(t *testing.T) {
	// ASIT must run on the SGX tree even if GeneralTree was requested,
	// and AGIT on the general tree even if SGXTree was requested.
	if _, err := New(Config{Scheme: ASIT, Tree: GeneralTree, MemoryBytes: 1 << 20}); err != nil {
		t.Fatalf("ASIT with GeneralTree request: %v", err)
	}
	if _, err := New(Config{Scheme: AGITPlus, Tree: SGXTree, MemoryBytes: 1 << 20}); err != nil {
		t.Fatalf("AGIT with SGXTree request: %v", err)
	}
}

func TestBaselineSchemesHonorTreeKind(t *testing.T) {
	for _, tree := range []TreeKind{GeneralTree, SGXTree} {
		sys, err := New(Config{Scheme: Strict, Tree: tree, MemoryBytes: 1 << 20})
		if err != nil {
			t.Fatal(err)
		}
		if err := sys.WriteBlock(0, []byte("x")); err != nil {
			t.Fatal(err)
		}
	}
}

func TestWriteBlockTooLarge(t *testing.T) {
	sys := testSystem(t, WriteBack)
	if err := sys.WriteBlock(0, make([]byte, BlockSize+1)); err == nil {
		t.Fatal("oversized write accepted")
	}
}

func TestShortWriteZeroPads(t *testing.T) {
	sys := testSystem(t, WriteBack)
	sys.WriteBlock(0, bytes.Repeat([]byte{0xff}, BlockSize))
	sys.WriteBlock(0, []byte{1, 2})
	got, _ := sys.ReadBlock(0)
	if got[0] != 1 || got[1] != 2 || got[2] != 0 || got[63] != 0 {
		t.Fatal("short write did not zero-pad")
	}
}

func TestRangeReadWrite(t *testing.T) {
	sys := testSystem(t, AGITPlus)
	msg := []byte("spanning three blocks: " + strings.Repeat("0123456789", 12))
	off := uint64(100) // unaligned
	if err := sys.WriteRange(off, msg); err != nil {
		t.Fatal(err)
	}
	got, err := sys.ReadRange(off, len(msg))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, msg) {
		t.Fatal("range round trip corrupted data")
	}
	// Neighbouring bytes must be untouched (zero).
	before, _ := sys.ReadRange(off-10, 10)
	if !bytes.Equal(before, make([]byte, 10)) {
		t.Fatal("write range clobbered preceding bytes")
	}
}

func TestRangeQuickProperty(t *testing.T) {
	sys := testSystem(t, WriteBack)
	f := func(off uint16, raw []byte) bool {
		if len(raw) > 512 {
			raw = raw[:512]
		}
		o := uint64(off)
		if err := sys.WriteRange(o, raw); err != nil {
			return false
		}
		got, err := sys.ReadRange(o, len(raw))
		return err == nil && bytes.Equal(got, raw)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestReadRangeNegative(t *testing.T) {
	sys := testSystem(t, WriteBack)
	if _, err := sys.ReadRange(0, -1); err == nil {
		t.Fatal("negative length accepted")
	}
}

func TestCrashRecoverAGIT(t *testing.T) {
	sys := testSystem(t, AGITPlus)
	for i := uint64(0); i < 100; i++ {
		if err := sys.WriteBlock(i*13%sys.NumBlocks(), []byte{byte(i)}); err != nil {
			t.Fatal(err)
		}
	}
	sys.Crash()
	if _, err := sys.ReadBlock(0); err == nil {
		t.Fatal("I/O accepted while crashed")
	}
	rep, err := sys.Recover()
	if err != nil {
		t.Fatal(err)
	}
	if rep.ModeledNS == 0 {
		t.Fatal("recovery reported zero modeled time despite work")
	}
	for i := uint64(0); i < 100; i++ {
		got, err := sys.ReadBlock(i * 13 % sys.NumBlocks())
		if err != nil {
			t.Fatalf("read %d: %v", i, err)
		}
		if got[0] != byte(i) {
			t.Fatalf("block %d corrupted", i)
		}
	}
}

func TestCrashRecoverASIT(t *testing.T) {
	sys := testSystem(t, ASIT)
	for i := uint64(0); i < 100; i++ {
		sys.WriteBlock(i*7%sys.NumBlocks(), []byte{byte(i), 0xaa})
	}
	sys.Crash()
	if _, err := sys.Recover(); err != nil {
		t.Fatal(err)
	}
	for i := uint64(0); i < 100; i++ {
		got, err := sys.ReadBlock(i * 7 % sys.NumBlocks())
		if err != nil {
			t.Fatalf("read %d: %v", i, err)
		}
		if got[0] != byte(i) {
			t.Fatalf("block %d corrupted", i)
		}
	}
}

func TestWriteBackNotRecoverable(t *testing.T) {
	sys := testSystem(t, WriteBack)
	sys.WriteBlock(0, []byte{1})
	sys.Crash()
	if _, err := sys.Recover(); !errors.Is(err, ErrNotRecoverable) {
		t.Fatalf("Recover = %v, want ErrNotRecoverable", err)
	}
}

func TestStatsAccumulate(t *testing.T) {
	sys := testSystem(t, AGITPlus)
	sys.WriteBlock(0, []byte{1})
	sys.ReadBlock(0)
	st := sys.Stats()
	if st.WriteRequests != 1 || st.ReadRequests != 1 {
		t.Fatalf("requests = %d/%d", st.ReadRequests, st.WriteRequests)
	}
	if st.NVMWrites == 0 || st.ElapsedNS == 0 {
		t.Fatal("no NVM activity or time recorded")
	}
}

func TestEstimateRecoveryNS(t *testing.T) {
	osiris := EstimateRecoveryNS(Osiris, 8<<40, 0, 0)
	agit := EstimateRecoveryNS(AGITPlus, 8<<40, 256<<10, 256<<10)
	asit := EstimateRecoveryNS(ASIT, 8<<40, 256<<10, 256<<10)
	if agit >= osiris || asit >= agit {
		t.Fatalf("expected osiris (%d) > agit (%d) > asit (%d)", osiris, agit, asit)
	}
	if EstimateRecoveryNS(Strict, 8<<40, 0, 0) != 0 {
		t.Fatal("strict needs no recovery time")
	}
	if EstimateRecoveryNS(WriteBack, 8<<40, 0, 0) != 0 {
		t.Fatal("write-back has no recovery estimate")
	}
}

func TestFormatDuration(t *testing.T) {
	if !strings.Contains(FormatDuration(28193*1e9), "h") {
		t.Fatal("hours not rendered")
	}
}

func TestFlushThenCleanRestart(t *testing.T) {
	sys := testSystem(t, Strict)
	sys.WriteBlock(5, []byte("persist me"))
	sys.Flush()
	sys.Crash()
	if _, err := sys.Recover(); err != nil {
		t.Fatal(err)
	}
	got, err := sys.ReadBlock(5)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got[:10], []byte("persist me")) {
		t.Fatal("flushed data lost")
	}
}

func TestIsIntegrityViolation(t *testing.T) {
	if IsIntegrityViolation(errors.New("plain")) {
		t.Fatal("plain error classified as integrity violation")
	}
}

func TestPhaseRecoveryPublicAPI(t *testing.T) {
	sys, err := New(Config{Scheme: AGITPlus, MemoryBytes: 1 << 20, PhaseRecovery: true})
	if err != nil {
		t.Fatal(err)
	}
	for i := uint64(0); i < 100; i++ {
		sys.WriteBlock(0, []byte{byte(i)}) // deep drift, no stop-loss
	}
	if sys.Stats().StopLossWrites != 0 {
		t.Fatal("phase recovery still made stop-loss writes")
	}
	sys.Crash()
	if _, err := sys.Recover(); err != nil {
		t.Fatal(err)
	}
	got, err := sys.ReadBlock(0)
	if err != nil || got[0] != 99 {
		t.Fatalf("phase recovery lost data: %v", err)
	}
}

func TestWearLevelingPublicAPI(t *testing.T) {
	sys, err := New(Config{Scheme: ASIT, MemoryBytes: 1 << 20, WearLevelingPeriod: 4})
	if err != nil {
		t.Fatal(err)
	}
	for i := uint64(0); i < 200; i++ {
		if err := sys.WriteBlock(i%30, []byte{byte(i)}); err != nil {
			t.Fatal(err)
		}
	}
	sys.Crash()
	if _, err := sys.Recover(); err != nil {
		t.Fatal(err)
	}
	for i := uint64(170); i < 200; i++ {
		got, err := sys.ReadBlock(i % 30)
		if err != nil || got[0] != byte(i) {
			t.Fatalf("block %d under wear leveling: %v", i%30, err)
		}
	}
}

func TestSelectivePublicAPI(t *testing.T) {
	sys, err := New(Config{
		Scheme:          Selective,
		MemoryBytes:     1 << 20,
		PersistentBytes: 512 << 10,
	})
	if err != nil {
		t.Fatal(err)
	}
	if sys.Scheme().String() != "selective" {
		t.Fatalf("scheme = %s", sys.Scheme())
	}
	if err := sys.WriteBlock(0, []byte("persistent")); err != nil {
		t.Fatal(err)
	}
	sys.Crash()
	if _, err := sys.Recover(); err != nil {
		t.Fatal(err)
	}
	got, err := sys.ReadBlock(0)
	if err != nil || string(got[:10]) != "persistent" {
		t.Fatalf("persistent region lost: %v", err)
	}
}

func TestTriadPublicAPI(t *testing.T) {
	sys, err := New(Config{Scheme: Triad, MemoryBytes: 1 << 20, TriadLevels: 2})
	if err != nil {
		t.Fatal(err)
	}
	for i := uint64(0); i < 120; i++ {
		if err := sys.WriteBlock(i*67%sys.NumBlocks(), []byte{byte(i)}); err != nil {
			t.Fatal(err)
		}
	}
	sys.Crash()
	if _, err := sys.Recover(); err != nil {
		t.Fatal(err)
	}
	for i := uint64(0); i < 120; i++ {
		got, err := sys.ReadBlock(i * 67 % sys.NumBlocks())
		if err != nil || got[0] != byte(i) {
			t.Fatalf("block %d: %v", i, err)
		}
	}
	// The analytic landscape: Osiris > Triad(k) > Anubis at 8 TB.
	osiris := EstimateRecoveryNS(Osiris, 8<<40, 0, 0)
	triad := EstimateTriadRecoveryNS(8<<40, 2)
	agit := EstimateRecoveryNS(AGITPlus, 8<<40, 256<<10, 256<<10)
	if !(osiris > triad && triad > agit) {
		t.Fatalf("recovery landscape wrong: osiris=%d triad=%d agit=%d", osiris, triad, agit)
	}
}

// TestWriteBlocksMatchesSequential checks the batched write path is a
// pure pass-through: the same writes issued as one WriteBlocks batch
// and as individual WriteBlock calls must leave byte-identical
// persistent state (device digest), the same virtual clock, and the
// same statistics — and ReadBlockInto must agree with ReadBlock.
func TestWriteBlocksMatchesSequential(t *testing.T) {
	for _, scheme := range []Scheme{AGITPlus, ASIT} {
		t.Run(scheme.String(), func(t *testing.T) {
			seq, err := New(Config{Scheme: scheme, MemoryBytes: 1 << 20})
			if err != nil {
				t.Fatal(err)
			}
			bat, err := New(Config{Scheme: scheme, MemoryBytes: 1 << 20})
			if err != nil {
				t.Fatal(err)
			}
			writes := make([]BlockWrite, 0, 300)
			for i := uint64(0); i < 300; i++ {
				var d [BlockSize]byte
				d[0], d[1] = byte(i), byte(i>>8)
				writes = append(writes, BlockWrite{Block: (i * 97) % 4096, Data: d})
			}
			for _, w := range writes {
				if err := seq.WriteBlock(w.Block, w.Data[:]); err != nil {
					t.Fatal(err)
				}
			}
			if err := bat.WriteBlocks(writes); err != nil {
				t.Fatal(err)
			}
			if seq.Stats() != bat.Stats() {
				t.Fatalf("stats diverge:\n%+v\n%+v", seq.Stats(), bat.Stats())
			}
			if sd, bd := seq.StateDigest(), bat.StateDigest(); sd != bd {
				t.Fatalf("persistent state diverges: %#x vs %#x", sd, bd)
			}
			// ReadBlockInto agrees with ReadBlock on the batched system.
			for _, w := range writes[:20] {
				var got [BlockSize]byte
				if err := bat.ReadBlockInto(w.Block, &got); err != nil {
					t.Fatal(err)
				}
				want, err := seq.ReadBlock(w.Block)
				if err != nil {
					t.Fatal(err)
				}
				if string(got[:]) != string(want) {
					t.Fatalf("block %d: ReadBlockInto disagrees with ReadBlock", w.Block)
				}
			}
		})
	}
}

// TestSystemAccessors smoke-tests the accessors the serving layer and
// the experiments use: geometry, the WPQ back-pressure probes, clock
// advance, digest, image save, and the tamper/replay hooks.
func TestSystemAccessors(t *testing.T) {
	s, err := New(Config{Scheme: AGITPlus, MemoryBytes: 1 << 20})
	if err != nil {
		t.Fatal(err)
	}
	if got, want := s.Scheme(), AGITPlus; got != want {
		t.Fatalf("Scheme = %v, want %v", got, want)
	}
	if got, want := s.Size(), uint64(1<<20); got != want {
		t.Fatalf("Size = %d, want %d", got, want)
	}
	if s.CountersPerBlock() == 0 {
		t.Fatal("CountersPerBlock = 0")
	}
	if b := s.PushBudget(); b <= 0 {
		t.Fatalf("fresh system PushBudget = %d, want > 0", b)
	}
	// A write burst with no intervening reads must consume WPQ budget...
	for i := uint64(0); i < 64; i++ {
		if err := s.WriteBlock(i, []byte{byte(i)}); err != nil {
			t.Fatal(err)
		}
	}
	if s.WPQDrainNS() == 0 {
		t.Fatal("WPQDrainNS = 0 right after a write burst")
	}
	// ...and advancing the clock past the drain point must restore it.
	s.AdvanceClock(s.WPQDrainNS())
	if got, want := s.PushBudget(), s.PushBudget(); got != want {
		t.Fatalf("PushBudget unstable at rest: %d then %d", got, want)
	}
	if s.WPQDrainNS() != 0 {
		t.Fatalf("WPQDrainNS = %d after draining advance, want 0", s.WPQDrainNS())
	}
	d1 := s.StateDigest()
	if err := s.WriteBlock(9, []byte("x")); err != nil {
		t.Fatal(err)
	}
	if d2 := s.StateDigest(); d2 == d1 {
		t.Fatal("StateDigest did not change across a write")
	}
	var img bytes.Buffer
	if err := s.Flush(); err != nil {
		t.Fatal(err)
	}
	if err := s.SaveImage(&img); err != nil {
		t.Fatal(err)
	}
	if img.Len() == 0 {
		t.Fatal("SaveImage wrote nothing")
	}
	snap := s.SnapshotCounter(0)
	s.ReplayCounter(0, snap) // same value: harmless
	if !s.TamperData(9, 0, 0xFF) {
		t.Fatal("TamperData: block 9 missing from NVM")
	}
	if _, err := s.ReadBlock(9); !IsIntegrityViolation(err) {
		t.Fatalf("read of a tampered block: %v, want an integrity violation", err)
	}
}
