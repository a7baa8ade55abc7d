package memctrl

import (
	"errors"
	"testing"

	"anubis/internal/nvm"
)

func newSelective(t *testing.T, persistentBlocks uint64) *Bonsai {
	t.Helper()
	cfg := TestConfig(SchemeSelective)
	cfg.PersistentBlocks = persistentBlocks
	b, err := NewBonsai(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

func TestSelectivePersistentRegionRecovers(t *testing.T) {
	// Half the memory is the persistent region.
	b := newSelective(t, 8192)
	for i := uint64(0); i < 200; i++ {
		addr := (i * 37) % 8192
		if err := b.WriteBlock(addr, pattern(i)); err != nil {
			t.Fatal(err)
		}
	}
	b.Crash()
	if _, err := b.Recover(); err != nil {
		t.Fatal(err)
	}
	// Every persistent-region write survives with full verification.
	for i := uint64(0); i < 200; i++ {
		addr := (i * 37) % 8192
		want := pattern(i)
		for j := i + 1; j < 200; j++ { // later writes to the same addr win
			if (j*37)%8192 == addr {
				want = pattern(j)
			}
		}
		got, err := b.ReadBlock(addr)
		if err != nil {
			t.Fatalf("persistent block %d: %v", addr, err)
		}
		if got != want {
			t.Fatalf("persistent block %d corrupted", addr)
		}
	}
}

func TestSelectiveRelaxedRegionLosesFreshness(t *testing.T) {
	// Writes to the relaxed region repeatedly bump a cached counter that
	// is never persisted: after a crash the stale counter cannot decrypt
	// the (persisted) newest data.
	b := newSelective(t, 8192)
	relaxed := uint64(9000)
	for i := uint64(0); i < 10; i++ {
		if err := b.WriteBlock(relaxed, pattern(i)); err != nil {
			t.Fatal(err)
		}
	}
	b.Crash()
	if _, err := b.Recover(); err != nil {
		t.Fatal(err)
	}
	_, err := b.ReadBlock(relaxed)
	var ie *IntegrityError
	if !errors.As(err, &ie) {
		t.Fatalf("stale relaxed counter read = %v, want IntegrityError", err)
	}
}

// TestSelectiveReplayVulnerability demonstrates the attack Osiris
// identified (§7): because relaxed counters may be stale after a crash
// and the root is re-anchored on boot, an attacker can restore data
// matching the stale counter and have OLD values verify as current —
// a silent rollback that every root-anchored scheme rejects.
func TestSelectiveReplayVulnerability(t *testing.T) {
	b := newSelective(t, 8192)
	relaxed := uint64(9000)

	// Version 1 is written and becomes fully persistent (flush).
	if err := b.WriteBlock(relaxed, pattern(1)); err != nil {
		t.Fatal(err)
	}
	b.FlushCaches()
	blk, oldSide, _ := b.dev.ReadData(relaxed)
	oldData := *blk

	// Version 2 supersedes it; the data persists but the relaxed
	// counter update stays in the cache.
	if err := b.WriteBlock(relaxed, pattern(2)); err != nil {
		t.Fatal(err)
	}
	b.Crash()

	// The attacker restores the version-1 ciphertext+sideband, matching
	// the stale counter in NVM.
	b.dev.WriteRawData(relaxed, oldData, oldSide)

	if _, err := b.Recover(); err != nil {
		t.Fatal(err)
	}
	got, err := b.ReadBlock(relaxed)
	if err != nil {
		t.Fatalf("replayed read failed (%v) — vulnerability not reproduced", err)
	}
	if got != pattern(1) {
		t.Fatal("replay returned unexpected content")
	}
	// The same attack against AGIT-Plus must be detected: its root is
	// compared, never re-anchored.
	a, err := NewBonsai(TestConfig(SchemeAGITPlus))
	if err != nil {
		t.Fatal(err)
	}
	a.WriteBlock(relaxed, pattern(1))
	a.FlushCaches()
	blk, oldSide, _ = a.dev.ReadData(relaxed)
	oldData = *blk
	a.WriteBlock(relaxed, pattern(2))
	a.Crash()
	a.dev.WriteRawData(relaxed, oldData, oldSide)
	if _, err := a.Recover(); err == nil {
		if _, rerr := a.ReadBlock(relaxed); rerr == nil {
			t.Fatal("AGIT accepted the replay that selective atomicity accepts")
		}
	}
}

func TestSelectiveRecoveryIsWholeMemory(t *testing.T) {
	// The paper: selective atomicity "incurs significant overheads for
	// reconstructing Merkle Tree" — recovery rebuilds every node.
	b := newSelective(t, 0)
	b.WriteBlock(0, pattern(0))
	b.Crash()
	rep, err := b.Recover()
	if err != nil {
		t.Fatal(err)
	}
	if rep.NodesRebuilt != b.geom.TotalNodes() {
		t.Fatalf("rebuilt %d nodes, want the whole tree (%d)", rep.NodesRebuilt, b.geom.TotalNodes())
	}
}

func TestSelectiveWriteThroughTraffic(t *testing.T) {
	// Persistent-region writes persist the counter every time; relaxed
	// writes do not.
	b := newSelective(t, 8192)
	for i := uint64(0); i < 50; i++ {
		b.WriteBlock(100, pattern(i)) // persistent region
	}
	persistent := b.Stats().NVM.WritesByRegion[nvm.RegionCounter]
	if persistent < 50 {
		t.Fatalf("persistent-region counter writes = %d, want >= 50", persistent)
	}
	b2 := newSelective(t, 8192)
	for i := uint64(0); i < 50; i++ {
		b2.WriteBlock(9000, pattern(i)) // relaxed region
	}
	if got := b2.Stats().NVM.WritesByRegion[nvm.RegionCounter]; got != 0 {
		t.Fatalf("relaxed-region counter writes = %d, want 0", got)
	}
}

func TestSelectiveOverheadScalesWithPersistentFraction(t *testing.T) {
	// §1: "its overhead scales with the amount of persistent data".
	run := func(persistent uint64) uint64 {
		cfg := TestConfig(SchemeSelective)
		cfg.PersistentBlocks = persistent
		b, err := NewBonsai(cfg)
		if err != nil {
			t.Fatal(err)
		}
		for i := uint64(0); i < 2000; i++ {
			b.AdvanceTo(b.Now() + 50)
			if err := b.WriteBlock((i*97)%b.NumBlocks(), pattern(i)); err != nil {
				t.Fatal(err)
			}
		}
		return b.Now()
	}
	none := run(1) // ~nothing persistent
	all := run(0)  // everything persistent
	if all <= none {
		t.Fatalf("full persistence (%d) not slower than none (%d)", all, none)
	}
}

func TestSelectiveZeroMeansAllPersistent(t *testing.T) {
	b := newSelective(t, 0)
	for i := uint64(0); i < 100; i++ {
		b.WriteBlock(i*131%b.NumBlocks(), pattern(i))
	}
	b.Crash()
	if _, err := b.Recover(); err != nil {
		t.Fatal(err)
	}
	for i := uint64(0); i < 100; i++ {
		addr := i * 131 % b.NumBlocks()
		if _, err := b.ReadBlock(addr); err != nil {
			t.Fatalf("block %d with full persistence: %v", addr, err)
		}
	}
}
