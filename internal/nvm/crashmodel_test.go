package nvm

import (
	"math/rand"
	"testing"
)

// --- satellite 1: Crash must disarm the pushBudget test hook ---------------

func TestCrashResetsPushBudget(t *testing.T) {
	d := newDev()
	d.SetPushBudget(2)
	if got := d.pushBudget; got != 2 {
		t.Fatalf("pushBudget = %d, want 2", got)
	}
	d.CrashWith(CrashFullADR, nil)
	if got := d.pushBudget; got != -1 {
		t.Fatalf("after Crash, pushBudget = %d, want -1 (disarmed)", got)
	}
	// The recovered run's commit groups must drain in full: stage three
	// writes and commit — all three must land despite the pre-crash
	// budget of two.
	d.BeginCommit()
	for i := uint64(0); i < 3; i++ {
		d.Stage(PendingWrite{Region: RegionData, Index: i, Block: blk(byte(i + 1))})
	}
	d.CommitGroup(0)
	for i := uint64(0); i < 3; i++ {
		if d.Read(RegionData, i) != blk(byte(i+1)) {
			t.Fatalf("block %d lost: pre-crash pushBudget leaked into recovered run", i)
		}
	}
}

func TestCrashWithResetsPushBudget(t *testing.T) {
	for _, m := range CrashModels() {
		d := newDev()
		d.TrackInflight(true)
		d.SetPushBudget(1)
		d.CrashWith(m, rand.New(rand.NewSource(1)))
		if got := d.pushBudget; got != -1 {
			t.Fatalf("%v: after CrashWith, pushBudget = %d, want -1", m, got)
		}
	}
}

// --- satellite 2: fault injection in a forked child must not leak ----------

func TestForkedFaultInjectionDoesNotLeakIntoParent(t *testing.T) {
	parent := newDev()
	side := Sideband{MAC: 0xfeed}
	for i := uint64(0); i < 40; i++ {
		parent.Push(PendingWrite{Region: RegionData, Index: i, Block: blk(byte(i)), HasSide: true, Side: side}, 0)
		parent.Push(PendingWrite{Region: RegionCounter, Index: i, Block: blk(byte(i + 1))}, 0)
		parent.Push(PendingWrite{Region: RegionTree, Index: i, Block: blk(byte(i + 2))}, 0)
	}
	want := parent.StateDigest()

	child := parent.Fork()
	// Every fault-injection entry point, spread across shared pages.
	if !child.CorruptBlock(RegionData, 3, 7, 0xff) {
		t.Fatal("CorruptBlock reported absent block")
	}
	child.CorruptBlock(RegionTree, 17, 0, 0x01)
	child.Erase(RegionCounter, 5)
	child.Erase(RegionData, 21)
	child.WriteRaw(RegionTree, 9, blk(0xaa))
	child.WriteRawData(11, blk(0xbb), Sideband{MAC: 1})
	// Relaxed-model crash mutation also goes through slot().
	child.TrackInflight(true)
	child.Push(PendingWrite{Region: RegionData, Index: 2, Block: blk(0xcc)}, 0)
	child.CrashWith(CrashTornBlock, rand.New(rand.NewSource(7)))

	if got := parent.StateDigest(); got != want {
		t.Fatalf("parent StateDigest changed after child fault injection: %#x -> %#x", want, got)
	}
	// Spot-check the parent's media content directly.
	if parent.Read(RegionData, 3) != blk(3) {
		t.Fatal("child CorruptBlock leaked into parent data")
	}
	if parent.Read(RegionCounter, 5) != blk(6) {
		t.Fatal("child Erase leaked into parent counters")
	}
	if parent.Read(RegionTree, 9) != blk(11) {
		t.Fatal("child WriteRaw leaked into parent tree")
	}
	if sideband(parent, 3).MAC != 0xfeed {
		t.Fatal("child corruption leaked into parent sideband")
	}
}

// --- relaxed crash models ---------------------------------------------------

func TestCrashFullADRKeepsInflight(t *testing.T) {
	d := newDev()
	d.TrackInflight(true)
	for i := uint64(0); i < 8; i++ {
		d.Push(PendingWrite{Region: RegionData, Index: i, Block: blk(byte(i + 1))}, 0)
	}
	if d.InflightLen() == 0 {
		t.Fatal("tracking armed but no inflight entries")
	}
	d.CrashWith(CrashFullADR, nil)
	for i := uint64(0); i < 8; i++ {
		if d.Read(RegionData, i) != blk(byte(i+1)) {
			t.Fatalf("full-ADR crash lost pushed write %d", i)
		}
	}
	if d.InflightLen() != 0 {
		t.Fatal("inflight log not cleared by crash")
	}
}

func TestCrashPartialDrainKeepsPrefix(t *testing.T) {
	// Overwrite existing content so a reverted write is observable as
	// the old value, then check the prefix property: some k oldest
	// in-flight writes landed, everything newer reverted.
	const n = 16
	for seed := int64(0); seed < 20; seed++ {
		d := newDev()
		for i := uint64(0); i < n; i++ {
			d.Push(PendingWrite{Region: RegionData, Index: i, Block: blk(0x10)}, 0)
		}
		d.TrackInflight(true)
		now := uint64(0)
		for i := uint64(0); i < n; i++ {
			now = d.Push(PendingWrite{Region: RegionData, Index: i, Block: blk(0x20)}, now)
		}
		if d.InflightLen() != n {
			t.Fatalf("inflight = %d, want %d", d.InflightLen(), n)
		}
		d.CrashWith(CrashPartialDrain, rand.New(rand.NewSource(seed)))
		k := 0
		for ; k < n; k++ {
			if d.Read(RegionData, uint64(k)) != blk(0x20) {
				break
			}
		}
		for i := k; i < n; i++ {
			if got := d.Read(RegionData, uint64(i)); got != blk(0x10) {
				t.Fatalf("seed %d: write %d neither landed nor reverted: %v", seed, i, got[0])
			}
		}
	}
}

func TestCrashPartialDrainRevertsToAbsent(t *testing.T) {
	d := newDev()
	d.TrackInflight(true)
	d.Push(PendingWrite{Region: RegionData, Index: 99, Block: blk(0x33)}, 0)
	// rng with seed forcing k=0 is not guaranteed; instead drive the
	// revert path directly through the partial-drain model until the
	// write is lost at least once across seeds.
	lost := false
	for seed := int64(0); seed < 64 && !lost; seed++ {
		c := d.Fork()
		c.CrashWith(CrashPartialDrain, rand.New(rand.NewSource(seed)))
		if _, present := c.ReadPtr(RegionData, 99); !present {
			lost = true
		}
	}
	if !lost {
		t.Fatal("partial drain never rolled a never-written block back to absent")
	}
}

func TestCrashTornBlockPrefixSemantics(t *testing.T) {
	oldSide := Sideband{MAC: 0x0101}
	newSide := Sideband{MAC: 0x0202}
	for seed := int64(0); seed < 40; seed++ {
		d := newDev()
		d.Push(PendingWrite{Region: RegionData, Index: 5, Block: blk(0xaa), HasSide: true, Side: oldSide}, 0)
		d.TrackInflight(true)
		d.Push(PendingWrite{Region: RegionData, Index: 5, Block: blk(0xbb), HasSide: true, Side: newSide}, 0)
		d.CrashWith(CrashTornBlock, rand.New(rand.NewSource(seed)))
		got := d.Read(RegionData, 5)
		// Content must be a prefix of the new block over the old one, at
		// 8-byte atom granularity.
		atoms := -1
		for a := 0; a <= BlockAtoms; a++ {
			ok := true
			for i := 0; i < BlockBytes; i++ {
				want := byte(0xaa)
				if i < a*8 {
					want = 0xbb
				}
				if got[i] != want {
					ok = false
					break
				}
			}
			if ok {
				atoms = a
				break
			}
		}
		if atoms < 0 {
			t.Fatalf("seed %d: torn block is not an atom prefix: % x", seed, got[:16])
		}
		side := sideband(d, 5)
		if atoms == BlockAtoms {
			if side != newSide {
				t.Fatalf("seed %d: whole write landed but sideband is old", seed)
			}
		} else if side != oldSide {
			t.Fatalf("seed %d: torn write replaced sideband (atoms=%d)", seed, atoms)
		}
	}
}

func TestCrashRelaxedKeepsRegistersAndCommittedGroups(t *testing.T) {
	for _, m := range []CrashModel{CrashPartialDrain, CrashTornBlock} {
		d := newDev()
		d.TrackInflight(true)
		d.SetReg64("ROOT", 0xabcdef)
		// A committed two-stage group whose drain was interrupted: the
		// staging area is on-chip, so REDO must still replay it whole.
		d.BeginCommit()
		for i := uint64(0); i < 4; i++ {
			d.Stage(PendingWrite{Region: RegionCounter, Index: i, Block: blk(0x44)})
		}
		d.SetPushBudget(2)
		d.CommitGroup(0)
		d.CrashWith(m, rand.New(rand.NewSource(3)))
		if v, ok := d.GetReg64("ROOT"); !ok || v != 0xabcdef {
			t.Fatalf("%v: on-chip register lost", m)
		}
		if !d.DoneBit() {
			t.Fatalf("%v: DONE_BIT lost", m)
		}
		if n := d.RedoCommitted(); n != 4 {
			t.Fatalf("%v: REDO replayed %d writes, want 4", m, n)
		}
		for i := uint64(0); i < 4; i++ {
			if d.Read(RegionCounter, i) != blk(0x44) {
				t.Fatalf("%v: committed group write %d lost after REDO", m, i)
			}
		}
	}
}

func TestInflightPruneOnDrain(t *testing.T) {
	d := newDev()
	d.TrackInflight(true)
	d.Push(PendingWrite{Region: RegionData, Index: 0, Block: blk(1)}, 0)
	if d.InflightLen() != 1 {
		t.Fatalf("inflight = %d, want 1", d.InflightLen())
	}
	// A push far in the future prunes the (long-drained) first entry.
	late := uint64(100 * WriteNS)
	d.Push(PendingWrite{Region: RegionData, Index: 1, Block: blk(2)}, late)
	if d.InflightLen() != 1 {
		t.Fatalf("drained entry not pruned: inflight = %d, want 1", d.InflightLen())
	}
	// And a crash can no longer revert the drained write.
	d.CrashWith(CrashPartialDrain, rand.New(rand.NewSource(0)))
	if d.Read(RegionData, 0) != blk(1) {
		t.Fatal("drained write reverted by partial-drain crash")
	}
}

func TestCrashModelRoundTrip(t *testing.T) {
	for _, m := range CrashModels() {
		got, ok := ParseCrashModel(m.String())
		if !ok || got != m {
			t.Fatalf("ParseCrashModel(%q) = %v,%v", m.String(), got, ok)
		}
	}
	if _, ok := ParseCrashModel("bogus"); ok {
		t.Fatal("ParseCrashModel accepted garbage")
	}
}

func TestCrashWithDeterministic(t *testing.T) {
	run := func(model CrashModel, seed int64) uint64 {
		d := newDev()
		for i := uint64(0); i < 32; i++ {
			d.Push(PendingWrite{Region: RegionData, Index: i, Block: blk(byte(i))}, 0)
		}
		d.TrackInflight(true)
		now := uint64(0)
		for i := uint64(0); i < 32; i++ {
			now = d.Push(PendingWrite{Region: RegionData, Index: i, Block: blk(byte(i + 100))}, now)
		}
		d.CrashWith(model, rand.New(rand.NewSource(seed)))
		return d.StateDigest()
	}
	for _, m := range []CrashModel{CrashPartialDrain, CrashTornBlock} {
		if run(m, 42) != run(m, 42) {
			t.Fatalf("%v: same seed produced different post-crash images", m)
		}
	}
}
