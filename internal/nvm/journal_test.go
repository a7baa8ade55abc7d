package nvm

import (
	"bytes"
	"math/rand"
	"testing"
)

func TestJournalNoteUpsert(t *testing.T) {
	d := newDev()
	d.Push(PendingWrite{JOp: JournalNote, JKey: 7, JOld: blk(1), Block: blk(2)}, 0)
	if d.JournalLen() != 1 {
		t.Fatalf("journal len %d, want 1", d.JournalLen())
	}
	e, ok := d.JournalLookup(7)
	if !ok || e.Old != blk(1) || e.New != blk(2) {
		t.Fatalf("entry %+v", e)
	}
	// A later note for the same key refreshes New but keeps the sticky
	// epoch-start Old, even if the note carries a different JOld.
	d.Push(PendingWrite{JOp: JournalNote, JKey: 7, JOld: blk(9), Block: blk(3)}, 0)
	e, _ = d.JournalLookup(7)
	if e.Old != blk(1) || e.New != blk(3) {
		t.Fatalf("after second note: %+v", e)
	}
	if d.JournalLen() != 1 {
		t.Fatalf("upsert grew the journal to %d", d.JournalLen())
	}
	d.Push(PendingWrite{JOp: JournalClear}, 0)
	if d.JournalLen() != 0 {
		t.Fatal("clear left entries behind")
	}
	if _, ok := d.JournalLookup(7); ok {
		t.Fatal("lookup hit after clear")
	}
}

// TestJournalIsOnChip checks that journal ops behave like register
// writes: no WPQ slot, no media traffic, no stats.
func TestJournalIsOnChip(t *testing.T) {
	d := newDev()
	before := d.Stats()
	now := d.Push(PendingWrite{JOp: JournalNote, JKey: 1, Block: blk(1)}, 100)
	if now != 100 {
		t.Fatalf("journal push stalled caller to %d", now)
	}
	if after := d.Stats(); after != before {
		t.Fatalf("journal op changed device stats: %+v -> %+v", before, after)
	}
}

// TestJournalSurvivesEveryCrashModel checks the journal sits inside the
// persistence domain: relaxed models tear media blocks behind the WPQ,
// never on-chip state.
func TestJournalSurvivesEveryCrashModel(t *testing.T) {
	for _, m := range CrashModels() {
		d := newDev()
		d.TrackInflight(true)
		d.Push(PendingWrite{Region: RegionData, Index: 1, Block: blk(4)}, 0)
		d.Push(PendingWrite{JOp: JournalNote, JKey: 3, JOld: blk(5), Block: blk(6)}, 0)
		d.CrashWith(m, rand.New(rand.NewSource(1)))
		e, ok := d.JournalLookup(3)
		if !ok || e.Old != blk(5) || e.New != blk(6) {
			t.Fatalf("%v: journal lost: %+v ok=%v", m, e, ok)
		}
	}
}

// TestJournalCommitGroupRedo checks the DONE_BIT REDO path replays
// journal notes idempotently after a mid-drain power loss.
func TestJournalCommitGroupRedo(t *testing.T) {
	d := newDev()
	d.BeginCommit()
	d.Stage(PendingWrite{Region: RegionData, Index: 1, Block: blk(1)})
	d.Stage(PendingWrite{JOp: JournalNote, JKey: 9, JOld: blk(7), Block: blk(8)})
	d.Stage(PendingWrite{Region: RegionCounter, Index: 2, Block: blk(2)})
	d.SetPushBudget(2) // power loss after the journal note, before the counter write
	d.CommitGroup(0)
	if !d.DoneBit() {
		t.Fatal("interrupted group lost its DONE_BIT")
	}
	d.CrashWith(CrashFullADR, nil)
	if got := d.Read(RegionCounter, 2); got != ([BlockBytes]byte{}) {
		t.Fatal("unreached entry drained before redo")
	}
	if n := d.RedoCommitted(); n != 3 {
		t.Fatalf("redo replayed %d entries, want 3", n)
	}
	if d.Read(RegionCounter, 2) != blk(2) {
		t.Fatal("redo did not land the counter write")
	}
	e, ok := d.JournalLookup(9)
	if !ok || e.Old != blk(7) || e.New != blk(8) {
		t.Fatalf("redo mangled the journal note: %+v ok=%v", e, ok)
	}
	if d.JournalLen() != 1 {
		t.Fatalf("redo duplicated the journal note: len %d", d.JournalLen())
	}
}

func TestJournalForkIndependent(t *testing.T) {
	d := newDev()
	d.Push(PendingWrite{JOp: JournalNote, JKey: 1, JOld: blk(1), Block: blk(2)}, 0)
	c := d.Fork()
	c.Push(PendingWrite{JOp: JournalNote, JKey: 1, Block: blk(3)}, 0)
	c.Push(PendingWrite{JOp: JournalNote, JKey: 2, JOld: blk(4), Block: blk(5)}, 0)
	if e, _ := d.JournalLookup(1); e.New != blk(2) {
		t.Fatal("child note leaked into parent")
	}
	if d.JournalLen() != 1 || c.JournalLen() != 2 {
		t.Fatalf("lens parent=%d child=%d", d.JournalLen(), c.JournalLen())
	}
	d.JournalReset()
	if c.JournalLen() != 2 {
		t.Fatal("parent reset leaked into child")
	}
}

func TestJournalImageRoundTrip(t *testing.T) {
	d := newDev()
	d.Push(PendingWrite{Region: RegionData, Index: 5, Block: blk(1)}, 0)
	d.Push(PendingWrite{JOp: JournalNote, JKey: 11, JOld: blk(2), Block: blk(3)}, 0)
	d.Push(PendingWrite{JOp: JournalNote, JKey: 4, JOld: blk(4), Block: blk(5)}, 0)

	var buf bytes.Buffer
	if err := d.Save(&buf); err != nil {
		t.Fatal(err)
	}
	l, err := LoadDevice(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if l.JournalLen() != 2 {
		t.Fatalf("loaded journal len %d, want 2", l.JournalLen())
	}
	if e, ok := l.JournalLookup(11); !ok || e.Old != blk(2) || e.New != blk(3) {
		t.Fatalf("entry 11 lost: %+v ok=%v", e, ok)
	}
	if d.StateDigest() != l.StateDigest() {
		t.Fatal("digest changed across save/load")
	}
	// The digest must see the journal: mutating one New flips it.
	before := l.StateDigest()
	l.Push(PendingWrite{JOp: JournalNote, JKey: 4, Block: blk(6)}, 0)
	if l.StateDigest() == before {
		t.Fatal("digest blind to journal content")
	}
}

// TestPeekEarliestMatchesBruteForce is the property test for the write
// port heap's peek: after arbitrary occupancy sequences, the root —
// minFree, which EarliestBankFree reads, and the port occupyMin hands
// the next drain — must be the lexicographic minimum of the heap's
// (free, port) pairs.
func TestPeekEarliestMatchesBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	for trial := 0; trial < 200; trial++ {
		n := 1 + rng.Intn(8)
		h := newPortHeap(n)
		now := uint64(0)
		for op := rng.Intn(32); op > 0; op-- {
			now += uint64(rng.Intn(200))
			h.occupyMin(now + uint64(rng.Intn(500)))
			wantPort, wantFree := h.port[0], h.free[0]
			for i := range h.free {
				if h.free[i] < wantFree || (h.free[i] == wantFree && h.port[i] < wantPort) {
					wantPort, wantFree = h.port[i], h.free[i]
				}
			}
			if h.minFree() != wantFree || h.port[0] != wantPort {
				t.Fatalf("trial %d: heap root (%d, %d), brute force (%d, %d)",
					trial, h.port[0], h.minFree(), wantPort, wantFree)
			}
		}
	}
}

// TestEarliestBankFreeMatchesBruteForce checks the device-level peek
// after each burst of pushes: for every bank it is non-mutating, stable,
// and the later of the bank's and the earliest-free write port's free
// times.
func TestEarliestBankFreeMatchesBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	d := newDev()
	now := uint64(0)
	for i := 0; i < 300; i++ {
		now += uint64(rng.Intn(100))
		d.Push(PendingWrite{Region: RegionData, Index: uint64(rng.Intn(64))}, now)
		if i%10 != 0 {
			continue
		}
		dig := d.StateDigest()
		for b := 0; b < d.Timing().Banks; b++ {
			got := d.EarliestBankFree(b)
			if d.StateDigest() != dig {
				t.Fatal("EarliestBankFree mutated persistent state")
			}
			if again := d.EarliestBankFree(b); again != got {
				t.Fatalf("peek not stable: %d then %d", got, again)
			}
			if want := max(d.bankFree[b], d.ports.minFree()); got != want {
				t.Fatalf("bank %d: peek %d, want %d (bank free %d, port free %d)", b, got, want, d.bankFree[b], d.ports.minFree())
			}
		}
	}
}
