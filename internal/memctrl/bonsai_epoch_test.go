package memctrl

import (
	"errors"
	"testing"

	"anubis/internal/counter"
)

// epochCase is one Bonsai configuration under the epoch tests: every
// scheme, plus Triad with two persisted tree levels.
type epochCase struct {
	name   string
	scheme Scheme
	levels int // TriadLevels
}

var epochCases = []epochCase{
	{"writeback", SchemeWriteBack, 0},
	{"strict", SchemeStrict, 0},
	{"osiris", SchemeOsiris, 0},
	{"agit-read", SchemeAGITRead, 0},
	{"agit-plus", SchemeAGITPlus, 0},
	{"selective", SchemeSelective, 0},
	{"triad", SchemeTriad, 0},
	{"triad-2", SchemeTriad, 2},
}

// deferringCases are the epochCases that arm the pipeline.
func deferringCases() []epochCase {
	var out []epochCase
	for _, c := range epochCases {
		if defersTreeUpdates(c.scheme) {
			out = append(out, c)
		}
	}
	return out
}

func (c epochCase) new(t *testing.T, epoch int) *Bonsai {
	t.Helper()
	cfg := TestConfig(c.scheme)
	cfg.TriadLevels = c.levels
	cfg.EpochRequests = epoch
	b, err := NewBonsai(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

func TestEpochWriteReadRoundTrip(t *testing.T) {
	for _, c := range epochCases {
		t.Run(c.name, func(t *testing.T) {
			b := c.new(t, 4)
			n := b.NumBlocks()
			// One block per page: far more pages than the tiny caches
			// hold, so mid-epoch evictions and journal-override refetches
			// are exercised, across many epoch closes.
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

// TestEpochOneIsStructurallyLegacy checks the byte-identity contract:
// EpochRequests 0 and 1 both select the eager path, producing identical
// timing, statistics, and persistent device state. The schemes that do
// not defer tree updates ignore the window altogether, so windows 4 and
// 16 must equal window 0 for them too.
func TestEpochOneIsStructurallyLegacy(t *testing.T) {
	for _, c := range epochCases {
		t.Run(c.name, func(t *testing.T) {
			run := func(epoch int) *Bonsai {
				b := c.new(t, epoch)
				for i := uint64(0); i < 120; i++ {
					addr := (i * 37) % b.NumBlocks()
					if err := b.WriteBlock(addr, pattern(i)); err != nil {
						t.Fatal(err)
					}
					if i%3 == 0 {
						if _, err := b.ReadBlock(addr); err != nil {
							t.Fatal(err)
						}
					}
				}
				return b
			}
			windows := []int{1}
			if !defersTreeUpdates(c.scheme) {
				windows = []int{1, 4, 16}
			}
			base := run(0)
			for _, e := range windows {
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

// TestEpochRootMatchesLegacyAfterClose checks that after the window
// drains, the coalesced updates anchor the exact same root the eager
// per-write path would have: the tree is a function of counter content
// only.
func TestEpochRootMatchesLegacyAfterClose(t *testing.T) {
	for _, c := range epochCases {
		t.Run(c.name, func(t *testing.T) {
			write := func(b *Bonsai) {
				for i := uint64(0); i < 100; i++ {
					addr := (i * counter.SplitMinors * 3) % b.NumBlocks()
					if err := b.WriteBlock(addr, pattern(i)); err != nil {
						t.Fatal(err)
					}
				}
			}
			legacy, epoch := c.new(t, 0), c.new(t, 16)
			write(legacy)
			write(epoch)
			if err := epoch.FlushEpoch(); err != nil {
				t.Fatal(err)
			}
			lr, _ := legacy.Device().GetReg64(regBonsaiRoot)
			er, _ := epoch.Device().GetReg64(regBonsaiRoot)
			if lr != er {
				t.Fatalf("root registers disagree after close: %#x vs %#x", lr, er)
			}
			if epoch.Device().JournalLen() != 0 {
				t.Fatalf("journal not cleared by close: %d entries", epoch.Device().JournalLen())
			}
		})
	}
}

// TestEpochJournalLifecycle checks the journal mirrors the open window:
// entries accumulate mid-epoch and the close's atomic group clears them.
func TestEpochJournalLifecycle(t *testing.T) {
	for _, c := range deferringCases() {
		t.Run(c.name, func(t *testing.T) {
			b := c.new(t, 4)
			for i := uint64(0); i < 3; i++ {
				if err := b.WriteBlock(i*counter.SplitMinors, pattern(i)); err != nil {
					t.Fatal(err)
				}
			}
			if got := b.Device().JournalLen(); got != 3 {
				t.Fatalf("mid-epoch journal has %d entries, want 3", got)
			}
			if err := b.WriteBlock(3*counter.SplitMinors, pattern(3)); err != nil {
				t.Fatal(err)
			}
			if got := b.Device().JournalLen(); got != 0 {
				t.Fatalf("journal survived the close: %d entries", got)
			}
		})
	}
}

// TestEpochMidWindowCrashRecovery is the heart of the coalescing
// buffer's persistence contract: a crash with the window open (deferred
// tree updates not yet drained) must recover through the two-pass
// journal replay for the deferring schemes. The other schemes open no
// window, so the same crash recovers through their eager recovery.
func TestEpochMidWindowCrashRecovery(t *testing.T) {
	for _, c := range epochCases {
		t.Run(c.name, func(t *testing.T) {
			b := c.new(t, 1<<20) // window never closes on its own
			n := b.NumBlocks()
			for i := uint64(0); i < 60; i++ {
				addr := (i * counter.SplitMinors) % n
				if err := b.WriteBlock(addr, pattern(i)); err != nil {
					t.Fatal(err)
				}
			}
			deferring := defersTreeUpdates(c.scheme)
			if got := b.Device().JournalLen(); deferring != (got > 0) {
				t.Fatalf("journal holds %d entries with deferral %v", got, deferring)
			}
			b.Crash()
			rep, err := b.Recover()
			if c.scheme == SchemeWriteBack {
				if !errors.Is(err, ErrNotRecoverable) {
					t.Fatalf("write-back recovery: %v", err)
				}
				return
			}
			if err != nil {
				t.Fatalf("recovery failed: %v", err)
			}
			if deferring != (rep.JournalPages > 0) {
				t.Fatalf("recovery replayed %d journal pages with deferral %v", rep.JournalPages, deferring)
			}
			if b.Device().JournalLen() != 0 {
				t.Fatal("journal not cleared after recovery")
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

// TestEpochHalfDrainedCloseRecovers crashes with the close's coalesced
// commit group half-drained (power loss mid-WPQ-drain): the DONE_BIT
// redo must replay the full group — node writes, root register, journal
// clear — before scheme recovery runs.
func TestEpochHalfDrainedCloseRecovers(t *testing.T) {
	for _, c := range deferringCases() {
		t.Run(c.name, func(t *testing.T) {
			b := c.new(t, 4)
			for i := uint64(0); i < 3; i++ {
				if err := b.WriteBlock(i*counter.SplitMinors, pattern(i)); err != nil {
					t.Fatal(err)
				}
			}
			// The 4th write triggers the close. Budget: its own request
			// group drains fully, then power dies after the close group's
			// first entry — every close group has at least two (the root
			// register and the journal clear), so the group always tears.
			const req = 3 // data, journal note and counter persist
			b.Device().SetPushBudget(req + 1)
			if err := b.WriteBlock(3*counter.SplitMinors, pattern(3)); err != nil {
				t.Fatal(err)
			}
			if !b.Device().DoneBit() {
				t.Fatal("close group drained fully; budget did not bite")
			}
			b.Crash()
			if _, err := b.Recover(); err != nil {
				t.Fatalf("recovery failed: %v", err)
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

// TestEpochPageOverflowFallsBackToLegacy checks a minor-counter
// overflow inside a window closes it and re-encrypts via the legacy
// path.
func TestEpochPageOverflowFallsBackToLegacy(t *testing.T) {
	for _, c := range deferringCases() {
		t.Run(c.name, func(t *testing.T) {
			b := c.new(t, 1<<20)
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
			// The overflow write ran outside the window; later writes
			// reopen it.
			if err := b.WriteBlock(counter.SplitMinors, pattern(7)); err != nil {
				t.Fatal(err)
			}
			if b.Device().JournalLen() == 0 {
				t.Fatal("window did not reopen after the overflow fallback")
			}
		})
	}
}

// TestEpochCoalescingReducesStrictTraffic is the point of the tentpole:
// under strict persistence, N writes sharing a root path must persist
// each shared ancestor once per epoch, not once per write.
func TestEpochCoalescingReducesStrictTraffic(t *testing.T) {
	run := func(epoch int) uint64 {
		b := epochCase{"strict", SchemeStrict, 0}.new(t, epoch)
		for i := uint64(0); i < 64; i++ {
			if err := b.WriteBlock(i%8, pattern(i)); err != nil {
				t.Fatal(err)
			}
		}
		if err := b.FlushEpoch(); err != nil {
			t.Fatal(err)
		}
		return b.Stats().StrictWrites
	}
	legacy, coalesced := run(0), run(16)
	if coalesced >= legacy {
		t.Fatalf("coalescing did not reduce strict writes: %d vs legacy %d", coalesced, legacy)
	}
}
