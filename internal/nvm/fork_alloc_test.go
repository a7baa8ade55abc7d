package nvm

import (
	"math/rand"
	"sync"
	"testing"
)

// TestForkedDeviceSteadyStateZeroAllocs pins the COW fork contract
// from the storage layer's side: after the one-time directory copy in
// Fork and the first-write page copies, a forked device's read and
// write paths are allocation-free — identical to a never-forked
// device. A regression here (e.g. a page copy per write instead of per
// first write, or an owner-tag miscompare) would silently turn every
// forked crash trial into a heap churn loop.
func TestForkedDeviceSteadyStateZeroAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race runtime allocates on instrumented accesses; counts are not meaningful")
	}
	d := NewDevice()
	const blocks = 4096
	var blk [BlockBytes]byte
	for i := uint64(0); i < blocks; i++ {
		blk[0] = byte(i)
		d.WriteRaw(RegionData, i, blk)
	}

	child := d.Fork()

	// Settle the child's COW state: first write to each shared page
	// copies it into the child; every later write hits the copy.
	for i := uint64(0); i < blocks; i++ {
		blk[0] = byte(i + 1)
		child.WriteRaw(RegionData, i, blk)
	}

	writes := testing.AllocsPerRun(100, func() {
		for i := uint64(0); i < 64; i++ {
			child.WriteRaw(RegionData, i*61%blocks, blk)
		}
	})
	if writes != 0 {
		t.Errorf("forked device steady-state writes: %.2f allocs per 64-write batch, want 0", writes)
	}

	reads := testing.AllocsPerRun(100, func() {
		for i := uint64(0); i < 64; i++ {
			if _, ok := child.ReadPtr(RegionData, i*67%blocks); !ok {
				t.Fatal("missing block")
			}
		}
	})
	if reads != 0 {
		t.Errorf("forked device reads: %.2f allocs per 64-read batch, want 0", reads)
	}

	// Reads of pages still shared with the parent must not COW-copy:
	// fork again and only read — zero allocations even on first touch.
	child2 := d.Fork()
	sharedReads := testing.AllocsPerRun(100, func() {
		for i := uint64(0); i < 64; i++ {
			if _, ok := child2.ReadPtr(RegionData, i*71%blocks); !ok {
				t.Fatal("missing block")
			}
		}
	})
	if sharedReads != 0 {
		t.Errorf("reads of parent-shared pages: %.2f allocs per 64-read batch, want 0 (reads must never trigger COW)", sharedReads)
	}
}

// TestForkConcurrentWriters drives a device and two forks of it from
// three goroutines, all writing into the directory chunks and pages
// they share (run it under -race). Each side must end holding exactly
// the image of a device that made the same calls on its own.
func TestForkConcurrentWriters(t *testing.T) {
	const span = 3 * chunkPages * pageBlocks // blocks in three chunks
	drive := func(d *Device, seed int64) {
		rng := rand.New(rand.NewSource(seed))
		for i := 0; i < 3000; i++ {
			r := Region(rng.Intn(2)) // data or counter
			idx := uint64(rng.Intn(span))
			if i%2 == 0 {
				idx %= 4 * pageBlocks // a few hot pages every side writes
			}
			switch rng.Intn(4) {
			case 0:
				d.Erase(r, idx)
			case 1:
				d.CorruptBlock(r, idx, rng.Intn(BlockBytes), 0x5a)
			default:
				if r == RegionData {
					d.WriteRawData(idx, blk(byte(i)), Sideband{MAC: uint64(seed)})
				} else {
					d.WriteRaw(r, idx, blk(byte(i)))
				}
			}
		}
	}
	for round := int64(0); round < 3; round++ {
		base := newDev()
		drive(base, 100+round)
		sides := []*Device{base, base.Fork(), base.Fork()}
		want := make([]uint64, len(sides))
		for i := range sides {
			ref := newDev()
			drive(ref, 100+round)
			drive(ref, round*10+int64(i))
			want[i] = ref.StateDigest()
		}
		var wg sync.WaitGroup
		for i, d := range sides {
			wg.Add(1)
			go func(i int, d *Device) {
				defer wg.Done()
				drive(d, round*10+int64(i))
			}(i, d)
		}
		wg.Wait()
		for i, d := range sides {
			if got := d.StateDigest(); got != want[i] {
				t.Fatalf("round %d side %d: image %#x, want %#x (a write reached a sibling)", round, i, got, want[i])
			}
		}
	}
}
