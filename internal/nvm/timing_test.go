package nvm

import "testing"

// TestWriteSerialization: PCM writes serialize on the write ports, not
// across all banks — this is what makes strict persistence expensive.
func TestWriteSerialization(t *testing.T) {
	tm := DefaultTiming()
	tm.WritePorts = 1
	tm.WPQEntries = 64
	d := NewDevice(tm)
	// Push 4 writes at t=0; the 4th drains at 4*WriteNS.
	for i := uint64(0); i < 4; i++ {
		d.Push(PendingWrite{Region: RegionData, Index: i}, 0)
	}
	// A read of a freshly written block must wait for that block's bank
	// to be released by its drain.
	_, done := d.ReadAt(RegionData, 3, 0)
	if done < 4*tm.WriteNS {
		t.Fatalf("read of draining block finished at %d, want >= %d", done, 4*tm.WriteNS)
	}
}

func TestWritePortsParallelism(t *testing.T) {
	tm := DefaultTiming()
	tm.WritePorts = 2
	tm.WPQEntries = 64
	one := NewDevice(Timing{ReadNS: 60, WriteNS: 150, Banks: 8, WritePorts: 1, WPQEntries: 64, DrainWatermark: 64})
	two := NewDevice(tm)
	// 8 writes, then a push that stalls only when the queue is full —
	// compare drain completion via a full-queue stall.
	oneT := Timing{ReadNS: 60, WriteNS: 150, Banks: 8, WritePorts: 1, WPQEntries: 4, DrainWatermark: 64}
	twoT := oneT
	twoT.WritePorts = 2
	d1 := NewDevice(oneT)
	d2 := NewDevice(twoT)
	var t1, t2 uint64
	for i := uint64(0); i < 8; i++ {
		t1 = d1.Push(PendingWrite{Region: RegionData, Index: i}, t1)
		t2 = d2.Push(PendingWrite{Region: RegionData, Index: i}, t2)
	}
	if t2 >= t1 {
		t.Fatalf("2 ports (stall to %d) not faster than 1 port (stall to %d)", t2, t1)
	}
	_ = one
	_ = two
}

// TestDrainWatermarkBlocksReads: a read arriving with the write queue
// above the watermark waits until it drops back below.
func TestDrainWatermarkBlocksReads(t *testing.T) {
	tm := Timing{ReadNS: 60, WriteNS: 150, Banks: 64, WritePorts: 1, WPQEntries: 32, DrainWatermark: 2}
	d := NewDevice(tm)
	for i := uint64(0); i < 6; i++ {
		d.Push(PendingWrite{Region: RegionData, Index: i + 100}, 0)
	}
	// Queue holds 6 writes completing at 150,300,...,900. Watermark 2:
	// the read must wait until ≤... the (6-2+1)=5th earliest completes?
	// Implementation waits for the (excess+1)-th earliest = (6-2+1)=5th
	// at index excess=4 -> t=750.
	_, done := d.ReadAt(RegionData, 999, 0)
	if done < 700 {
		t.Fatalf("read finished at %d despite write-drain mode", done)
	}
	if d.Stats().DrainStallNS == 0 {
		t.Fatal("drain stall not accounted")
	}
}

func TestDrainWatermarkDisabled(t *testing.T) {
	tm := Timing{ReadNS: 60, WriteNS: 150, Banks: 64, WritePorts: 1, WPQEntries: 32, DrainWatermark: 0}
	d := NewDevice(tm)
	for i := uint64(0); i < 6; i++ {
		d.Push(PendingWrite{Region: RegionData, Index: i + 100}, 0)
	}
	_, done := d.ReadAt(RegionData, 999, 0)
	if done != 60 {
		t.Fatalf("watermark 0 should disable drain blocking; done=%d", done)
	}
}

func TestRegisterWritesBypassTiming(t *testing.T) {
	tm := DefaultTiming()
	tm.WPQEntries = 1
	d := NewDevice(tm)
	d.Push(PendingWrite{Region: RegionData, Index: 0}, 0)
	// Register writes must not consume WPQ slots or stall.
	now := d.Push(PendingWrite{RegName: "root", Block: blk(1)}, 0)
	if now != 0 {
		t.Fatalf("register write stalled to %d", now)
	}
	if v, ok := d.GetReg("root"); !ok || v != blk(1) {
		t.Fatal("register write not applied")
	}
	if d.Stats().Writes != 1 {
		t.Fatalf("register write counted as NVM write: %d", d.Stats().Writes)
	}
}

func TestRegisterWritesInCommitGroups(t *testing.T) {
	d := NewDevice(DefaultTiming())
	d.BeginCommit()
	d.Stage(PendingWrite{Region: RegionData, Index: 5, Block: blk(5)})
	d.Stage(PendingWrite{RegName: "root", Block: blk(7)})
	d.SetPushBudget(0) // interrupt before anything drains
	d.CommitGroup(0)
	d.CrashWith(CrashFullADR, nil)
	// Neither the block nor the register value is visible yet...
	if _, ok := d.GetReg("root"); ok {
		t.Fatal("register applied before redo")
	}
	// ...until the committed group is redone atomically.
	if n := d.RedoCommitted(); n != 2 {
		t.Fatalf("redone = %d, want 2", n)
	}
	if v, ok := d.GetReg("root"); !ok || v != blk(7) {
		t.Fatal("register not applied by redo")
	}
	if d.Read(RegionData, 5) != blk(5) {
		t.Fatal("block not applied by redo")
	}
}

func TestWPQRingKth(t *testing.T) {
	q := newWPQRing(8)
	// Out-of-order pushes exercise the insertion-sort fallback.
	for _, v := range []uint64{30, 10, 20} {
		q.push(v)
	}
	if q.kth(0) != 10 || q.kth(1) != 20 || q.kth(2) != 30 {
		t.Fatalf("kth wrong: %d %d %d", q.kth(0), q.kth(1), q.kth(2))
	}
	if q.min() != 10 {
		t.Fatalf("min = %d, want 10", q.min())
	}
	q.prune(15)
	if q.size != 2 || q.min() != 20 {
		t.Fatalf("after prune: size=%d min=%d", q.size, q.min())
	}
	// Wrap the ring around its backing array.
	for _, v := range []uint64{40, 50, 60, 70, 80, 90} {
		q.push(v)
	}
	q.prune(45)
	q.push(100)
	want := []uint64{50, 60, 70, 80, 90, 100}
	for i, w := range want {
		if q.kth(i) != w {
			t.Fatalf("kth(%d) = %d, want %d", i, q.kth(i), w)
		}
	}
}

// TestWPQWatermarkImpossibleExcess is the regression test for the old
// nthSmallest clamp: asking for a completion index at or beyond the
// queue occupancy is an invariant violation (excess = size - wm can
// never reach size for wm >= 1) and must panic instead of silently
// returning the latest completion.
func TestWPQWatermarkImpossibleExcess(t *testing.T) {
	q := newWPQRing(8)
	q.push(10)
	q.push(20)
	for _, k := range []int{2, 99, -1} {
		k := k
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("kth(%d) with 2 queued writes did not panic", k)
				}
			}()
			q.kth(k)
		}()
	}
}

func TestPortHeapTieBreak(t *testing.T) {
	h := newPortHeap(3)
	// All ports free at 0: the heap must hand out the lowest index
	// first, matching the old linear scan's deterministic choice.
	h.occupyMin(100) // port 0
	h.occupyMin(100) // port 1
	if h.minFree() != 0 {
		t.Fatalf("minFree = %d, want 0 (port 2 still free)", h.minFree())
	}
	h.occupyMin(50) // port 2
	if h.minFree() != 50 {
		t.Fatalf("minFree = %d, want 50", h.minFree())
	}
	h.reset()
	if h.minFree() != 0 {
		t.Fatal("reset did not free ports")
	}
}

func TestWearTracking(t *testing.T) {
	d := NewDevice(DefaultTiming())
	for i := 0; i < 5; i++ {
		d.Push(PendingWrite{Region: RegionData, Index: 7}, 0)
	}
	d.Push(PendingWrite{Region: RegionData, Index: 8}, 0)
	d.WriteRaw(RegionCounter, 3, blk(1))
	if d.WearOf(RegionData, 7) != 5 {
		t.Fatalf("wear = %d, want 5", d.WearOf(RegionData, 7))
	}
	idx, c := d.MaxWear(RegionData)
	if idx != 7 || c != 5 {
		t.Fatalf("MaxWear = (%d,%d)", idx, c)
	}
	r, idx, c := d.MaxWearAll()
	if r != RegionData || idx != 7 || c != 5 {
		t.Fatalf("MaxWearAll = (%v,%d,%d)", r, idx, c)
	}
	if d.WearOf(RegionTree, 0) != 0 {
		t.Fatal("untouched block has wear")
	}
}

func TestWearRegisterWritesExcluded(t *testing.T) {
	d := NewDevice(DefaultTiming())
	d.Push(PendingWrite{RegName: "x", Block: blk(1)}, 0)
	if _, _, c := d.MaxWearAll(); c != 0 {
		t.Fatal("register write counted as media wear")
	}
}
