package nvm

import (
	"math/rand"
	"testing"
)

// TestWriteSerialization: PCM writes serialize on the write ports, not
// across all banks — this is what makes strict persistence expensive.
func TestWriteSerialization(t *testing.T) {
	d := newDev()
	// Push 4 writes at t=0; the 4th drains at (4/WritePorts)*WriteNS.
	for i := uint64(0); i < 4; i++ {
		d.Push(PendingWrite{Region: RegionData, Index: i}, 0)
	}
	// A read of a freshly written block must wait for that block's bank
	// to be released by its drain.
	_, done := d.ReadAt(RegionData, 3, 0)
	if want := uint64(4/WritePorts*WriteNS + ReadNS); done < want {
		t.Fatalf("read of draining block finished at %d, want >= %d", done, want)
	}
}

// TestWritePortsParallelism: N writes pushed at t=0 occupy the write
// ports in turn, so the last one drains at ceil(N/WritePorts)*WriteNS,
// and none stalls while the WPQ has room.
func TestWritePortsParallelism(t *testing.T) {
	for n := 1; n <= WPQEntries; n++ {
		d := newDev()
		for i := 0; i < n; i++ {
			if now := d.Push(PendingWrite{Region: RegionData, Index: uint64(i)}, 0); now != 0 {
				t.Fatalf("n=%d: push %d stalled to %d", n, i, now)
			}
		}
		if got, want := d.WPQDrainTime(), uint64((n+WritePorts-1)/WritePorts*WriteNS); got != want {
			t.Fatalf("%d writes at t=0 drain at %d, want %d", n, got, want)
		}
	}
}

// TestDrainWatermarkBlocksReads: a read arriving with the write queue
// above the watermark waits until it drops back below.
func TestDrainWatermarkBlocksReads(t *testing.T) {
	d := newDev()
	const excess = 4
	for i := uint64(0); i < DrainWatermark+excess; i++ {
		d.Push(PendingWrite{Region: RegionData, Index: i + 100}, 0)
	}
	// The read waits for the (excess+1)-th earliest completion: the
	// ports drain WritePorts writes every WriteNS.
	stall := uint64((excess + WritePorts) / WritePorts * WriteNS)
	_, done := d.ReadAt(RegionData, 999, 0)
	if done < stall+ReadNS {
		t.Fatalf("read finished at %d despite write-drain mode (queue below the watermark at %d)", done, stall)
	}
	if got := d.Stats().DrainStallNS; got != stall {
		t.Fatalf("drain stall = %d, want %d", got, stall)
	}
}

// TestDrainWatermarkDisabled: below the watermark, write-drain mode is
// off, so a read to an idle bank completes in ReadNS.
func TestDrainWatermarkDisabled(t *testing.T) {
	d := newDev()
	// DrainWatermark-1 writes, all to bank 0.
	for i, n := uint64(0), 0; n < DrainWatermark-1; i++ {
		if d.bankOf(RegionData, i) == 0 {
			d.Push(PendingWrite{Region: RegionData, Index: i}, 0)
			n++
		}
	}
	idle := uint64(0)
	for d.bankOf(RegionData, idle) == 0 {
		idle++
	}
	_, done := d.ReadAt(RegionData, idle, 0)
	if done != ReadNS || d.Stats().DrainStallNS != 0 {
		t.Fatalf("read below the watermark: done=%d drain stall=%d, want %d and 0", done, d.Stats().DrainStallNS, ReadNS)
	}
}

func TestRegisterWritesBypassTiming(t *testing.T) {
	d := newDev()
	for i := uint64(0); i < WPQEntries; i++ {
		d.Push(PendingWrite{Region: RegionData, Index: i}, 0)
	}
	// Register writes must not consume WPQ slots or stall, even with
	// the queue full.
	now := d.Push(PendingWrite{RegName: "root", Block: blk(1)}, 0)
	if now != 0 {
		t.Fatalf("register write stalled to %d", now)
	}
	if v, ok := d.GetReg("root"); !ok || v != blk(1) {
		t.Fatal("register write not applied")
	}
	if d.Stats().Writes != WPQEntries {
		t.Fatalf("register write counted as NVM write: %d", d.Stats().Writes)
	}
}

func TestRegisterWritesInCommitGroups(t *testing.T) {
	d := newDev()
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
	var q wpqRing
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
	// Walk the head to the last slot of the backing array, so the queue
	// wraps around it, then insert out of order across the wrap.
	for v := uint64(40); q.head < WPQEntries-1; v += 10 {
		q.push(v)
		q.prune(q.min())
	}
	first, base := q.min(), q.latest()
	for i := uint64(1); i <= 6; i++ {
		q.push(base + 10*i)
	}
	q.push(base + 35)
	want := []uint64{first, base, base + 10, base + 20, base + 30, base + 35, base + 40, base + 50, base + 60}
	if q.size != len(want) || q.head != WPQEntries-1 {
		t.Fatalf("ring holds %d entries from head %d, want %d from %d", q.size, q.head, len(want), WPQEntries-1)
	}
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
	var q wpqRing
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

// TestPortHeapTieBreak: the free port with the lowest index takes the
// next drain, so equal port clocks schedule deterministically.
func TestPortHeapTieBreak(t *testing.T) {
	d := newDev()
	var want [WritePorts]uint64
	// Every port is free at 0: the drains fill them in index order, and
	// once all tie again at WriteNS, in index order again.
	for i := 0; i < 2*WritePorts; i++ {
		d.Push(PendingWrite{Region: RegionData, Index: uint64(i)}, 0)
		want[i%WritePorts] = uint64(i/WritePorts+1) * WriteNS
		if d.ports != want {
			t.Fatalf("after push %d: port clocks %v, want %v", i, d.ports, want)
		}
	}
	d.CrashWith(CrashFullADR, nil)
	if d.ports != ([WritePorts]uint64{}) || d.earliestPort() != 0 {
		t.Fatalf("crash left port clocks %v", d.ports)
	}
}

// TestPeekEarliestMatchesBruteForce is the property test for the write
// port scan: across arbitrary push sequences, the port earliestPort
// picks is the brute-force argmin of the port clocks, the lowest index
// among ties, and it is the one port the next drain occupies.
func TestPeekEarliestMatchesBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	for trial := 0; trial < 200; trial++ {
		d := newDev()
		now := uint64(0)
		for op := rng.Intn(64); op > 0; op-- {
			want := 0
			for i, free := range d.ports {
				if free < d.ports[want] {
					want = i
				}
			}
			if got := d.earliestPort(); got != want {
				t.Fatalf("trial %d: scan picks port %d of %v, brute force %d", trial, got, d.ports, want)
			}
			before := d.ports
			// Arrivals at most WriteNS apart keep ports tied often.
			now += uint64(rng.Intn(2)) * WriteNS
			d.Push(PendingWrite{Region: RegionData, Index: uint64(rng.Intn(64))}, now)
			for i := range d.ports {
				if changed := d.ports[i] != before[i]; changed != (i == want) {
					t.Fatalf("trial %d: push moved port clocks %v to %v, want only port %d", trial, before, d.ports, want)
				}
			}
		}
	}
}

func TestWearTracking(t *testing.T) {
	d := newDev()
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
	d := newDev()
	d.Push(PendingWrite{RegName: "x", Block: blk(1)}, 0)
	if _, _, c := d.MaxWearAll(); c != 0 {
		t.Fatal("register write counted as media wear")
	}
}
