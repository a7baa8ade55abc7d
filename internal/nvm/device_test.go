package nvm

import (
	"bytes"
	"encoding/gob"
	"errors"
	"strings"
	"testing"
	"testing/quick"
)

func blk(b byte) (d [BlockBytes]byte) {
	for i := range d {
		d[i] = b
	}
	return d
}

func newDev() *Device { return NewDevice() }

// sideband returns the sideband ReadData reports for a data block.
func sideband(d *Device, idx uint64) Sideband {
	_, side, _ := d.ReadData(idx)
	return side
}

func TestReadUnwrittenIsZero(t *testing.T) {
	d := newDev()
	if d.Read(RegionData, 42) != ([BlockBytes]byte{}) {
		t.Fatal("unwritten block not zero")
	}
}

func TestPushThenRead(t *testing.T) {
	d := newDev()
	d.Push(PendingWrite{Region: RegionCounter, Index: 7, Block: blk(3)}, 0)
	if d.Read(RegionCounter, 7) != blk(3) {
		t.Fatal("pushed write not visible")
	}
	// Other regions have independent index spaces.
	if d.Read(RegionData, 7) != ([BlockBytes]byte{}) {
		t.Fatal("write leaked across regions")
	}
}

func TestSidebandStoredWithData(t *testing.T) {
	d := newDev()
	side := Sideband{MAC: 0xdead}
	side.ECC[0] = 9
	d.Push(PendingWrite{Region: RegionData, Index: 1, Block: blk(1), HasSide: true, Side: side}, 0)
	if got := sideband(d, 1); got != side {
		t.Fatalf("sideband = %+v, want %+v", got, side)
	}
}

func TestSidebandOutsideDataPanics(t *testing.T) {
	d := newDev()
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	d.Push(PendingWrite{Region: RegionTree, Index: 0, HasSide: true}, 0)
}

func TestReadTiming(t *testing.T) {
	d := newDev()
	_, done := d.ReadAt(RegionData, 5, 100)
	if done != 100+ReadNS {
		t.Fatalf("done = %d, want %d", done, 100+ReadNS)
	}
	// Back-to-back reads of the same bank serialize.
	_, done2 := d.ReadAt(RegionData, 5, 100)
	if done2 != done+ReadNS {
		t.Fatalf("second read done = %d, want %d", done2, done+ReadNS)
	}
}

func TestBankParallelism(t *testing.T) {
	d := newDev()
	// Find two indices on different banks.
	var i, j uint64
	found := false
	for j = 1; j < 1000 && !found; j++ {
		if d.bankOf(RegionData, 0) != d.bankOf(RegionData, j) {
			found = true
			i = 0
			break
		}
	}
	if !found {
		t.Skip("no distinct banks found")
	}
	_, d1 := d.ReadAt(RegionData, i, 0)
	_, d2 := d.ReadAt(RegionData, j, 0)
	if d1 != d2 {
		t.Fatalf("parallel banks should finish together: %d vs %d", d1, d2)
	}
}

func TestWPQBackPressure(t *testing.T) {
	d := newDev()
	now := uint64(0)
	// The queue holds WPQEntries writes; the first drains complete at
	// WriteNS.
	for i := uint64(0); i < WPQEntries; i++ {
		now = d.Push(PendingWrite{Region: RegionData, Index: i, Block: blk(byte(i))}, now)
	}
	if now != 0 {
		t.Fatalf("first %d pushes stalled: now=%d", WPQEntries, now)
	}
	now = d.Push(PendingWrite{Region: RegionData, Index: WPQEntries}, now)
	if now != WriteNS {
		t.Fatalf("push on a full WPQ resumed at %d, want %d (the earliest drain)", now, WriteNS)
	}
	if d.Stats().WPQStallNS != WriteNS {
		t.Fatalf("stall time = %d, want %d", d.Stats().WPQStallNS, WriteNS)
	}
}

func TestWPQDrainFreesSlots(t *testing.T) {
	d := newDev()
	for i := uint64(0); i < WPQEntries; i++ {
		d.Push(PendingWrite{Region: RegionData, Index: i}, 0)
	}
	// Once every write has drained, the full queue is empty again: no
	// stall.
	late := d.WPQDrainTime()
	got := d.Push(PendingWrite{Region: RegionData, Index: WPQEntries}, late)
	if got != late {
		t.Fatalf("push at %d stalled to %d despite drained WPQ", late, got)
	}
}

func TestStatsPerRegion(t *testing.T) {
	d := newDev()
	d.Push(PendingWrite{Region: RegionSCT, Index: 0}, 0)
	d.Push(PendingWrite{Region: RegionSCT, Index: 1}, 0)
	d.Read(RegionTree, 0)
	s := d.Stats()
	if s.WritesByRegion[RegionSCT] != 2 || s.Writes != 2 {
		t.Fatalf("SCT writes = %d (total %d), want 2", s.WritesByRegion[RegionSCT], s.Writes)
	}
	if s.ReadsByRegion[RegionTree] != 1 {
		t.Fatalf("tree reads = %d, want 1", s.ReadsByRegion[RegionTree])
	}
}

func TestCorruptBlock(t *testing.T) {
	d := newDev()
	d.Push(PendingWrite{Region: RegionData, Index: 3, Block: blk(0xff)}, 0)
	if !d.CorruptBlock(RegionData, 3, 10, 0x01) {
		t.Fatal("corrupt failed on existing block")
	}
	got := d.Read(RegionData, 3)
	if got[10] != 0xfe {
		t.Fatalf("byte = %#x, want 0xfe", got[10])
	}
	if d.CorruptBlock(RegionData, 999, 0, 1) {
		t.Fatal("corrupt succeeded on missing block")
	}
}

func TestBlocksIn(t *testing.T) {
	d := newDev()
	for _, idx := range []uint64{9, 2, 5} {
		d.WriteRaw(RegionCounter, idx, blk(byte(idx)))
	}
	got := d.BlocksIn(RegionCounter)
	want := []uint64{2, 5, 9}
	if len(got) != len(want) {
		t.Fatalf("BlocksIn = %v", got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("BlocksIn = %v, want %v", got, want)
		}
	}
}

// TestHas64MatchesHas pins Has64 to 64 Has calls: on never-touched
// pages, on partly written pages, on a fully written group, after
// erases, on a forked child, on groups at a directory chunk's edges,
// and on groups past the directory's cap (the overflow map). No block
// sits just below the cap: that would allocate the full top level.
func TestHas64MatchesHas(t *testing.T) {
	d := newDev()
	over := uint64(maxDirPages) * pageBlocks / 64 // first group in the overflow map
	dense := make([]uint64, 64)
	for i := range dense {
		dense[i] = uint64(i)
	}
	written := map[uint64][]uint64{
		1:        {0, 7, 8, 13, 63},        // partly written pages
		2:        {0, 1, 2, 3, 4, 5, 6, 7}, // one full page
		5:        dense,                    // every lane of the group
		over:     {0, 9, 40},               // overflow map
		over + 7: {63},                     // overflow map, far page
	}
	for g, lanes := range written {
		for _, l := range lanes {
			d.WriteRaw(RegionData, g*64+l, blk(byte(l)))
		}
	}
	d.Erase(RegionData, 1*64+8)    // erased block in a written page
	d.Erase(RegionData, over*64+9) // erased block in the overflow map
	d.Erase(RegionData, 4*64+3)    // erase of a never-written block
	child := d.Fork()
	child.Erase(RegionData, 2*64+4) // copy-on-write erase in the child
	child.WriteRaw(RegionData, 3*64+33, blk(1))

	check := func(name string, dev *Device, g uint64) {
		t.Helper()
		var want uint64
		for i := uint64(0); i < 64; i++ {
			if dev.Has(RegionData, g*64+i) {
				want |= 1 << i
			}
		}
		if got := dev.Has64(RegionData, g); got != want {
			t.Errorf("%s group %d: Has64 = %#x, 64 Has calls = %#x", name, g, got, want)
		}
	}
	groups := []uint64{0, 1, 2, 3, 4, 5, 1000, over - 1, over, over + 1, over + 7}
	for _, g := range groups {
		check("parent", d, g)
		check("child", child, g)
	}
	if got := d.Has64(RegionData, 5); got != ^uint64(0) {
		t.Errorf("group 5 = %#x, want every lane", got)
	}
	// Writing past the cap allocated no directory up to it: only the
	// one chunk of groups 0..5 exists.
	if n := len(d.store[RegionData].dir); n != 1 {
		t.Fatalf("top level holds %d chunks after writes past the cap, want 1", n)
	}

	// A top level grown on demand ends where the last touched chunk
	// does. Writing the last page of chunk 1 makes group last (chunk
	// 1's final group) end at the directory's end, leaves chunk 0 nil
	// below it, and puts the next group past the top level.
	edge := newDev()
	last := uint64(2*chunkPages)*pageBlocks/64 - 1 // chunk 1's final group
	edge.WriteRaw(RegionData, last*64+63, blk(2))
	edge.WriteRaw(RegionData, last*64+1, blk(1))
	if n := len(edge.store[RegionData].dir); n != 2 || edge.store[RegionData].dir[0] != nil {
		t.Fatalf("top level holds %d chunks, want 2 with chunk 0 unallocated", n)
	}
	for _, g := range []uint64{0, last - chunkPages*pageBlocks/64, last - 1, last, last + 1} {
		check("edge", edge, g)
	}
	if got := edge.Has64(RegionData, last); got != 1<<1|1<<63 {
		t.Errorf("edge group %d = %#x, want lanes 1 and 63", last, got)
	}
	if got := d.Has64(RegionData, 1); got != 1<<0|1<<7|1<<13|1<<63 {
		t.Errorf("group 1 = %#x, want lanes 0, 7, 13, 63", got)
	}
	if got := child.Has64(RegionData, 2); got != 0xef {
		t.Errorf("child group 2 = %#x, want 0xef", got)
	}
	if got := d.Has64(RegionCounter, 1); got != 0 {
		t.Errorf("counter region group 1 = %#x, want 0 (regions are separate)", got)
	}
}

// --- two-stage commit ---

func TestCommitGroupAllOrNothing(t *testing.T) {
	d := newDev()
	d.BeginCommit()
	d.Stage(PendingWrite{Region: RegionData, Index: 0, Block: blk(1)})
	d.Stage(PendingWrite{Region: RegionCounter, Index: 0, Block: blk(2)})
	// Crash before CommitGroup: the group is lost entirely.
	d.CrashWith(CrashFullADR, nil)
	if d.Read(RegionData, 0) != ([BlockBytes]byte{}) || d.Read(RegionCounter, 0) != ([BlockBytes]byte{}) {
		t.Fatal("uncommitted group leaked into NVM")
	}
	if n := d.RedoCommitted(); n != 0 {
		t.Fatalf("RedoCommitted redid %d writes of an uncommitted group", n)
	}
}

func TestCommitGroupDurable(t *testing.T) {
	d := newDev()
	d.BeginCommit()
	d.Stage(PendingWrite{Region: RegionData, Index: 1, Block: blk(7)})
	d.CommitGroup(0)
	d.CrashWith(CrashFullADR, nil)
	if d.Read(RegionData, 1) != blk(7) {
		t.Fatal("committed write lost")
	}
	if d.DoneBit() {
		t.Fatal("DONE_BIT set after full drain")
	}
}

func TestCommitInterruptedMidDrainIsRedone(t *testing.T) {
	d := newDev()
	d.BeginCommit()
	d.Stage(PendingWrite{Region: RegionData, Index: 0, Block: blk(1)})
	d.Stage(PendingWrite{Region: RegionCounter, Index: 0, Block: blk(2)})
	d.Stage(PendingWrite{Region: RegionTree, Index: 0, Block: blk(3)})
	d.SetPushBudget(1) // power loss after the first push
	d.CommitGroup(0)
	if !d.DoneBit() {
		t.Fatal("DONE_BIT should be set after an interrupted drain")
	}
	d.CrashWith(CrashFullADR, nil)
	// Recovery: the whole group must be reapplied (REDO is idempotent).
	if n := d.RedoCommitted(); n != 3 {
		t.Fatalf("RedoCommitted redid %d writes, want 3", n)
	}
	if d.Read(RegionData, 0) != blk(1) || d.Read(RegionCounter, 0) != blk(2) || d.Read(RegionTree, 0) != blk(3) {
		t.Fatal("group not fully reapplied after recovery")
	}
	if d.DoneBit() {
		t.Fatal("DONE_BIT not cleared by RedoCommitted")
	}
}

func TestBeginCommitPanicsWithDoneBitSet(t *testing.T) {
	d := newDev()
	d.BeginCommit()
	d.Stage(PendingWrite{Region: RegionData, Index: 0})
	d.SetPushBudget(0)
	d.CommitGroup(0)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	d.BeginCommit()
}

func TestEmptyCommitGroupIsNoop(t *testing.T) {
	d := newDev()
	d.BeginCommit()
	if got := d.CommitGroup(123); got != 123 {
		t.Fatalf("empty commit advanced time to %d", got)
	}
	if d.DoneBit() {
		t.Fatal("DONE_BIT set by empty commit")
	}
}

// --- persistent registers ---

func TestRegisterFileSurvivesCrash(t *testing.T) {
	d := newDev()
	d.SetReg64("mt_root", 0xabcdef)
	d.SetReg("blob", []byte{1, 2, 3})
	d.CrashWith(CrashFullADR, nil)
	if v, ok := d.GetReg64("mt_root"); !ok || v != 0xabcdef {
		t.Fatalf("mt_root = %#x,%v", v, ok)
	}
	if b, ok := d.GetReg("blob"); !ok || b[0] != 1 || b[2] != 3 {
		t.Fatal("blob register lost")
	}
	if _, ok := d.GetReg("missing"); ok {
		t.Fatal("missing register found")
	}
	if _, ok := d.GetReg64("missing"); ok {
		t.Fatal("missing 64-bit register found")
	}
}

func TestRegisterTooLargePanics(t *testing.T) {
	d := newDev()
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	d.SetReg("big", make([]byte, 65))
}

func TestReg64RoundTrip(t *testing.T) {
	d := newDev()
	f := func(v uint64) bool {
		d.SetReg64("x", v)
		got, ok := d.GetReg64("x")
		return ok && got == v
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestRegionString(t *testing.T) {
	names := map[Region]string{
		RegionData: "data", RegionCounter: "counter", RegionTree: "tree",
		RegionSCT: "sct", RegionSMT: "smt", RegionST: "st",
	}
	for r, want := range names {
		if r.String() != want {
			t.Fatalf("%d.String() = %q, want %q", r, r.String(), want)
		}
	}
	if Region(99).String() == "" {
		t.Fatal("unknown region should still stringify")
	}
}

func TestCrashResetsTimingState(t *testing.T) {
	d := newDev()
	for i := uint64(0); i < WPQEntries; i++ {
		d.Push(PendingWrite{Region: RegionData, Index: i}, 0)
	}
	d.ReadAt(RegionData, 0, 0)
	d.CrashWith(CrashFullADR, nil)
	if n := d.WPQOccupancy(0); n != 0 {
		t.Fatalf("WPQ survived crash: %d writes queued", n)
	}
	if _, done := d.ReadAt(RegionData, 0, 0); done != ReadNS {
		t.Fatalf("bank state survived crash: done=%d", done)
	}
	if d.Push(PendingWrite{Region: RegionData, Index: 1}, 0) != 0 || d.WPQDrainTime() != WriteNS {
		t.Fatalf("port state survived crash: drain at %d", d.WPQDrainTime())
	}
}

// TestLoadDeviceRejectsBadTiming: images written while the device's
// timing was configurable carry a Timing field under the same magic.
// Gob skips it, so an image whose saved timing is damaged — counts that
// once had to be refused because they sized the device's allocations —
// loads, and the device runs at Table 1 timing.
func TestLoadDeviceRejectsBadTiming(t *testing.T) {
	type timing struct {
		ReadNS, WriteNS                               uint64
		Banks, WPQEntries, WritePorts, DrainWatermark int
	}
	type timedImage struct {
		Magic  string
		Timing timing
		Store  [numRegions]map[uint64][BlockBytes]byte
	}
	for _, tc := range []struct {
		name string
		set  func(*timing)
	}{
		{"zero banks", func(tm *timing) { tm.Banks = 0 }},
		{"zero wpq entries", func(tm *timing) { tm.WPQEntries = 0 }},
		{"huge banks", func(tm *timing) { tm.Banks = 1 << 40 }},
		{"huge write ports", func(tm *timing) { tm.WritePorts = 1 << 40 }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			img := timedImage{Magic: imageMagic, Timing: timing{60, 150, 4, 32, 2, 16}}
			tc.set(&img.Timing)
			img.Store[RegionData] = map[uint64][BlockBytes]byte{3: blk(7)}
			var buf bytes.Buffer
			if err := gob.NewEncoder(&buf).Encode(img); err != nil {
				t.Fatal(err)
			}
			d, err := LoadDevice(&buf)
			if err != nil {
				t.Fatalf("LoadDevice(timing %+v) = %v", img.Timing, err)
			}
			if got, done := d.ReadAt(RegionData, 3, 0); got != blk(7) || done != ReadNS {
				t.Fatalf("read block 3 = %x at %d, want %x at %d", got[0], done, byte(7), ReadNS)
			}
			for i := uint64(0); i < WPQEntries; i++ {
				d.Push(PendingWrite{Region: RegionData, Index: 100 + i}, 0)
			}
			if now := d.Push(PendingWrite{Region: RegionData, Index: 99}, 0); now != WriteNS {
				t.Fatalf("push on a full %d-entry WPQ resumed at %d, want %d", WPQEntries, now, WriteNS)
			}
		})
	}
}

// TestLoadDeviceRefusesV1Image: a v1 image holds data under the AES
// pad, which no read could verify, so LoadDevice refuses it with an
// error that names the format and wraps ErrOldImage. A current image
// with the same contents loads.
func TestLoadDeviceRefusesV1Image(t *testing.T) {
	img := deviceImage{Magic: "anubis-nvm-image-v1"}
	img.Store[RegionData] = map[uint64][BlockBytes]byte{3: blk(7)}
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(img); err != nil {
		t.Fatal(err)
	}
	_, err := LoadDevice(&buf)
	if !errors.Is(err, ErrOldImage) || !strings.Contains(err.Error(), "anubis-nvm-image-v1") {
		t.Fatalf("LoadDevice(v1 image) = %v, want ErrOldImage naming anubis-nvm-image-v1", err)
	}
	img.Magic = imageMagic
	buf.Reset()
	if err := gob.NewEncoder(&buf).Encode(img); err != nil {
		t.Fatal(err)
	}
	d, err := LoadDevice(&buf)
	if err != nil || d.Read(RegionData, 3) != blk(7) {
		t.Fatalf("LoadDevice(v2 image) = %v", err)
	}
}

// parentImage is the v2 image as it was saved while the epoch pipeline
// existed, with the fields these tests set: a staged write could carry
// an epoch-journal operation (1 a note, 2 a clear), and the journal's
// entries were saved beside the commit group.
type parentImage struct {
	Magic   string
	Store   [numRegions]map[uint64][BlockBytes]byte
	Regs    map[string][BlockBytes]byte
	Staged  []parentWrite
	DoneBit bool
	Journal []parentEntry
}

type parentWrite struct {
	Region  Region
	Index   uint64
	Block   [BlockBytes]byte
	RegName string
	JOp     uint8
	JKey    uint64
	JOld    [BlockBytes]byte
}

type parentEntry struct {
	Key      uint64
	Old, New [BlockBytes]byte
}

// TestLoadDeviceRefusesEpochState: an image saved inside an open epoch
// window, or inside a commit group that stages a journal operation, is
// refused with ErrOldImage: gob would otherwise drop the journal and
// redo a staged note into data block 0. A parent-format image without
// either loads, and its committed group is redone.
func TestLoadDeviceRefusesEpochState(t *testing.T) {
	encode := func(img parentImage) *bytes.Buffer {
		img.Magic = imageMagic
		img.Store[RegionData] = map[uint64][BlockBytes]byte{3: blk(7)}
		var buf bytes.Buffer
		if err := gob.NewEncoder(&buf).Encode(img); err != nil {
			t.Fatal(err)
		}
		return &buf
	}
	for _, tc := range []struct {
		name string
		img  parentImage
	}{
		{"journal-entry", parentImage{Journal: []parentEntry{{Key: 0, Old: blk(1), New: blk(2)}}}},
		{"staged-note", parentImage{Staged: []parentWrite{{JOp: 1, JKey: 0, JOld: blk(1), Block: blk(2)}}, DoneBit: true}},
		{"staged-clear", parentImage{Staged: []parentWrite{{JOp: 2}}, DoneBit: true}},
	} {
		if _, err := LoadDevice(encode(tc.img)); !errors.Is(err, ErrOldImage) {
			t.Errorf("%s: LoadDevice = %v, want ErrOldImage", tc.name, err)
		}
	}
	d, err := LoadDevice(encode(parentImage{
		Staged:  []parentWrite{{Region: RegionData, Index: 5, Block: blk(9)}, {RegName: "root", Block: blk(4)}},
		DoneBit: true,
	}))
	if err != nil {
		t.Fatalf("LoadDevice(committed register write) = %v", err)
	}
	if n := d.RedoCommitted(); n != 2 {
		t.Fatalf("RedoCommitted = %d, want 2", n)
	}
	if reg, ok := d.GetReg("root"); !ok || reg != blk(4) {
		t.Fatalf("redo left register root %v (present %v), want the staged block", reg, ok)
	}
	if d.Read(RegionData, 5) != blk(9) || d.Read(RegionData, 3) != blk(7) {
		t.Fatal("redo did not land the staged data write beside the stored block")
	}
}

// --- micro-benchmarks --------------------------------------------------------

// BenchmarkDevicePush measures the durable-write fast path: WPQ prune +
// sorted-ring insert + port scan + paged-store apply.
func BenchmarkDevicePush(b *testing.B) {
	d := newDev()
	b.ReportAllocs()
	now := uint64(0)
	for i := 0; i < b.N; i++ {
		now = d.Push(PendingWrite{Region: RegionData, Index: uint64(i) & 0xffff}, now)
		now += 200 // mimic inter-arrival gaps so the WPQ drains
	}
}

// BenchmarkDeviceReadAt measures the timed read path over a warmed
// footprint (page hit: two slice indexations and a bit test).
func BenchmarkDeviceReadAt(b *testing.B) {
	d := newDev()
	b.ReportAllocs()
	now := uint64(0)
	for i := 0; i < b.N; i++ {
		_, now = d.ReadAt(RegionData, uint64(i)&0xffff, now)
	}
}

// BenchmarkDeviceDrainMode measures reads issued while the WPQ sits at
// its watermark: every read pays prune + the k-th-earliest watermark
// query before the bank clock. Writes are replenished with zero gap so
// the queue never falls below the watermark.
func BenchmarkDeviceDrainMode(b *testing.B) {
	d := newDev()
	b.ReportAllocs()
	now := uint64(0)
	for i := 0; i < b.N; i++ {
		now = d.Push(PendingWrite{Region: RegionData, Index: uint64(i) & 0xffff}, now)
		_, now = d.ReadAt(RegionData, uint64(i)&0xffff, now)
	}
}

// --- zero-allocation guarantees ----------------------------------------------

// TestDeviceHotPathZeroAllocs pins the steady-state allocation count of
// the device hot paths at zero: once a footprint's pages exist, reads,
// writes, watermark queries, and wear accounting must not touch the
// heap. This is what keeps sweep cells from hammering the garbage
// collector at figure scale.
func TestDeviceHotPathZeroAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race runtime allocates on instrumented accesses; counts are not meaningful")
	}
	d := newDev()
	// Warm the footprint: allocate every page and fill the WPQ machinery.
	now := uint64(0)
	for i := uint64(0); i < 4096; i++ {
		now = d.Push(PendingWrite{Region: RegionData, Index: i, HasSide: true}, now)
		_, now = d.ReadAt(RegionData, i, now)
	}
	cases := map[string]func(){
		"Push": func() {
			now = d.Push(PendingWrite{Region: RegionData, Index: now & 0xfff, HasSide: true}, now)
			now += 200
		},
		"ReadAt": func() {
			_, now = d.ReadAt(RegionData, now&0xfff, now)
		},
		"ReadAtPtr": func() {
			_, _, now = d.ReadAtPtr(RegionData, now&0xfff, now)
		},
		"Has+WearOf": func() {
			d.Has(RegionData, now&0xfff)
			d.WearOf(RegionData, now&0xfff)
		},
		"drain-mode read": func() {
			now = d.Push(PendingWrite{Region: RegionData, Index: now & 0xfff}, now)
			_, now = d.ReadAt(RegionData, (now+1)&0xfff, now)
		},
	}
	for name, fn := range cases {
		if avg := testing.AllocsPerRun(200, fn); avg != 0 {
			t.Errorf("%s: %.2f allocs/op, want 0", name, avg)
		}
	}
}
