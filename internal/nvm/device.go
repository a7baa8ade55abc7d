// Package nvm models the non-volatile main memory of a secure-NVM
// system, together with the persistence machinery of the memory
// controller's NVM-facing side:
//
//   - a sparse, banked PCM-like block device with read/write timing and
//     bank occupancy (Table 1 of the paper: 60 ns reads, 150 ns writes);
//   - the Write Pending Queue (WPQ): a small buffer inside the ADR
//     (Asynchronous DRAM Refresh) persistence domain. A write is durable
//     the moment it enters the WPQ, because ADR guarantees enough
//     residual energy to drain it to media on power loss (§2.7);
//   - on-chip persistent registers with a DONE_BIT, implementing the
//     paper's two-stage REDO-style atomic commit of a data write together
//     with all of its security-metadata updates (Figure 4);
//   - a small persistent register file for the handful of root values a
//     secure processor keeps on chip (Merkle root, SGX root nonces,
//     SHADOW_TREE_ROOT).
//
// Storage is a paged sparse store (see paged.go) and WPQ/write-port
// occupancy is a sorted ring plus an earliest-free port heap (see
// sched.go), so the simulation hot path — ReadAt and Push — performs
// no map operations and no allocations.
//
// Crash semantics: everything written through the WPQ, the persistent
// registers, and the register file survive CrashWith(CrashFullADR,
// nil), the paper's power-failure model; nothing else does (caches and
// other volatile controller state live outside this package and are
// dropped by their owners). crashmodel.go adds the relaxed models.
package nvm

import (
	"fmt"
	"math/bits"

	"anubis/internal/obs"
)

// BlockBytes is the device block (cache line) size.
const BlockBytes = 64

// Region identifies a physical carve-out of the NVM address space.
// Each region has its own block index space.
type Region uint8

const (
	// RegionData holds user data blocks (with ECC+MAC sideband).
	RegionData Region = iota
	// RegionCounter holds encryption counter blocks.
	RegionCounter
	// RegionTree holds integrity tree nodes.
	RegionTree
	// RegionSCT is the Shadow Counter Table (AGIT).
	RegionSCT
	// RegionSMT is the Shadow Merkle-tree Table (AGIT).
	RegionSMT
	// RegionST is the combined Shadow Table (ASIT).
	RegionST
	numRegions
)

func (r Region) String() string {
	switch r {
	case RegionData:
		return "data"
	case RegionCounter:
		return "counter"
	case RegionTree:
		return "tree"
	case RegionSCT:
		return "sct"
	case RegionSMT:
		return "smt"
	case RegionST:
		return "st"
	}
	return fmt.Sprintf("region(%d)", uint8(r))
}

// readComp maps a region to the stall-attribution component charged for
// a timed media read of that region: data fetches, counter-cache fills,
// tree-node fills, and shadow-table traffic each get their own bucket.
var readComp = [numRegions]obs.Comp{
	RegionData:    obs.CompDataRead,
	RegionCounter: obs.CompCounterFill,
	RegionTree:    obs.CompTreeFill,
	RegionSCT:     obs.CompShadow,
	RegionSMT:     obs.CompShadow,
	RegionST:      obs.CompShadow,
}

// pushComp maps a region to the component charged for WPQ back-pressure
// stalls while pushing a write to it: shadow-table writes are the AGIT/
// ASIT run-time cost the paper isolates, everything else is generic WPQ
// pressure.
func pushComp(r Region) obs.Comp {
	switch r {
	case RegionSCT, RegionSMT, RegionST:
		return obs.CompShadow
	}
	return obs.CompWPQStall
}

// Sideband is the per-data-block DIMM sideband: the SECDED check bytes
// and the Bonsai data MAC, transferred together with the 64-byte block
// (the Synergy layout the paper and Osiris assume). Phase optionally
// carries the low bits of the encryption counter used for this block —
// the paper's §2.4 "extending the data bus to include a portion of the
// counter" alternative to ECC-trial recovery.
type Sideband struct {
	ECC   [8]uint8
	MAC   uint64
	Phase uint8
}

// Timing parameterizes the device's latency model.
type Timing struct {
	ReadNS     uint64 // media read latency
	WriteNS    uint64 // media write latency
	Banks      int    // independently schedulable banks (reads)
	WPQEntries int    // write pending queue capacity
	// WritePorts is the number of concurrent PCM write drains the power
	// budget allows (write traffic beyond ports*1/WriteNS queues up).
	WritePorts int
	// DrainWatermark is the outstanding-write count above which the
	// controller enters write-drain mode and arriving reads wait for the
	// queue to fall back below the watermark — the standard high-
	// watermark policy of DDR memory controllers. This is what couples
	// metadata write amplification to read latency.
	DrainWatermark int
}

// DefaultTiming matches Table 1 of the paper plus typical controller
// parameters (bank-level parallelism, tens of WPQ entries).
func DefaultTiming() Timing {
	return Timing{ReadNS: 60, WriteNS: 150, Banks: 4, WritePorts: 2, WPQEntries: 32, DrainWatermark: 16}
}

// Stats accumulates device activity.
type Stats struct {
	Reads          uint64             `json:"reads"`
	Writes         uint64             `json:"writes"`
	WritesByRegion [numRegions]uint64 `json:"writes_by_region"`
	ReadsByRegion  [numRegions]uint64 `json:"reads_by_region"`
	WPQStallNS     uint64             `json:"wpq_stall_ns"`   // time callers spent waiting for a WPQ slot
	DrainStallNS   uint64             `json:"drain_stall_ns"` // time reads spent blocked by write-drain mode
}

// PendingWrite is one entry staged for durable write-out. A PendingWrite
// with RegName set targets an on-chip persistent register instead of an
// NVM block; including register updates in a commit group makes root
// values update atomically with the tree/counter writes they authenticate.
// A PendingWrite with JOp set is an epoch-journal operation (see
// journal.go) and is likewise on-chip: Region/Index are ignored, Block
// carries the New content of a JournalNote.
type PendingWrite struct {
	Region  Region
	Index   uint64
	Block   [BlockBytes]byte
	HasSide bool
	Side    Sideband
	RegName string // when non-empty: register write, Region/Index ignored

	JOp  JournalOp        // when non-zero: epoch-journal op, Region/Index ignored
	JKey uint64           // journaled block key
	JOld [BlockBytes]byte // epoch-start content (first JournalNote for JKey)
}

// Device is the NVM DIMM plus WPQ plus persistent registers. It is not
// safe for concurrent use.
type Device struct {
	timing Timing

	store [numRegions]pagedStore

	bankFree []uint64 // per-bank next-free time for reads (ns)
	ports    portHeap // per-write-port next-free times (PCM writes are drain-limited)
	wpq      wpqRing  // completion times of writes still occupying the WPQ

	stats Stats
	// att decomposes every nanosecond of caller-visible latency the
	// device hands out (read completion deltas, WPQ stalls) into named
	// components. Plain uint64 adds on the hot path: always on, never
	// branching simulation behaviour, zero allocations. Controllers add
	// their own components (cpu gap, crypto, overlapped-read residual)
	// through Attr so one ledger carries the whole clock decomposition.
	att obs.Ledger

	// Two-stage commit state (persistent; survives Crash).
	staged  []PendingWrite
	doneBit bool
	// pushBudget limits how many staged entries Commit may drain before a
	// simulated power loss; -1 means unlimited. Test hook for §2.7.
	pushBudget int

	// trackInflight arms the relaxed-crash-model undo log (see
	// crashmodel.go); inflight holds pushed writes that may still be in
	// the WPQ, with the media state they replaced.
	trackInflight bool
	inflight      []inflightWrite

	// regs is the on-chip persistent register file.
	regs map[string][BlockBytes]byte

	// journal is the persistent epoch journal (see journal.go); like
	// regs it lives on chip, inside the persistence domain, and survives
	// every crash model.
	journal    []JournalEntry
	journalIdx map[uint64]int
}

// NewDevice creates an empty device with the given timing.
func NewDevice(t Timing) *Device {
	if t.Banks <= 0 || t.WPQEntries <= 0 {
		panic("nvm: timing needs at least one bank and one WPQ entry")
	}
	if t.WritePorts <= 0 {
		t.WritePorts = 1
	}
	return &Device{
		timing:     t,
		bankFree:   make([]uint64, t.Banks),
		ports:      newPortHeap(t.WritePorts),
		wpq:        newWPQRing(t.WPQEntries),
		regs:       make(map[string][BlockBytes]byte),
		pushBudget: -1,
	}
}

// Reserve declares a region's extent (its number of block indices), the
// way a real DIMM has fixed geometry. It sizes the page directory's top
// level once, so first touches never pay its geometric regrowth; the
// chunks below it are allocated by the first write into each. Indices
// beyond the reservation stay legal — the top level grows, or overflows
// to a map above the cap, on demand — and reserving is always optional.
func (d *Device) Reserve(r Region, blocks uint64) {
	d.store[r].reserve((blocks + pageMask) >> pageShift)
}

// Timing returns the device's timing parameters.
func (d *Device) Timing() Timing { return d.timing }

// Stats returns a snapshot of accumulated statistics.
func (d *Device) Stats() Stats { return d.stats }

// ResetStats zeroes the accumulated statistics and the stall-attribution
// ledger (e.g. after controller initialization, so measurements cover
// only the workload).
func (d *Device) ResetStats() {
	d.stats = Stats{}
	d.att = obs.Ledger{}
}

// Attr exposes the device's stall-attribution ledger. The device adds
// media/queueing components; its controller adds the controller-side
// ones, so the ledger's total tracks the controller clock exactly (the
// sum-exact invariant the attribution tests assert).
func (d *Device) Attr() *obs.Ledger { return &d.att }

func (d *Device) bankOf(r Region, idx uint64) int {
	h := (idx ^ uint64(r)<<40) * 0x9e3779b97f4a7c15
	return int(h>>32) % d.timing.Banks
}

// BankOf exposes the bank mapping of a block, so an epoch scheduler can
// reason about which banks a coalesced drain will occupy.
func (d *Device) BankOf(r Region, idx uint64) int { return d.bankOf(r, idx) }

// EarliestBankFree reports the earliest instant at which a write drain
// on bank could begin: the later of the bank's and the earliest-free
// write port's free times. Nothing is mutated, so the epoch scheduler
// can place a coalesced drain window without committing to it.
func (d *Device) EarliestBankFree(bank int) uint64 {
	return max(d.bankFree[bank], d.ports.minFree())
}

// readClock advances the device's read-side clocks for a request
// arriving at now: drain-watermark blocking, then bank occupancy. It
// returns the completion time. With attr set, the wait/transfer splits
// are charged to the attribution ledger — callers that adopt the
// returned completion time use the attributing form; overlapped reads
// (whose latency is partially hidden behind other work) use the quiet
// form and charge only the visible residual themselves.
func (d *Device) readClock(r Region, idx uint64, now uint64, attr bool) uint64 {
	start := now
	if wm := d.timing.DrainWatermark; wm > 0 {
		d.wpq.prune(now)
		if excess := d.wpq.size - wm; excess >= 0 {
			// Wait for the (excess+1)-th earliest completion, after which
			// the queue is back below the watermark.
			t := d.wpq.kth(excess)
			if t > start {
				d.stats.DrainStallNS += t - start
				if attr {
					d.att[obs.CompDrainStall] += t - start
				}
				start = t
			}
		}
	}
	b := d.bankOf(r, idx)
	if d.bankFree[b] > start {
		if attr {
			d.att[obs.CompBankBusy] += d.bankFree[b] - start
		}
		start = d.bankFree[b]
	}
	done := start + d.timing.ReadNS
	if attr {
		d.att[readComp[r]] += d.timing.ReadNS
	}
	d.bankFree[b] = done
	return done
}

// ReadAt reads a block, returning its contents and the completion time
// given the request arrives at time now. A read arriving while the
// write queue is above the drain watermark waits until enough writes
// have drained (write-drain mode blocks reads).
func (d *Device) ReadAt(r Region, idx uint64, now uint64) ([BlockBytes]byte, uint64) {
	blk, _, done := d.ReadAtPtr(r, idx, now)
	return *blk, done
}

// ReadAtPtr is the zero-copy form of ReadAt: it returns a pointer to
// the stored block (or to a shared zero block when the block was never
// written), whether the block is present, and the completion time. The
// pointed-to content is read-only and valid until the next write to
// the same block; hot paths consume it immediately.
func (d *Device) ReadAtPtr(r Region, idx uint64, now uint64) (*[BlockBytes]byte, bool, uint64) {
	d.stats.Reads++
	d.stats.ReadsByRegion[r]++
	done := d.readClock(r, idx, now, true)
	blk, ok := d.store[r].blockPtr(idx)
	return blk, ok, done
}

// ReadDataAt is ReadData with ReadAtPtr's timing, for a request
// arriving at now: it returns the block, its sideband, whether it is
// present, and the completion time. With attr false nothing is charged
// to the stall ledger: controllers read quietly when the fetch overlaps
// other attributed work (the data fetch issued alongside the metadata
// walk) and charge only the visible residual themselves, keeping the
// ledger sum-exact.
func (d *Device) ReadDataAt(idx, now uint64, attr bool) (*[BlockBytes]byte, Sideband, bool, uint64) {
	d.stats.Reads++
	d.stats.ReadsByRegion[RegionData]++
	done := d.readClock(RegionData, idx, now, attr)
	blk, side, ok := d.store[RegionData].dataAt(idx)
	return blk, side, ok, done
}

// Read reads a block without timing (recovery paths account their own
// time with the paper's 100 ns/op model).
func (d *Device) Read(r Region, idx uint64) [BlockBytes]byte {
	blk, _ := d.ReadPtr(r, idx)
	return *blk
}

// ReadPtr is the zero-copy, untimed form of Read; same aliasing
// contract as ReadAtPtr.
func (d *Device) ReadPtr(r Region, idx uint64) (*[BlockBytes]byte, bool) {
	d.stats.Reads++
	d.stats.ReadsByRegion[r]++
	return d.store[r].blockPtr(idx)
}

// ReadData is ReadPtr for a data block, together with its ECC+MAC
// sideband, from one page lookup. It counts one read, as ReadPtr does.
func (d *Device) ReadData(idx uint64) (*[BlockBytes]byte, Sideband, bool) {
	d.stats.Reads++
	d.stats.ReadsByRegion[RegionData]++
	return d.store[RegionData].dataAt(idx)
}

// Has reports whether a block was ever written. Controllers use it to
// distinguish never-initialized blocks (logical zeros with well-defined
// default metadata) from genuinely stored content.
func (d *Device) Has(r Region, idx uint64) bool {
	return d.store[r].has(idx)
}

// Has64 is Has for the 64 aligned blocks group*64 .. group*64+63 as one
// bitmask: bit i is Has(r, group*64+i). It reads the group's 8
// consecutive directory handles instead of testing 64 blocks, so a scan
// over a sparsely written region (Osiris counter recovery visits every
// lane of every counter page) pays per page, and the caller iterates
// only the set bits.
func (d *Device) Has64(r Region, group uint64) uint64 {
	// A page's presence bits fit present[0] because pageBlocks <= 64,
	// and a group's pages all lie in one chunk, or all above the cap,
	// because chunkPages and maxDirPages are multiples of groupPages
	// (each constant below fails to compile otherwise).
	const groupPages = 64 / pageBlocks
	const _ = uint(groupPages - 1)
	const _ = -uint(chunkPages % groupPages)
	const _ = -uint(maxDirPages % groupPages)
	s := &d.store[r]
	pi := group * groupPages
	var mask uint64
	if pi < maxDirPages {
		if c := s.chunkOf(pi); c != nil {
			for k, h := range c.dir[pi&chunkMask : pi&chunkMask+groupPages] {
				if h != 0 {
					mask |= c.pages[h-1].present[0] << (k * pageBlocks)
				}
			}
		}
		return mask
	}
	if len(s.over) > 0 {
		for k := uint64(0); k < groupPages; k++ {
			if p := s.over[pi+k]; p != nil {
				mask |= p.present[0] << (k * pageBlocks)
			}
		}
	}
	return mask
}

// Push makes a write durable (it enters the ADR domain) and schedules
// its drain to media. It returns the time at which the caller proceeds:
// normally `now`, later if the WPQ was full and the caller had to stall.
func (d *Device) Push(w PendingWrite, now uint64) uint64 {
	if w.RegName != "" || w.JOp != JournalNone {
		d.apply(&w)
		return now
	}
	d.wpq.prune(now)
	for d.wpq.size >= d.timing.WPQEntries {
		// Stall until the earliest queued write completes.
		earliest := d.wpq.min()
		d.stats.WPQStallNS += earliest - now
		d.att[pushComp(w.Region)] += earliest - now
		now = earliest
		d.wpq.prune(now)
	}
	// PCM writes are slow and effectively serialize on the rank's write
	// path (long write-recovery occupancy), which is what makes strict
	// persistence's write amplification so expensive. The caller does
	// not wait for the drain — only for a free WPQ slot above.
	// The drain occupies the earliest-free write port.
	start := now
	if f := d.ports.minFree(); f > start {
		start = f
	}
	done := start + d.timing.WriteNS
	if d.trackInflight {
		// Relaxed crash models: snapshot the media state this write
		// replaces, tagged with its drain completion time (see
		// crashmodel.go). Must run before apply.
		d.recordInflight(&w, now, done)
	}
	d.apply(&w)
	d.ports.occupyMin(done)
	// The drain also occupies the target bank: reads to it wait out the
	// write, which is how metadata write amplification inflates read
	// latency even below saturation.
	b := d.bankOf(w.Region, w.Index)
	if done > d.bankFree[b] {
		d.bankFree[b] = done
	}
	d.wpq.push(done)
	return now
}

// apply commits a write to the persistent store (the functional effect
// of reaching the ADR domain).
func (d *Device) apply(w *PendingWrite) {
	if w.JOp != JournalNone {
		// On-chip journal op: durable immediately, no media traffic.
		d.applyJournal(w)
		return
	}
	if w.RegName != "" {
		// On-chip register: durable immediately, no media traffic.
		d.regs[w.RegName] = w.Block
		return
	}
	p, o := d.write(w.Region, w.Index, &w.Block)
	if w.HasSide {
		if w.Region != RegionData {
			panic("nvm: sideband write outside the data region")
		}
		p.setSide(o, w.Side)
	}
}

// write lands blk at (r, idx) as one media write: stats, wear, the
// presence bit and the content. It returns the cell, for a sideband.
func (d *Device) write(r Region, idx uint64, blk *[BlockBytes]byte) (*page, uint64) {
	d.stats.Writes++
	d.stats.WritesByRegion[r]++
	s := &d.store[r]
	p, o := s.slot(idx)
	p.wear[o]++
	s.mark(p, o, true)
	p.data[o] = *blk
	return p, o
}

// WriteRaw bypasses WPQ and timing, installing a block directly. It is
// intended for initialization (pre-filling memory images) and for
// recovery code, which accounts its own time.
func (d *Device) WriteRaw(r Region, idx uint64, blk [BlockBytes]byte) {
	d.write(r, idx, &blk)
}

// WearOf returns the number of media writes a block has absorbed.
func (d *Device) WearOf(r Region, idx uint64) uint64 {
	return d.store[r].wearOf(idx)
}

// MaxWear returns the hottest block of a region and its write count —
// the cell that dies first and therefore bounds device lifetime.
func (d *Device) MaxWear(r Region) (idx, count uint64) {
	d.store[r].forEachPage(func(base uint64, p *page) {
		for o := 0; o < pageBlocks; o++ {
			if c := p.wear[o]; c > count {
				idx, count = base+uint64(o), c
			}
		}
	})
	return idx, count
}

// MaxWearAll returns the hottest block across every region.
func (d *Device) MaxWearAll() (r Region, idx, count uint64) {
	for reg := Region(0); reg < numRegions; reg++ {
		if i, c := d.MaxWear(reg); c > count {
			r, idx, count = reg, i, c
		}
	}
	return r, idx, count
}

// WriteRawData installs a data block with sideband, bypassing timing.
func (d *Device) WriteRawData(idx uint64, blk [BlockBytes]byte, s Sideband) {
	p, o := d.write(RegionData, idx, &blk)
	p.setSide(o, s)
}

// Erase removes a block from the medium (used by wear leveling when an
// empty line rotates: the destination must not retain stale content).
// It costs one media write, of zeros, and leaves the block absent.
func (d *Device) Erase(r Region, idx uint64) {
	p, o := d.write(r, idx, &zeroBlock)
	d.store[r].mark(p, o, false)
	if p.side != nil {
		p.side[o] = Sideband{}
	}
}

// CorruptBlock XORs a mask into a stored block, modeling an attacker or
// media fault. It reports whether the block existed.
func (d *Device) CorruptBlock(r Region, idx uint64, byteIdx int, mask byte) bool {
	s := &d.store[r]
	// Probe read-only first so corrupting an absent block allocates
	// nothing; then mutate through slot(), which performs the
	// copy-on-write duplication if the page is frozen/shared.
	p := s.pageAt(idx)
	if p == nil {
		return false
	}
	o := idx & pageMask
	if p.present[o>>6]&(1<<(o&63)) == 0 {
		return false
	}
	p, o = s.slot(idx)
	p.data[o][byteIdx] ^= mask
	return true
}

// BlocksIn returns the sorted indices of blocks ever written in a region.
func (d *Device) BlocksIn(r Region) []uint64 {
	s := &d.store[r]
	out := make([]uint64, 0, s.count)
	s.forEachPage(func(base uint64, p *page) {
		for w, present := range p.present {
			for ; present != 0; present &= present - 1 {
				o := uint64(w)<<6 | uint64(bits.TrailingZeros64(present))
				out = append(out, base+o)
			}
		}
	})
	return out
}

// --- two-stage commit (persistent registers + DONE_BIT) -------------------

// BeginCommit starts staging a new atomic group. It panics if a previous
// group is still open or committed-but-undrained (callers must have
// completed or recovered it first).
func (d *Device) BeginCommit() {
	if d.doneBit {
		panic("nvm: BeginCommit with DONE_BIT set; run RedoCommitted first")
	}
	d.staged = d.staged[:0]
}

// Stage adds a write to the open group. Nothing is durable yet: a crash
// before CommitGroup discards the group entirely (the write never
// reached the persistence domain, §2.7).
func (d *Device) Stage(w PendingWrite) {
	d.staged = append(d.staged, w)
}

// CommitGroup sets DONE_BIT (the group is now atomically durable in the
// persistent registers) and drains the group into the WPQ. It returns
// the caller-resume time. If the test hook pushBudget interrupts the
// drain, the group stays resident with DONE_BIT set, exactly the state
// RedoCommitted repairs.
func (d *Device) CommitGroup(now uint64) uint64 {
	if len(d.staged) == 0 {
		return now
	}
	d.doneBit = true
	for i := 0; i < len(d.staged); i++ {
		if d.pushBudget == 0 {
			return now // simulated power loss mid-drain
		}
		if d.pushBudget > 0 {
			d.pushBudget--
		}
		now = d.Push(d.staged[i], now)
	}
	d.staged = d.staged[:0]
	d.doneBit = false
	return now
}

// DoneBit exposes the DONE_BIT for recovery logic and tests.
func (d *Device) DoneBit() bool { return d.doneBit }

// RedoCommitted re-drains a committed-but-interrupted group after a
// crash. Safe to call unconditionally at recovery start; it is a no-op
// when DONE_BIT is clear. Pushes are idempotent (REDO semantics).
func (d *Device) RedoCommitted() int {
	if !d.doneBit {
		// A group staged but not committed never reached the persistence
		// domain: discard it (the write is lost, as the paper specifies).
		d.staged = d.staged[:0]
		return 0
	}
	n := len(d.staged)
	for i := range d.staged {
		d.apply(&d.staged[i])
	}
	d.staged = d.staged[:0]
	d.doneBit = false
	return n
}

// SetPushBudget arms the mid-drain power-loss test hook: CommitGroup
// will push at most n more entries. Pass -1 to disarm.
func (d *Device) SetPushBudget(n int) { d.pushBudget = n }

// WPQOccupancy reports how many writes would still hold WPQ slots at
// time now. Unlike the internal prune, it does not mutate the queue:
// a serving layer can sample back-pressure between requests without
// changing what the next Push observes.
func (d *Device) WPQOccupancy(now uint64) int { return d.wpq.occupancyAt(now) }

// WPQDrainTime returns the completion time of the last write still in
// the WPQ (0 when empty): the instant the queue is fully drained.
func (d *Device) WPQDrainTime() uint64 { return d.wpq.latest() }

// --- persistent register file ---------------------------------------------

// SetReg durably stores a named on-chip register value (≤ 64 bytes).
func (d *Device) SetReg(name string, val []byte) {
	if len(val) > BlockBytes {
		panic("nvm: register value too large")
	}
	var b [BlockBytes]byte
	copy(b[:], val)
	d.regs[name] = b
}

// SetReg64 durably stores a named 8-byte register.
func (d *Device) SetReg64(name string, v uint64) {
	var b [8]byte
	for i := 0; i < 8; i++ {
		b[i] = byte(v >> uint(8*i))
	}
	d.SetReg(name, b[:])
}

// GetReg returns a named register value and whether it was ever set.
func (d *Device) GetReg(name string) ([BlockBytes]byte, bool) {
	v, ok := d.regs[name]
	return v, ok
}

// GetReg64 returns a named 8-byte register.
func (d *Device) GetReg64(name string) (uint64, bool) {
	b, ok := d.regs[name]
	if !ok {
		return 0, false
	}
	var v uint64
	for i := 0; i < 8; i++ {
		v |= uint64(b[i]) << uint(8*i)
	}
	return v, true
}

// --- snapshot / fork --------------------------------------------------------

// Fork snapshots the device and returns an independent child sharing
// the frozen stored image copy-on-write. Everything else — timing
// clocks, bank/port/WPQ occupancy, stats, the staged commit group,
// DONE_BIT, and the persistent register file — is value-cloned, so the
// child behaves byte-for-byte like a device that lived through the
// parent's entire history. The eager cost is each region's top-level
// page directory, one pointer per 2 MiB of reserved region; chunks and
// pages are copied only as either side writes to them. Parent and
// child may both be forked again, any number of times.
func (d *Device) Fork() *Device {
	n := &Device{
		timing:        d.timing,
		bankFree:      append([]uint64(nil), d.bankFree...),
		ports:         d.ports.clone(),
		wpq:           d.wpq.clone(),
		stats:         d.stats,
		att:           d.att,
		staged:        append([]PendingWrite(nil), d.staged...),
		doneBit:       d.doneBit,
		pushBudget:    d.pushBudget,
		trackInflight: d.trackInflight,
		inflight:      append([]inflightWrite(nil), d.inflight...),
		regs:          make(map[string][BlockBytes]byte, len(d.regs)),
	}
	for r := range d.store {
		n.store[r] = d.store[r].fork()
	}
	for k, v := range d.regs {
		n.regs[k] = v
	}
	d.cloneJournal(n)
	return n
}
