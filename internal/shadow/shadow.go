// Package shadow implements the persistent shadow-table formats of
// Anubis (Figures 6 and 9 of the paper).
//
// A shadow table mirrors the data array of an on-chip metadata cache:
// entry i describes the block currently held in cache slot i. Because a
// block's slot is fixed for its whole cache residency and slots change
// only on misses (AGIT) or one entry is rewritten per write (ASIT), the
// NVM write traffic of keeping the shadow table current is small.
//
//   - AGIT (Figure 9a): the Shadow Counter Table (SCT) and Shadow
//     Merkle-tree Table (SMT) store only *addresses* — eight 8-byte
//     entries per 64-byte NVM block. After a crash they tell the
//     recovery code which blocks may have lost updates.
//   - ASIT (Figure 9b): the combined Shadow Table (ST) stores, per slot,
//     the tracked block's address, the 56-bit MAC over its updated
//     counters, and the 49-bit LSBs of its eight counters — enough to
//     reconstruct the exact pre-crash cache content when spliced onto
//     the stale in-memory node.
//
// The package is a pure codec plus an in-controller mirror; device I/O
// stays in the memory controller.
//
// A forked controller shares its mirrors with its parent copy-on-write:
// each mirror's slices are cache.Shared, the type that also holds the
// cache's line array. Clone costs a holder-count increment, whichever
// side first writes a shared mirror copies it, a side whose partners
// have let go takes it over, and Drop — a crash — lets go of it.
// Recovery rebuilds a dropped mirror from NVM (Restore), so a fork that
// is crashed and recovered never copies its parent's mirrors.
package shadow

import (
	"encoding/binary"

	"anubis/internal/cache"
	"anubis/internal/merkle"
)

// BlockBytes is the NVM block size shadow tables are written in.
const BlockBytes = 64

// AddrEntriesPerBlock is the number of AGIT address entries per block.
const AddrEntriesPerBlock = BlockBytes / 8

// --- AGIT address tables (SCT / SMT) ----------------------------------------

// AddrTable is the controller-side mirror of an SCT or SMT: one address
// entry per cache slot. Entries are stored in NVM as key+1 so that zero
// means "slot never used".
type AddrTable struct {
	slots   int
	entries cache.Shared[uint64] // key+1; 0 = empty
}

// NewAddrTable creates an empty mirror for a cache with numSlots lines.
func NewAddrTable(numSlots int) *AddrTable {
	if numSlots <= 0 {
		panic("shadow: table needs at least one slot")
	}
	t := &AddrTable{slots: numSlots}
	t.entries.Reset(numSlots)
	return t
}

// NumSlots returns the number of tracked cache slots.
func (t *AddrTable) NumSlots() int { return t.slots }

// NumBlocks returns the number of 64-byte NVM blocks backing the table.
func (t *AddrTable) NumBlocks() uint64 {
	return uint64(t.slots+AddrEntriesPerBlock-1) / AddrEntriesPerBlock
}

// Set records that cache slot `slot` now holds block `key` and returns
// the NVM block (index and refreshed content) that must be persisted.
func (t *AddrTable) Set(slot int, key uint64) (blockIdx uint64, block [BlockBytes]byte) {
	t.entries.Own()[slot] = key + 1
	return t.blockOf(slot)
}

// Get returns the tracked key of a slot.
func (t *AddrTable) Get(slot int) (key uint64, ok bool) {
	entries := t.entries.Get()
	if entries == nil {
		return 0, false
	}
	e := entries[slot]
	if e == 0 {
		return 0, false
	}
	return e - 1, true
}

func (t *AddrTable) blockOf(slot int) (uint64, [BlockBytes]byte) {
	blockIdx := uint64(slot / AddrEntriesPerBlock)
	var b [BlockBytes]byte
	entries := t.entries.Get()
	base := int(blockIdx) * AddrEntriesPerBlock
	for i := 0; i < AddrEntriesPerBlock; i++ {
		if base+i < t.slots {
			binary.LittleEndian.PutUint64(b[i*8:], entries[base+i])
		}
	}
	return blockIdx, b
}

// Clone returns a mirror that shares t's entries copy-on-write (used
// when a warm controller is forked for crash/recovery trials).
func (t *AddrTable) Clone() *AddrTable {
	return &AddrTable{slots: t.slots, entries: t.entries.Clone()}
}

// Drop empties the mirror: a crash loses it. A shared mirror only lets
// go of its entries.
func (t *AddrTable) Drop() { t.entries.Drop() }

// Restore rebuilds the mirror in place from NVM after a crash. read
// must return block i of the table's region.
func (t *AddrTable) Restore(read func(blockIdx uint64) [BlockBytes]byte) {
	entries := t.entries.Reset(t.slots)
	for bi := uint64(0); bi < t.NumBlocks(); bi++ {
		b := read(bi)
		base := int(bi) * AddrEntriesPerBlock
		for i := 0; i < AddrEntriesPerBlock && base+i < t.slots; i++ {
			entries[base+i] = binary.LittleEndian.Uint64(b[i*8:])
		}
	}
}

// --- ASIT shadow table (ST) ---------------------------------------------------

// STCounters is the number of counter LSB fields per ST entry, matching
// the 8 counters of an SGX-style block.
const STCounters = 8

// STLSBBits is the width of each preserved counter LSB field.
const STLSBBits = 49

// STLSBMask masks a counter to the shadow-preserved bits.
const STLSBMask = 1<<STLSBBits - 1

// STMACMask masks the 56-bit MAC field.
const STMACMask = 1<<56 - 1

// STEntry is one ASIT shadow-table entry: an exact, integrity-relevant
// snapshot of one modified metadata cache line (Figure 9b). One entry
// occupies exactly one 64-byte NVM block:
//
//	bytes 0..7   tracked block key + 1 (0 = slot empty)
//	bytes 8..14  56-bit MAC over the updated counters
//	bits 120..511  eight 49-bit counter LSBs
//
// The fields fill the block's eight little-endian words exactly, so the
// codec builds and splits whole words with shifts; a field that
// straddles two words takes its low bits from the first.
type STEntry struct {
	Valid bool
	Key   uint64
	MAC   uint64 // 56-bit
	LSBs  [STCounters]uint64
}

// Pack serializes the entry to its NVM block.
func (e STEntry) Pack() [BlockBytes]byte {
	var b [BlockBytes]byte
	if !e.Valid {
		return b
	}
	const m = STLSBMask
	l0, l1, l2, l3 := e.LSBs[0]&m, e.LSBs[1]&m, e.LSBs[2]&m, e.LSBs[3]&m
	l4, l5, l6, l7 := e.LSBs[4]&m, e.LSBs[5]&m, e.LSBs[6]&m, e.LSBs[7]&m
	binary.LittleEndian.PutUint64(b[0:], e.Key+1)
	binary.LittleEndian.PutUint64(b[8:], e.MAC&STMACMask|l0<<56)
	binary.LittleEndian.PutUint64(b[16:], l0>>8|l1<<41)
	binary.LittleEndian.PutUint64(b[24:], l1>>23|l2<<26)
	binary.LittleEndian.PutUint64(b[32:], l2>>38|l3<<11|l4<<60)
	binary.LittleEndian.PutUint64(b[40:], l4>>4|l5<<45)
	binary.LittleEndian.PutUint64(b[48:], l5>>19|l6<<30)
	binary.LittleEndian.PutUint64(b[56:], l6>>34|l7<<15)
	return b
}

// UnpackSTEntry parses an ST block.
func UnpackSTEntry(b [BlockBytes]byte) STEntry {
	raw := binary.LittleEndian.Uint64(b[0:8])
	if raw == 0 {
		return STEntry{}
	}
	const m = STLSBMask
	w1 := binary.LittleEndian.Uint64(b[8:])
	w2 := binary.LittleEndian.Uint64(b[16:])
	w3 := binary.LittleEndian.Uint64(b[24:])
	w4 := binary.LittleEndian.Uint64(b[32:])
	w5 := binary.LittleEndian.Uint64(b[40:])
	w6 := binary.LittleEndian.Uint64(b[48:])
	w7 := binary.LittleEndian.Uint64(b[56:])
	return STEntry{
		Valid: true,
		Key:   raw - 1,
		MAC:   w1 & STMACMask,
		LSBs: [STCounters]uint64{
			(w1>>56 | w2<<8) & m,
			(w2>>41 | w3<<23) & m,
			(w3>>26 | w4<<38) & m,
			w4 >> 11 & m,
			(w4>>60 | w5<<4) & m,
			(w5>>45 | w6<<19) & m,
			(w6>>30 | w7<<34) & m,
			w7 >> 15,
		},
	}
}

// STTable is the controller-side mirror of the ASIT Shadow Table — one
// STEntry per combined-metadata-cache slot, one NVM block per entry —
// together with the volatile general tree that protects it, whose root
// is SHADOW_TREE_ROOT (§4.3.1). It keeps each entry as its NVM block,
// which the protection tree hashes; Get unpacks one on demand.
type STTable struct {
	slots  int
	geom   merkle.Geometry
	blocks cache.Shared[[BlockBytes]byte] // Pack of each slot's entry
	nodes  cache.Shared[merkle.GNode]     // protection tree, by flat node index
}

// NewSTTable creates an empty mirror.
func NewSTTable(numSlots int) *STTable {
	if numSlots <= 0 {
		panic("shadow: table needs at least one slot")
	}
	t := &STTable{slots: numSlots, geom: merkle.NewGeometry(uint64(numSlots))}
	t.blocks.Reset(numSlots)
	t.nodes.Reset(int(t.geom.TotalNodes()))
	return t
}

// NumSlots returns the number of tracked cache slots (= NVM blocks).
func (t *STTable) NumSlots() int { return t.slots }

// Tree returns the geometry of the protection tree over the table's
// blocks.
func (t *STTable) Tree() *merkle.Geometry { return &t.geom }

// Node returns protection-tree node flat for writing.
func (t *STTable) Node(flat uint64) *merkle.GNode {
	return &t.nodes.Own()[flat]
}

// Set records a snapshot for a slot and returns the NVM block to persist
// (block index equals the slot).
func (t *STTable) Set(slot int, e STEntry) (blockIdx uint64, block [BlockBytes]byte) {
	e.Valid = true
	blocks := t.blocks.Own()
	blocks[slot] = e.Pack()
	return uint64(slot), blocks[slot]
}

// Get returns the snapshot tracked in a slot.
func (t *STTable) Get(slot int) (STEntry, bool) {
	e := UnpackSTEntry(t.Block(slot))
	return e, e.Valid
}

// Block returns the current NVM image of one table block (= slot).
func (t *STTable) Block(slot int) [BlockBytes]byte {
	blocks := t.blocks.Get()
	if blocks == nil {
		return [BlockBytes]byte{}
	}
	return blocks[slot]
}

// Clone returns a mirror that shares t's entries and protection tree
// copy-on-write (used when a warm controller is forked for
// crash/recovery trials).
func (t *STTable) Clone() *STTable {
	return &STTable{slots: t.slots, geom: t.geom, blocks: t.blocks.Clone(), nodes: t.nodes.Clone()}
}

// Drop empties the mirror and its protection tree: a crash loses both.
// A shared mirror only lets go of them.
func (t *STTable) Drop() {
	t.blocks.Drop()
	t.nodes.Drop()
}

// Restore rebuilds the mirror from NVM after a crash, reading every
// slot's block, and readies an empty protection tree for the caller to
// rebuild over it. It returns the number of valid entries. A block
// whose key word is zero describes an empty slot whatever its other
// words hold, and is kept as the zero block its entry packs to.
func (t *STTable) Restore(read func(blockIdx uint64) [BlockBytes]byte) int {
	blocks := t.blocks.Reset(t.slots)
	t.nodes.Reset(int(t.geom.TotalNodes()))
	live := 0
	for i := range blocks {
		if b := read(uint64(i)); binary.LittleEndian.Uint64(b[:8]) != 0 {
			blocks[i] = b
			live++
		}
	}
	return live
}
