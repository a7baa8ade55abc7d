// Package counter implements the two encryption-counter block formats
// used by secure memory controllers, both packing into one 64-byte
// memory block (Figure 1 of the paper):
//
//   - Split counters (Rogers et al., MICRO 2007): one 64-bit major
//     counter shared by a 4 KB page plus 64 per-cache-line 7-bit minor
//     counters. The encryption counter of line i is major<<7 | minor[i].
//     A minor overflow bumps the major and forces re-encryption of the
//     whole page.
//   - SGX-style counters (Gueron, MEE): eight 56-bit counters plus a
//     56-bit MAC in one line. The same layout is used for the leaves
//     (encryption counters) and the intermediate nodes (nonces) of the
//     parallelizable integrity tree.
package counter

import "encoding/binary"

// BlockBytes is the size of a packed counter block.
const BlockBytes = 64

// --- Split-counter block -------------------------------------------------

// SplitMinors is the number of minor counters per split-counter block,
// one per 64-byte line of a 4 KB page.
const SplitMinors = 64

// MinorBits is the width of a minor counter.
const MinorBits = 7

// MinorMax is the largest value a minor counter can hold.
const MinorMax = 1<<MinorBits - 1

// Split is a split-counter block: the encryption counters of one 4 KB
// page. The zero value is a valid fresh page (all counters zero).
type Split struct {
	Major  uint64
	Minors [SplitMinors]uint8 // each <= MinorMax
}

// Counter returns the full encryption counter of line i.
func (s *Split) Counter(i int) uint64 {
	return s.Major<<MinorBits | uint64(s.Minors[i])
}

// Increment advances the counter of line i. If the minor counter
// overflows, the major counter is incremented, every minor is reset to
// zero, and Increment reports true: the caller must re-encrypt the whole
// page with the new counters.
func (s *Split) Increment(i int) (pageOverflow bool) {
	if s.Minors[i] < MinorMax {
		s.Minors[i]++
		return false
	}
	s.Major++
	s.Minors = [SplitMinors]uint8{}
	return true
}

// Pack serializes the block into the 64-byte memory layout: the major
// counter in the first 8 bytes, then the 64 minor counters packed 7 bits
// each into the remaining 56 bytes. Eight consecutive minors occupy
// exactly 56 bits, so the packing runs in byte-aligned 7-byte groups —
// one word store per group instead of one branch per bit (this codec is
// on the per-write hot path of every general-tree scheme).
func (s *Split) Pack() [BlockBytes]byte {
	var out [BlockBytes]byte
	binary.LittleEndian.PutUint64(out[0:8], s.Major)
	for g := 0; g < SplitMinors/8; g++ {
		var w uint64
		for j := 7; j >= 0; j-- {
			w = w<<MinorBits | uint64(s.Minors[g*8+j]&MinorMax)
		}
		put56(out[8+g*7:], w)
	}
	return out
}

// UnpackSplit parses a 64-byte split-counter block.
func UnpackSplit(b [BlockBytes]byte) Split {
	var s Split
	s.Major = binary.LittleEndian.Uint64(b[0:8])
	for g := 0; g < SplitMinors/8; g++ {
		w := get56(b[8+g*7:])
		for j := 0; j < 8; j++ {
			s.Minors[g*8+j] = uint8(w >> uint(MinorBits*j) & MinorMax)
		}
	}
	return s
}

// SplitCounterAt returns the full encryption counter of line i of a
// packed split-counter block: Pack's layout read for one line, without
// unpacking the other 63 minors (a read needs only its own lane).
func SplitCounterAt(b *[BlockBytes]byte, i int) uint64 {
	w := get56(b[8+i/8*7:])
	return binary.LittleEndian.Uint64(b[0:8])<<MinorBits | w>>uint(MinorBits*(i%8))&MinorMax
}

// --- SGX-style counter block ----------------------------------------------

// SGXCounters is the number of counters per SGX-style block.
const SGXCounters = 8

// SGXCounterBits is the width of each SGX counter / nonce.
const SGXCounterBits = 56

// SGXCounterMask masks a value to SGX counter width.
const SGXCounterMask = 1<<SGXCounterBits - 1

// SGX is an SGX-style counter block: eight 56-bit counters and an
// embedded 56-bit MAC (computed over the counters and the parent
// counter; see cryptoeng.SGXMAC). It serves both as an encryption
// counter block (leaves) and as an integrity tree node.
type SGX struct {
	Ctr [SGXCounters]uint64 // each <= SGXCounterMask
	MAC uint64              // <= SGXCounterMask
}

// Increment advances counter i, reporting true on the (astronomically
// rare) 56-bit wraparound, which requires global re-encryption.
func (g *SGX) Increment(i int) (wrapped bool) {
	g.Ctr[i] = (g.Ctr[i] + 1) & SGXCounterMask
	return g.Ctr[i] == 0
}

// Pack serializes the block: eight 56-bit counters (7 bytes each,
// little endian) followed by the 56-bit MAC; the final byte is zero.
func (g *SGX) Pack() [BlockBytes]byte {
	var out [BlockBytes]byte
	off := 0
	for i := 0; i < SGXCounters; i++ {
		put56(out[off:], g.Ctr[i])
		off += 7
	}
	put56(out[off:], g.MAC)
	return out
}

// UnpackSGX parses a 64-byte SGX-style counter block.
func UnpackSGX(b [BlockBytes]byte) SGX {
	var g SGX
	off := 0
	for i := 0; i < SGXCounters; i++ {
		g.Ctr[i] = get56(b[off:])
		off += 7
	}
	g.MAC = get56(b[off:])
	return g
}

// --- ASIT counter LSB splicing ---------------------------------------------

// LSBBits is the number of low-order counter bits an ASIT shadow-table
// entry preserves per counter (Figure 9b of the paper).
const LSBBits = 49

// LSBMask masks a counter to its shadow-tracked low bits.
const LSBMask = 1<<LSBBits - 1

// SpliceLSB reconstructs a counter from the stale in-memory copy's
// high-order bits and the shadow table's low-order bits. Because a node
// is force-persisted whenever a counter's 49-bit LSB overflows, the
// in-memory MSBs are always current, so the splice is exact.
func SpliceLSB(stale, lsb uint64) uint64 {
	return (stale &^ uint64(LSBMask)) | (lsb & LSBMask)
}

// --- bit packing helpers ----------------------------------------------------

// putBits writes the low `width` bits of v at bit offset off in buf,
// as one masked 64-bit read-modify-write instead of a branch per bit.
// width must be at most 57 so the field plus any intra-byte shift fits
// in one word (every caller packs 7- or 49-bit fields).
func putBits(buf []byte, off, width int, v uint64) {
	i, shift := off>>3, uint(off&7)
	mask := uint64(1)<<uint(width) - 1
	v &= mask
	if i+8 <= len(buf) {
		w := binary.LittleEndian.Uint64(buf[i:])
		binary.LittleEndian.PutUint64(buf[i:], w&^(mask<<shift)|v<<shift)
		return
	}
	// Tail: fewer than 8 bytes left, so the field ends inside them.
	var w uint64
	n := len(buf) - i
	for j := 0; j < n; j++ {
		w |= uint64(buf[i+j]) << uint(8*j)
	}
	w = w&^(mask<<shift) | v<<shift
	for j := 0; j < n; j++ {
		buf[i+j] = byte(w >> uint(8*j))
	}
}

// getBits reads `width` (≤ 57) bits at bit offset off in buf with one
// word load; see putBits.
func getBits(buf []byte, off, width int) uint64 {
	i, shift := off>>3, uint(off&7)
	var w uint64
	if i+8 <= len(buf) {
		w = binary.LittleEndian.Uint64(buf[i:])
	} else {
		for j := i; j < len(buf); j++ {
			w |= uint64(buf[j]) << uint(8*(j-i))
		}
	}
	return w >> shift & (uint64(1)<<uint(width) - 1)
}

// put56 writes a 56-bit little-endian value into 7 bytes, preserving
// the byte after the field (word-wise read-modify-write when the
// buffer allows it).
func put56(buf []byte, v uint64) {
	const mask = uint64(1)<<56 - 1
	v &= mask
	if len(buf) >= 8 {
		w := binary.LittleEndian.Uint64(buf)
		binary.LittleEndian.PutUint64(buf, w&^mask|v)
		return
	}
	for i := 0; i < 7; i++ {
		buf[i] = byte(v >> uint(8*i))
	}
}

// get56 reads a 56-bit little-endian value from 7 bytes.
func get56(buf []byte) uint64 {
	const mask = uint64(1)<<56 - 1
	if len(buf) >= 8 {
		return binary.LittleEndian.Uint64(buf) & mask
	}
	var v uint64
	for i := 0; i < 7; i++ {
		v |= uint64(buf[i]) << uint(8*i)
	}
	return v
}
