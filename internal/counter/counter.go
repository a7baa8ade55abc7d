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
// each into the remaining 56 bytes (minor i at bit 7i). Eight
// consecutive minors fill one 56-bit field, built from the minors'
// eight bytes by compacting 7-bit lanes, so the block is eight 56-bit
// fields written as seven words (this codec is on the per-write hot
// path of every general-tree scheme).
func (s *Split) Pack() [BlockBytes]byte {
	var out [BlockBytes]byte
	binary.LittleEndian.PutUint64(out[0:8], s.Major)
	var f [8]uint64
	for g := range f {
		f[g] = pack7x8(binary.LittleEndian.Uint64(s.Minors[g*8:]))
	}
	put56x8(out[8:], &f)
	return out
}

// UnpackSplit parses a 64-byte split-counter block.
func UnpackSplit(b [BlockBytes]byte) Split {
	var s Split
	s.Major = binary.LittleEndian.Uint64(b[0:8])
	f := get56x8(b[8:])
	for g := range f {
		binary.LittleEndian.PutUint64(s.Minors[g*8:], unpack7x8(f[g]))
	}
	return s
}

// SplitCounterAt returns the full encryption counter of line i of a
// packed split-counter block: Pack's layout read for one line, without
// unpacking the other 63 minors (a read needs only its own lane). The
// word loaded ends at the last byte of the line's 56-bit field, so it
// stays inside the block for every line.
func SplitCounterAt(b *[BlockBytes]byte, i int) uint64 {
	w := binary.LittleEndian.Uint64(b[7+i/8*7:])
	return binary.LittleEndian.Uint64(b[0:8])<<MinorBits | w>>uint(8+MinorBits*(i%8))&MinorMax
}

// pack7x8 compacts eight bytes of 7-bit values (byte j of m holds
// value j; bit 7 of each byte is dropped) into one 56-bit field with
// value j at bit 7j, halving the lane count at each step.
func pack7x8(m uint64) uint64 {
	m &= 0x7f7f7f7f7f7f7f7f
	m = m&0x007f007f007f007f | m>>1&0x3f803f803f803f80
	m = m&0x00003fff00003fff | m>>2&0x0fffc0000fffc000
	return m&0x000000000fffffff | m>>4&0x00fffffff0000000
}

// unpack7x8 inverts pack7x8: value j of a 56-bit field into byte j.
func unpack7x8(f uint64) uint64 {
	f = f&0x000000000fffffff | f<<4&0x0fffffff00000000
	f = f&0x00003fff00003fff | f<<2&0x3fff00003fff0000
	return f&0x007f007f007f007f | f<<1&0x7f007f007f007f00
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
	put56x8(out[:56], &g.Ctr)
	binary.LittleEndian.PutUint64(out[56:], g.MAC&SGXCounterMask)
	return out
}

// UnpackSGX parses a 64-byte SGX-style counter block.
func UnpackSGX(b [BlockBytes]byte) SGX {
	return SGX{Ctr: get56x8(b[:56]), MAC: binary.LittleEndian.Uint64(b[56:]) & SGXCounterMask}
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

// --- 56-bit field codec ------------------------------------------------------

// Both block formats hold eight 56-bit fields back to back in 56 bytes
// (field k at bit 56k): the split block's eight groups of eight minors
// and the SGX block's eight counters. 448 bits are exactly seven 64-bit
// words, so the codec moves whole words and splits them with shifts;
// field k straddles words k-1 and k.

// put56x8 writes the low 56 bits of each field of f into the first 56
// bytes of dst as seven little-endian words.
func put56x8(dst []byte, f *[8]uint64) {
	const m = 1<<56 - 1
	_ = dst[55]
	f0, f1, f2, f3 := f[0]&m, f[1]&m, f[2]&m, f[3]&m
	f4, f5, f6, f7 := f[4]&m, f[5]&m, f[6]&m, f[7]&m
	binary.LittleEndian.PutUint64(dst[0:], f0|f1<<56)
	binary.LittleEndian.PutUint64(dst[8:], f1>>8|f2<<48)
	binary.LittleEndian.PutUint64(dst[16:], f2>>16|f3<<40)
	binary.LittleEndian.PutUint64(dst[24:], f3>>24|f4<<32)
	binary.LittleEndian.PutUint64(dst[32:], f4>>32|f5<<24)
	binary.LittleEndian.PutUint64(dst[40:], f5>>40|f6<<16)
	binary.LittleEndian.PutUint64(dst[48:], f6>>48|f7<<8)
}

// get56x8 reads the eight 56-bit fields of the first 56 bytes of src.
func get56x8(src []byte) [8]uint64 {
	const m = 1<<56 - 1
	_ = src[55]
	w0 := binary.LittleEndian.Uint64(src[0:])
	w1 := binary.LittleEndian.Uint64(src[8:])
	w2 := binary.LittleEndian.Uint64(src[16:])
	w3 := binary.LittleEndian.Uint64(src[24:])
	w4 := binary.LittleEndian.Uint64(src[32:])
	w5 := binary.LittleEndian.Uint64(src[40:])
	w6 := binary.LittleEndian.Uint64(src[48:])
	return [8]uint64{
		w0 & m,
		(w0>>56 | w1<<8) & m,
		(w1>>48 | w2<<16) & m,
		(w2>>40 | w3<<24) & m,
		(w3>>32 | w4<<32) & m,
		(w4>>24 | w5<<40) & m,
		(w5>>16 | w6<<48) & m,
		w6 >> 8,
	}
}
