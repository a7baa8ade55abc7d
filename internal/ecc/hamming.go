// Package ecc implements the encoder and checker of the (72,64)
// Hamming SECDED code used by ECC DIMMs: 8 check bits per 64-bit word,
// enough to correct any single-bit error and detect any double-bit
// error. Nothing here corrects: every caller only asks whether a block
// matches its check bits, so the package encodes and checks.
//
// Osiris-style counter recovery (Ye et al., MICRO 2018) relies on ECC
// bits that are encrypted together with the data: decrypting a block
// with a wrong counter candidate yields pseudo-random plaintext whose
// ECC check fails with overwhelming probability, so the ECC acts as a
// sanity check identifying the counter that was actually used for
// encryption. This package provides that discriminator for the Anubis
// and Osiris recovery paths.
package ecc

import (
	"encoding/binary"
	"math/bits"
)

// WordBytes is the protected word size in bytes (64 data bits).
const WordBytes = 8

// BlockBytes is the memory block granularity protected by BlockECC.
const BlockBytes = 64

// WordsPerBlock is the number of ECC words in one memory block.
const WordsPerBlock = BlockBytes / WordBytes

// Codeword layout: 72 bit positions indexed 0..71.
// Position 0 holds the overall (SECDED) parity; positions 1,2,4,8,16,32,64
// hold the Hamming parity bits; the remaining 64 positions hold data bits
// in increasing position order.

// dataPositions[i] is the codeword position of data bit i.
var dataPositions [64]uint

// byteECC[k][v] is the check byte of the word whose byte k is v and
// whose other bytes are zero. The code is linear over GF(2), so the
// check byte of any word is the XOR of its eight bytes' entries: eight
// table loads instead of a parity computation per check bit. Encode
// sits on every data write's sideband and on each candidate counter of
// Osiris/Anubis recovery, where it dominated whole-sweep profiles.
var byteECC [WordBytes][256]uint8

func init() {
	di := 0
	for pos := uint(1); pos < 72; pos++ {
		if pos&(pos-1) == 0 { // power of two: parity position
			continue
		}
		dataPositions[di] = pos
		di++
	}
	if di != 64 {
		panic("ecc: internal layout error")
	}
	// A lone data bit at codeword position pos feeds the parity at 2^i
	// exactly when bit i of pos is set, so its seven Hamming check bits
	// are pos itself (pos < 72); its overall parity covers the data bit
	// and those check bits.
	var bitECC [64]uint8
	for i, pos := range dataPositions {
		bitECC[i] = uint8(pos) | uint8(1^bits.OnesCount(pos)&1)<<7
	}
	for k := range byteECC {
		for v := 1; v < 256; v++ {
			low := bits.TrailingZeros(uint(v))
			byteECC[k][v] = byteECC[k][v&(v-1)] ^ bitECC[8*k+low]
		}
	}
}

// Encode computes the 8 check bits for a 64-bit word.
//
// Bit i (0..6) of the result is the Hamming parity for position 2^i;
// bit 7 is the overall parity over all 72 codeword bits, including the
// seven Hamming parities, so that a flipped parity bit is also caught.
func Encode(word uint64) uint8 {
	return byteECC[0][uint8(word)] ^ byteECC[1][uint8(word>>8)] ^
		byteECC[2][uint8(word>>16)] ^ byteECC[3][uint8(word>>24)] ^
		byteECC[4][uint8(word>>32)] ^ byteECC[5][uint8(word>>40)] ^
		byteECC[6][uint8(word>>48)] ^ byteECC[7][uint8(word>>56)]
}

// Check verifies a (word, ecc) pair without attempting correction.
// It returns true iff the pair is a valid codeword with no error.
func Check(word uint64, ecc uint8) bool {
	return Encode(word) == ecc
}

// EncodeBlock computes the 8 ECC bytes protecting a 64-byte block,
// one SECDED byte per 64-bit little-endian word.
// It panics if block is not exactly BlockBytes long.
func EncodeBlock(block []byte) [WordsPerBlock]uint8 {
	if len(block) != BlockBytes {
		panic("ecc: EncodeBlock needs a 64-byte block")
	}
	var out [WordsPerBlock]uint8
	for w := 0; w < WordsPerBlock; w++ {
		out[w] = Encode(binary.LittleEndian.Uint64(block[w*WordBytes:]))
	}
	return out
}

// CheckBlock reports whether every word of a 64-byte block is consistent
// with its ECC byte. This is the Osiris sanity check: a block decrypted
// with the wrong counter is pseudo-random, so each word passes with
// probability 2^-8 and the whole block with 2^-64; recovery still checks
// the data MAC of the block that passes.
func CheckBlock(block []byte, ecc [WordsPerBlock]uint8) bool {
	if len(block) != BlockBytes {
		panic("ecc: CheckBlock needs a 64-byte block")
	}
	for w := 0; w < WordsPerBlock; w++ {
		if !Check(binary.LittleEndian.Uint64(block[w*WordBytes:]), ecc[w]) {
			return false
		}
	}
	return true
}
