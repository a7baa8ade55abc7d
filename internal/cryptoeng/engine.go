// Package cryptoeng implements the cryptographic engine of a secure
// memory controller: counter-mode (OTP) encryption of 64-byte memory
// blocks, the Bonsai data MAC, the 64-bit hash used by general Merkle
// trees, and the 56-bit MAC used by SGX-style parallelizable trees.
//
// The constructions mirror the ones assumed by the paper (and by secure
// processors generally):
//
//   - Encryption is counter mode: a one-time pad is derived from the
//     block address and its (spatially and temporally unique)
//     encryption counter, then XORed with the plaintext. Pad
//     generation can overlap the data fetch, which is why secure
//     processors use it; here it matters because the *counter value*
//     fully determines decryption, the property Osiris recovery exploits.
//   - The Bonsai data MAC is computed over (ciphertext address, counter,
//     data) and protects data integrity while the Merkle tree only covers
//     counters.
//   - Tree hashes are truncated so that eight of them pack into one
//     64-byte node (8-ary trees), exactly as in the paper's Figure 2.
//
// The pad, the hashes and the MACs are keyed non-cryptographic PRFs
// built from one keyed multiply-mix (wyhash-style folded 64×64→128
// multiplies), where a processor would use AES-128 and SHA-256/HMAC.
// The simulator charges cryptographic latency through the modeled
// memctrl.HashNS cost, so the functional crypto contributes nothing to
// simulated timing: it only needs determinism, full-width avalanche
// (tamper and differential tests, and Osiris candidate trials, must see
// every bit flip), and per-key separation, all of which the mix
// provides at a fraction of the wall-clock cost. SHA-256 here dominated
// whole-sweep profiles (~25% of samples) and AES-128 the pad of every
// Osiris candidate trial, while adding no modeling fidelity; a
// production memory controller's choice of cipher and hash is
// orthogonal to everything this simulator measures. Nothing here is
// meant to resist cryptanalysis.
//
// # Allocation-free hot path
//
// Every simulated memory request calls into this package several times
// (pad + MAC on the data, one tree hash per Merkle level), so the block
// path must not allocate. Every operation is register math over caller
// arrays, and a Keystream is a plain value, so no call needs scratch.
// An Engine holds no mutable state after construction, so parallel
// evaluation cells (internal/parallel) may share one.
// BenchmarkPad/BenchmarkDataMAC/BenchmarkContentHash prove 0 allocs/op.
package cryptoeng

import (
	"encoding/binary"
	"math/bits"
)

// BlockBytes is the memory block (cache line) size.
const BlockBytes = 64

// SGXMACBits is the width of the MAC embedded in SGX-style counter and
// tree blocks (Figure 3 of the paper; 56-bit as in Intel's MEE).
const SGXMACBits = 56

// Engine holds the processor-resident secrets and implements every
// cryptographic operation the memory controller needs. An Engine is
// safe for concurrent use after construction.
type Engine struct {
	padSeed uint64 // pad-key-derived seed of every block's keystream
	macSeed uint64 // MAC-key-derived seed for data/SGX MACs
	stSeed  uint64 // domain-separated seed for shadow-table MACs
}

// Mixing constants: the "secret" multipliers of the wyhash family —
// dense, random-looking odd words that make the folded multiply
// avalanche. Their exact values are arbitrary but must never change:
// persisted images embed hashes computed with them.
const (
	mixK0 = 0xa0761d6478bd642f
	mixK1 = 0xe7037ed1a0b428db
	mixK2 = 0x8ebc6af09c88c6e3
	mixK3 = 0x589965cc75374cc3
	mixK4 = 0x1d8e4e27c47d124f

	// Fixed seed of the unkeyed hash. ContentHash must be
	// engine-independent (default tree nodes are shared across
	// controllers).
	contentSeed = 0x2d358dccaa6c78a5

	// stDomainSeed separates shadow-table MACs from node MACs computed
	// under the same MAC key.
	stDomainSeed = 0x9e3779b97f4a7c15
)

// mix is the folded 64×64→128 multiply at the heart of every hash: both
// halves of the product depend on all 128 input bits, so XORing them
// gives full avalanche in one multiply.
func mix(a, b uint64) uint64 {
	hi, lo := bits.Mul64(a, b)
	return hi ^ lo
}

// hashBlock compresses a 64-byte block and a seed into 64 bits: four
// independent two-word lanes, then a cross-lane combining multiply.
func hashBlock(seed uint64, b []byte) uint64 {
	_ = b[BlockBytes-1]
	w0 := binary.LittleEndian.Uint64(b[0:])
	w1 := binary.LittleEndian.Uint64(b[8:])
	w2 := binary.LittleEndian.Uint64(b[16:])
	w3 := binary.LittleEndian.Uint64(b[24:])
	w4 := binary.LittleEndian.Uint64(b[32:])
	w5 := binary.LittleEndian.Uint64(b[40:])
	w6 := binary.LittleEndian.Uint64(b[48:])
	w7 := binary.LittleEndian.Uint64(b[56:])
	h0 := mix(w0^mixK0, w1^seed)
	h1 := mix(w2^mixK1, w3^seed)
	h2 := mix(w4^mixK2, w5^seed)
	h3 := mix(w6^mixK3, w7^seed)
	return mix(h0^h2^mixK4, h1^h3^seed)
}

// NewEngine derives an engine from a 16-byte processor pad key and a
// 32-byte MAC key. In a real processor these are fused or generated at
// boot and never leave the chip.
func NewEngine(padKey [16]byte, macKey [32]byte) *Engine {
	// Fold each key into the 64-bit seeds its operations hang off: every
	// key bit reaches a seed through a multiply, so distinct keys give
	// unrelated pad and MAC families (the key-separation property the
	// tests check).
	p0 := binary.LittleEndian.Uint64(padKey[0:])
	p1 := binary.LittleEndian.Uint64(padKey[8:])
	k0 := binary.LittleEndian.Uint64(macKey[0:])
	k1 := binary.LittleEndian.Uint64(macKey[8:])
	k2 := binary.LittleEndian.Uint64(macKey[16:])
	k3 := binary.LittleEndian.Uint64(macKey[24:])
	e := &Engine{padSeed: mix(p0^mixK2, p1^mixK3)}
	e.macSeed = mix(k0^mixK0, k1^mixK1) ^ mix(k2^mixK2, k3^mixK3)
	e.stSeed = mix(e.macSeed^mixK4, stDomainSeed)
	return e
}

// NewTestEngine returns an engine with fixed keys, for tests and
// examples where key management is irrelevant.
func NewTestEngine() *Engine {
	var padKey [16]byte
	var macKey [32]byte
	for i := range padKey {
		padKey[i] = byte(i + 1)
	}
	for i := range macKey {
		macKey[i] = byte(0xA0 + i)
	}
	return NewEngine(padKey, macKey)
}

// Keystream is the one-time pad of one (address, counter) pair, drawn
// one 8-byte word at a time. It is a value, so callers hold no scratch.
type Keystream uint64

// Keystream returns the pad of block addr under counter: the address
// passes through a multiply keyed by the pad key, the counter is XORed
// into the result, and a second keyed multiply forms the state. Pads
// are unrelated across the counters of one address, which is what an
// Osiris candidate trial compares, and across pad keys. Across
// addresses the construction is not a cipher: two pairs whose counters
// differ by exactly the XOR of their addresses' first-multiply outputs
// share a pad. Nothing relies on pads of different addresses being
// unrelated; each block's data MAC is checked on its own.
func (e *Engine) Keystream(addr, counter uint64) Keystream {
	return Keystream(mix(mix(addr^e.padSeed, mixK1)^counter, mixK2^e.padSeed))
}

// Word returns pad word w (bytes 8w..8w+7 of the block, little-endian):
// wyrand's output step on the stream's (w+1)-th state. Counter-mode
// decryption XORs the same words, so a caller that checks a block as
// it decrypts it can stop after the first word that fails.
func (k Keystream) Word(w int) uint64 {
	x := uint64(k) + uint64(w+1)*mixK0
	return mix(x, x^mixK1)
}

// EncryptTo XORs the 64-byte src with the OTP for (addr, counter),
// writing the result into the caller-provided dst: the eight words of
// its Keystream. dst and src may alias (in-place operation) and must
// both be 64 bytes.
func (e *Engine) EncryptTo(dst, src []byte, addr, counter uint64) {
	if len(dst) != BlockBytes || len(src) != BlockBytes {
		panic("cryptoeng: EncryptTo needs 64-byte blocks")
	}
	k := e.Keystream(addr, counter)
	for w := 0; w < BlockBytes/8; w++ {
		binary.LittleEndian.PutUint64(dst[8*w:], binary.LittleEndian.Uint64(src[8*w:])^k.Word(w))
	}
}

// DataMAC computes the 64-bit Bonsai data MAC over (addr, counter, data).
// Together with a Merkle tree over the counters this yields Bonsai
// Merkle Tree protection (Rogers et al., MICRO 2007).
func (e *Engine) DataMAC(addr, counter uint64, data []byte) uint64 {
	if len(data) != BlockBytes {
		panic("cryptoeng: DataMAC needs a 64-byte block")
	}
	h := hashBlock(e.macSeed, data)
	return mix(mix(addr^mixK1, counter^e.macSeed)^h, mixK2^e.macSeed)
}

// STMAC computes the 56-bit MAC stored in an ASIT shadow-table entry
// (Figure 9b): it covers the tracked node's address and its full
// (updated) counter values. Unlike the in-NVM node MAC it does not bind
// the parent counter — the shadow table's own integrity tree
// (SHADOW_TREE_ROOT) provides freshness, and covering the complete
// counters (MSBs included) is what lets recovery detect tampering with
// the stale in-memory copy the LSBs are spliced onto.
func (e *Engine) STMAC(nodeAddr uint64, counters []uint64) uint64 {
	h := mix(nodeAddr^mixK0, e.stSeed^mixK3)
	for _, c := range counters {
		h = mix(h^mixK1, c^e.stSeed)
	}
	return mix(h^mixK2, e.stSeed^mixK4) & (1<<SGXMACBits - 1)
}

// ContentHash computes the 64-bit hash of a 64-byte node used by
// general (non-parallelizable) Merkle trees. It is content-only —
// position binding comes from the tree structure itself (a child's hash
// is stored at its slot in the parent), which keeps all same-content
// nodes identical and makes the zero-initialized tree computable in
// O(depth) instead of O(nodes).
func (e *Engine) ContentHash(node []byte) uint64 {
	if len(node) != BlockBytes {
		panic("cryptoeng: ContentHash needs a 64-byte node")
	}
	return hashBlock(contentSeed, node)
}

// SGXMAC computes the 56-bit MAC embedded in an SGX-style block: it
// covers the block's own counters (nonces), the counter in the parent
// block that versions this node, and the node address. The result fits
// in the low 56 bits of the returned value.
func (e *Engine) SGXMAC(nodeAddr uint64, counters []uint64, parentCounter uint64) uint64 {
	h := mix(nodeAddr^mixK0, e.macSeed^mixK3)
	for _, c := range counters {
		h = mix(h^mixK1, c^e.macSeed)
	}
	return mix(h^mixK2, parentCounter^e.macSeed) & (1<<SGXMACBits - 1)
}
