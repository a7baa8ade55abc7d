// Package cryptoeng implements the cryptographic engine of a secure
// memory controller: counter-mode (OTP) encryption of 64-byte memory
// blocks, the Bonsai data MAC, the 64-bit hash used by general Merkle
// trees, and the 56-bit MAC used by SGX-style parallelizable trees.
//
// The constructions mirror the ones assumed by the paper (and by secure
// processors generally):
//
//   - Encryption is counter mode: a one-time pad is derived from an IV
//     built from the block address and its (spatially and temporally
//     unique) encryption counter, then XORed with the plaintext. Pad
//     generation can overlap the data fetch, which is why secure
//     processors use it; here it matters because the *counter value*
//     fully determines decryption, the property Osiris recovery exploits.
//   - The Bonsai data MAC is computed over (ciphertext address, counter,
//     data) and protects data integrity while the Merkle tree only covers
//     counters.
//   - Tree hashes are truncated so that eight of them pack into one
//     64-byte node (8-ary trees), exactly as in the paper's Figure 2.
//
// Encryption uses the standard library's AES-128. Hashes and MACs use a
// keyed multiply-mix construction (wyhash-style folded 64×64→128
// multiplies) rather than SHA-256/HMAC: the simulator charges
// cryptographic latency through the modeled memctrl.HashNS cost, so the
// functional hash contributes nothing to simulated timing — it only
// needs determinism, full-width avalanche (tamper and differential
// tests must see every bit flip), and per-key separation, all of which
// the mix provides at a tenth of the wall-clock cost. SHA-256 here
// dominated whole-sweep profiles (~25% of samples) while adding no
// modeling fidelity; a production memory controller's choice of hash
// is orthogonal to everything this simulator measures.
//
// # Allocation-free hot path
//
// Every simulated memory request calls into this package several times
// (pad + MAC on the data, one tree hash per Merkle level), so the block
// path must not allocate. The MAC/hash paths are pure register math;
// OTP generation stages its pad and IV in a pooled scratch so the
// AES calls never force caller buffers to escape. The pool also keeps
// the Engine safe for concurrent use: parallel evaluation cells
// (internal/parallel) may share one Engine, and each in-flight
// operation checks out its own scratch state.
// BenchmarkPad/BenchmarkDataMAC/BenchmarkContentHash prove 0 allocs/op.
package cryptoeng

import (
	"crypto/aes"
	"crypto/cipher"
	"crypto/subtle"
	"encoding/binary"
	"math/bits"
	"sync"
)

// BlockBytes is the memory block (cache line) size.
const BlockBytes = 64

// SGXMACBits is the width of the MAC embedded in SGX-style counter and
// tree blocks (Figure 3 of the paper; 56-bit as in Intel's MEE).
const SGXMACBits = 56

// scratch is the per-operation working state. One scratch is checked
// out of the Engine's pool for the duration of a primitive call, so the
// hot path performs no heap allocation and concurrent callers never
// share buffers. Only the OTP path needs scratch; MAC and hash
// computation is pure register math.
type scratch struct {
	pad [BlockBytes]byte    // OTP scratch
	iv  [aes.BlockSize]byte // counter-mode IV scratch
}

// Engine holds the processor-resident secrets and implements every
// cryptographic operation the memory controller needs. An Engine is
// safe for concurrent use after construction.
type Engine struct {
	aead    cipher.Block // AES-128 block cipher for OTP generation
	macSeed uint64       // MAC-key-derived seed for data/SGX MACs
	stSeed  uint64       // domain-separated seed for shadow-table MACs
	pool    sync.Pool    // *scratch
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

// NewEngine derives an engine from a 16-byte processor key and a 32-byte
// MAC key. In a real processor these are fused or generated at boot and
// never leave the chip.
func NewEngine(aesKey [16]byte, macKey [32]byte) *Engine {
	blk, err := aes.NewCipher(aesKey[:])
	if err != nil {
		// aes.NewCipher only fails on invalid key sizes, which the
		// fixed-size parameter rules out.
		panic("cryptoeng: " + err.Error())
	}
	e := &Engine{aead: blk}
	// Fold the 32-byte MAC key into the 64-bit seeds all keyed MACs
	// hang off: every key bit reaches the seed through a multiply, so
	// distinct keys give unrelated MAC families (the key-separation
	// property the tests check).
	k0 := binary.LittleEndian.Uint64(macKey[0:])
	k1 := binary.LittleEndian.Uint64(macKey[8:])
	k2 := binary.LittleEndian.Uint64(macKey[16:])
	k3 := binary.LittleEndian.Uint64(macKey[24:])
	e.macSeed = mix(k0^mixK0, k1^mixK1) ^ mix(k2^mixK2, k3^mixK3)
	e.stSeed = mix(e.macSeed^mixK4, stDomainSeed)
	e.pool.New = func() any { return new(scratch) }
	// Pre-warm one scratch so even the first operation after boot runs
	// allocation-free.
	e.pool.Put(new(scratch))
	return e
}

func (e *Engine) get() *scratch  { return e.pool.Get().(*scratch) }
func (e *Engine) put(s *scratch) { e.pool.Put(s) }

// NewTestEngine returns an engine with fixed keys, for tests and
// examples where key management is irrelevant.
func NewTestEngine() *Engine {
	var aesKey [16]byte
	var macKey [32]byte
	for i := range aesKey {
		aesKey[i] = byte(i + 1)
	}
	for i := range macKey {
		macKey[i] = byte(0xA0 + i)
	}
	return NewEngine(aesKey, macKey)
}

// padInto computes the 64-byte one-time pad for (address, counter) into
// the scratch pad buffer. The IV of AES block i is (address, counter,
// i): spatial uniqueness via the address, temporal uniqueness via the
// counter.
func (e *Engine) padInto(s *scratch, addr, counter uint64) {
	binary.LittleEndian.PutUint64(s.iv[0:8], addr)
	for i := 0; i < BlockBytes/aes.BlockSize; i++ {
		binary.LittleEndian.PutUint64(s.iv[8:16], counter<<2|uint64(i))
		e.aead.Encrypt(s.pad[i*aes.BlockSize:(i+1)*aes.BlockSize], s.iv[:])
	}
}

// EncryptTo XORs the 64-byte src with the OTP for (addr, counter),
// writing the result into the caller-provided dst. dst and src may
// alias (in-place operation) and must both be 64 bytes. Counter-mode
// decryption is the same operation, so DecryptTo is an alias.
func (e *Engine) EncryptTo(dst, src []byte, addr, counter uint64) {
	if len(dst) != BlockBytes || len(src) != BlockBytes {
		panic("cryptoeng: EncryptTo needs 64-byte blocks")
	}
	s := e.get()
	e.padInto(s, addr, counter)
	subtle.XORBytes(dst, src, s.pad[:])
	e.put(s)
}

// DecryptTo is counter-mode decryption into a caller-provided buffer:
// identical to EncryptTo.
func (e *Engine) DecryptTo(dst, src []byte, addr, counter uint64) {
	e.EncryptTo(dst, src, addr, counter)
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
