package ecc

import (
	"encoding/binary"
	"math/bits"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestEncodeDeterministic(t *testing.T) {
	if Encode(0) != Encode(0) {
		t.Fatal("Encode is not deterministic")
	}
	// The all-zero word must encode to all-zero check bits (linear code).
	if got := Encode(0); got != 0 {
		t.Fatalf("Encode(0) = %#x, want 0", got)
	}
}

func TestCheckRoundTrip(t *testing.T) {
	f := func(word uint64) bool {
		return Check(word, Encode(word))
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestCorrectNoError(t *testing.T) {
	f := func(word uint64) bool {
		got, res := correctRef(word, Encode(word))
		return got == word && res == ok
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// TestCorrectSingleDataBit flips each of the 64 data bits in turn and
// checks that Encode's check bits locate and restore it.
func TestCorrectSingleDataBit(t *testing.T) {
	words := []uint64{0, ^uint64(0), 0xdeadbeefcafebabe, 1, 1 << 63}
	for _, w := range words {
		ecc := Encode(w)
		for bit := 0; bit < 64; bit++ {
			corrupt := w ^ (1 << uint(bit))
			got, res := correctRef(corrupt, ecc)
			if res != correctedData {
				t.Fatalf("word %#x bit %d: result %v, want correctedData", w, bit, res)
			}
			if got != w {
				t.Fatalf("word %#x bit %d: corrected to %#x", w, bit, got)
			}
		}
	}
}

// TestCorrectSingleECCBit flips each check bit and verifies the data word
// is reported intact.
func TestCorrectSingleECCBit(t *testing.T) {
	w := uint64(0x0123456789abcdef)
	ecc := Encode(w)
	for bit := 0; bit < 8; bit++ {
		got, res := correctRef(w, ecc^(1<<uint(bit)))
		if res != correctedECC {
			t.Fatalf("ecc bit %d: result %v, want correctedECC", bit, res)
		}
		if got != w {
			t.Fatalf("ecc bit %d: word changed to %#x", bit, got)
		}
	}
}

// TestDetectDoubleBit flips every pair of data bits and verifies the code
// never silently mis-corrects: it must report Uncorrectable.
func TestDetectDoubleBit(t *testing.T) {
	w := uint64(0xfeedface0badf00d)
	ecc := Encode(w)
	for i := 0; i < 64; i++ {
		for j := i + 1; j < 64; j++ {
			corrupt := w ^ (1 << uint(i)) ^ (1 << uint(j))
			_, res := correctRef(corrupt, ecc)
			if res != uncorrectable {
				t.Fatalf("bits %d,%d: result %v, want uncorrectable", i, j, res)
			}
		}
	}
}

// TestDoubleBitMixed flips one data bit and one ECC bit.
func TestDoubleBitMixed(t *testing.T) {
	w := uint64(0x5555aaaa5555aaaa)
	ecc := Encode(w)
	for i := 0; i < 64; i++ {
		for j := 0; j < 8; j++ {
			_, res := correctRef(w^(1<<uint(i)), ecc^(1<<uint(j)))
			if res == ok {
				t.Fatalf("data bit %d + ecc bit %d: undetected", i, j)
			}
		}
	}
}

func TestQuickSingleBitProperty(t *testing.T) {
	f := func(word uint64, bitSeed uint8) bool {
		bit := uint(bitSeed) % 64
		ecc := Encode(word)
		got, res := correctRef(word^(1<<bit), ecc)
		return got == word && res == correctedData
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
}

func TestBlockRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	block := make([]byte, BlockBytes)
	for trial := 0; trial < 100; trial++ {
		rng.Read(block)
		ecc := EncodeBlock(block)
		if !CheckBlock(block, ecc) {
			t.Fatalf("trial %d: clean block fails check", trial)
		}
	}
}

func TestBlockDetectsCorruption(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	block := make([]byte, BlockBytes)
	rng.Read(block)
	ecc := EncodeBlock(block)
	for trial := 0; trial < 200; trial++ {
		byteIdx := rng.Intn(BlockBytes)
		bit := uint(rng.Intn(8))
		block[byteIdx] ^= 1 << bit
		if CheckBlock(block, ecc) {
			t.Fatalf("trial %d: single-bit corruption not detected", trial)
		}
		block[byteIdx] ^= 1 << bit
	}
}

// TestBlockCorrectsSingleBitPerWord flips one bit in every word: the
// block fails CheckBlock, and each word's EncodeBlock byte locates and
// restores its flipped bit.
func TestBlockCorrectsSingleBitPerWord(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	orig := make([]byte, BlockBytes)
	rng.Read(orig)
	ecc := EncodeBlock(orig)
	block := make([]byte, BlockBytes)
	copy(block, orig)
	for w := 0; w < WordsPerBlock; w++ {
		block[w*WordBytes+rng.Intn(WordBytes)] ^= 1 << uint(rng.Intn(8))
	}
	if CheckBlock(block, ecc) {
		t.Fatal("block with a flipped bit in every word passes CheckBlock")
	}
	for w := 0; w < WordsPerBlock; w++ {
		got, res := correctRef(binary.LittleEndian.Uint64(block[w*WordBytes:]), ecc[w])
		if res != correctedData {
			t.Fatalf("word %d: result %v, want correctedData", w, res)
		}
		if want := binary.LittleEndian.Uint64(orig[w*WordBytes:]); got != want {
			t.Fatalf("word %d corrected to %#x, want %#x", w, got, want)
		}
	}
}

// TestRandomPlaintextFailsCheck is the property Osiris depends on:
// an unrelated (pseudo-random) block almost never passes another
// block's ECC.
func TestRandomPlaintextFailsCheck(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	a := make([]byte, BlockBytes)
	b := make([]byte, BlockBytes)
	for trial := 0; trial < 500; trial++ {
		rng.Read(a)
		rng.Read(b)
		if CheckBlock(b, EncodeBlock(a)) {
			t.Fatalf("trial %d: random block passed foreign ECC", trial)
		}
	}
}

func TestPanicsOnWrongSize(t *testing.T) {
	for _, fn := range []func(){
		func() { EncodeBlock(make([]byte, 63)) },
		func() { CheckBlock(make([]byte, 65), [WordsPerBlock]uint8{}) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatal("expected panic for wrong block size")
				}
			}()
			fn()
		}()
	}
}

// Sinks keep each benchmarked result live, so the compiler cannot
// delete an inlined kernel whose value is never used.
var (
	sinkECC   uint8
	sinkBlock [WordsPerBlock]uint8
	sinkOK    bool
)

func BenchmarkEncodeWord(b *testing.B) {
	for i := 0; i < b.N; i++ {
		sinkECC = Encode(uint64(i) * 0x9e3779b97f4a7c15)
	}
}

func BenchmarkEncodeBlock(b *testing.B) {
	block := make([]byte, BlockBytes)
	binary.LittleEndian.PutUint64(block, 0x123456789)
	b.SetBytes(BlockBytes)
	for i := 0; i < b.N; i++ {
		sinkBlock = EncodeBlock(block)
	}
}

// BenchmarkCheckBlock checks a clean block, so every word is encoded
// (a wrong recovery candidate usually stops at its first word).
func BenchmarkCheckBlock(b *testing.B) {
	block := make([]byte, BlockBytes)
	rand.New(rand.NewSource(5)).Read(block)
	ecc := EncodeBlock(block)
	b.SetBytes(BlockBytes)
	for i := 0; i < b.N; i++ {
		sinkOK = CheckBlock(block, ecc)
	}
}

// parityPositions lists the Hamming parity bit positions.
var parityPositions = [7]uint{1, 2, 4, 8, 16, 32, 64}

// encodeRef is the bit-serial definition of the code: one XOR per
// participating data bit per parity. The table-driven Encode must
// agree with it on every input.
func encodeRef(word uint64) uint8 {
	var ecc uint8
	for pi, pp := range parityPositions {
		var p uint
		for di := 0; di < 64; di++ {
			if dataPositions[di]&pp != 0 {
				p ^= uint(word>>uint(di)) & 1
			}
		}
		ecc |= uint8(p) << uint(pi)
	}
	var all uint
	for di := 0; di < 64; di++ {
		all ^= uint(word>>uint(di)) & 1
	}
	for pi := 0; pi < 7; pi++ {
		all ^= uint(ecc>>uint(pi)) & 1
	}
	ecc |= uint8(all) << 7
	return ecc
}

// TestEncodeMatchesReference pins the table-driven Encode to the
// bit-serial definition: single-bit words (which isolate each data
// bit's check bits), edge patterns, and a quick-check sweep.
func TestEncodeMatchesReference(t *testing.T) {
	for di := 0; di < 64; di++ {
		w := uint64(1) << uint(di)
		if got, want := Encode(w), encodeRef(w); got != want {
			t.Fatalf("Encode(bit %d) = %#x, want %#x", di, got, want)
		}
	}
	for _, w := range []uint64{0, ^uint64(0), 0xAAAAAAAAAAAAAAAA, 0x5555555555555555} {
		if got, want := Encode(w), encodeRef(w); got != want {
			t.Fatalf("Encode(%#x) = %#x, want %#x", w, got, want)
		}
	}
	if err := quick.Check(func(w uint64) bool {
		return Encode(w) == encodeRef(w)
	}, &quick.Config{MaxCount: 20000}); err != nil {
		t.Fatal(err)
	}
}

// checkResult classifies the outcome of a SECDED decode.
type checkResult int

const (
	ok            checkResult = iota // a consistent codeword
	correctedData                    // a single flipped data bit, corrected
	correctedECC                     // a single flipped check bit
	uncorrectable                    // a multi-bit error, detected
)

// positionOfData maps a codeword position to its data bit index, or -1
// for the parity positions 0 and 2^i.
var positionOfData = func() (pos [72]int) {
	di := 0
	for p := range pos {
		if p&(p-1) == 0 {
			pos[p] = -1
			continue
		}
		pos[p] = di
		di++
	}
	return pos
}()

// correctRef is the SECDED decoder of the code, computed from encodeRef
// with the overall parity of the received codeword counted bit by bit.
// The controller never corrects (Osiris only checks a candidate
// counter's plaintext against its ECC), so the decoder lives here: it
// proves that Encode's check bits correct every single-bit error and
// detect every double-bit error.
func correctRef(word uint64, ecc uint8) (uint64, checkResult) {
	expect := encodeRef(word)
	if expect == ecc {
		return word, ok
	}
	syndrome := uint((expect ^ ecc) & 0x7f)
	overallMismatch := (bits.OnesCount64(word)+bits.OnesCount8(ecc))&1 != 0
	switch {
	case syndrome == 0 && overallMismatch:
		return word, correctedECC
	case syndrome != 0 && overallMismatch:
		if syndrome >= 72 {
			return word, uncorrectable
		}
		if di := positionOfData[syndrome]; di >= 0 {
			return word ^ (1 << uint(di)), correctedData
		}
		return word, correctedECC
	default:
		return word, uncorrectable
	}
}

// checkBlockRef is CheckBlock word by word under encodeRef.
func checkBlockRef(block []byte, ecc [WordsPerBlock]uint8) bool {
	for w := 0; w < WordsPerBlock; w++ {
		if encodeRef(binary.LittleEndian.Uint64(block[w*WordBytes:])) != ecc[w] {
			return false
		}
	}
	return true
}

// FuzzBlockKernels pins Encode and CheckBlock to their references on
// arbitrary blocks and check bytes, checks that a block passes under
// its own EncodeBlock, and that each word's Encode byte restores the
// word with one bit flipped.
func FuzzBlockKernels(f *testing.F) {
	f.Add([]byte{}, uint64(0))
	f.Add([]byte{0xff, 0x01, 0x80}, ^uint64(0))
	f.Add(make([]byte, BlockBytes), uint64(0x0123456789abcdef))
	f.Fuzz(func(t *testing.T, raw []byte, eccWord uint64) {
		block := make([]byte, BlockBytes)
		copy(block, raw)
		var ecc [WordsPerBlock]uint8
		binary.LittleEndian.PutUint64(ecc[:], eccWord)
		for w := 0; w < WordsPerBlock; w++ {
			word := binary.LittleEndian.Uint64(block[w*WordBytes:])
			if got, want := Encode(word), encodeRef(word); got != want {
				t.Fatalf("Encode(%#x) = %#x, want %#x", word, got, want)
			}
			flip := uint64(1) << (uint(ecc[w]) % 64)
			if got, res := correctRef(word^flip, Encode(word)); got != word || res != correctedData {
				t.Fatalf("word %#x with bit %#x flipped decodes to (%#x, %v)", word, flip, got, res)
			}
		}
		if got, want := CheckBlock(block, ecc), checkBlockRef(block, ecc); got != want {
			t.Fatalf("CheckBlock = %v, reference %v", got, want)
		}
		if !CheckBlock(block, EncodeBlock(block)) {
			t.Fatal("block fails its own EncodeBlock")
		}
	})
}
