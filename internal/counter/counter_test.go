package counter

import (
	"bytes"
	"encoding/binary"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestSplitPackUnpackRoundTrip(t *testing.T) {
	f := func(major uint64, seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		var s Split
		s.Major = major
		for i := range s.Minors {
			s.Minors[i] = uint8(rng.Intn(MinorMax + 1))
		}
		packed := s.Pack()
		for i := range s.Minors {
			if SplitCounterAt(&packed, i) != s.Counter(i) {
				return false
			}
		}
		return UnpackSplit(packed) == s
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestSplitZeroValue(t *testing.T) {
	var s Split
	for i := 0; i < SplitMinors; i++ {
		if s.Counter(i) != 0 {
			t.Fatalf("fresh page counter %d = %d, want 0", i, s.Counter(i))
		}
	}
	packed := s.Pack()
	for i, b := range packed {
		if b != 0 {
			t.Fatalf("fresh page pack byte %d = %#x, want 0", i, b)
		}
	}
}

func TestSplitIncrement(t *testing.T) {
	var s Split
	if s.Increment(5) {
		t.Fatal("first increment reported overflow")
	}
	if s.Counter(5) != 1 {
		t.Fatalf("counter = %d, want 1", s.Counter(5))
	}
	if s.Counter(4) != 0 {
		t.Fatal("increment leaked into neighbour")
	}
}

func TestSplitMinorOverflow(t *testing.T) {
	var s Split
	for i := 0; i < MinorMax; i++ {
		if s.Increment(0) {
			t.Fatalf("premature overflow at update %d", i)
		}
	}
	if s.Minors[0] != MinorMax {
		t.Fatalf("minor = %d, want %d", s.Minors[0], MinorMax)
	}
	s.Minors[7] = 3 // another line with history
	if !s.Increment(0) {
		t.Fatal("overflow not reported")
	}
	if s.Major != 1 {
		t.Fatalf("major = %d, want 1", s.Major)
	}
	for i, m := range s.Minors {
		if m != 0 {
			t.Fatalf("minor %d = %d after page overflow, want 0", i, m)
		}
	}
}

func TestSplitCounterMonotonicAcrossOverflow(t *testing.T) {
	// The combined counter must be strictly larger after an overflow,
	// otherwise an IV would repeat.
	var s Split
	s.Minors[0] = MinorMax
	before := s.Counter(0)
	s.Increment(0)
	if after := s.Counter(0); after <= before {
		t.Fatalf("counter went from %d to %d across overflow", before, after)
	}
}

func TestSplitCounterComposition(t *testing.T) {
	s := Split{Major: 3}
	s.Minors[10] = 5
	if got := s.Counter(10); got != 3<<MinorBits|5 {
		t.Fatalf("Counter = %d, want %d", got, 3<<MinorBits|5)
	}
}

func TestSGXPackUnpackRoundTrip(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		var g SGX
		for i := range g.Ctr {
			g.Ctr[i] = rng.Uint64() & SGXCounterMask
		}
		g.MAC = rng.Uint64() & SGXCounterMask
		return UnpackSGX(g.Pack()) == g
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestSGXPackLastByteZero(t *testing.T) {
	g := SGX{MAC: SGXCounterMask}
	for i := range g.Ctr {
		g.Ctr[i] = SGXCounterMask
	}
	packed := g.Pack()
	if packed[63] != 0 {
		t.Fatalf("spare byte = %#x, want 0", packed[63])
	}
}

func TestSGXIncrement(t *testing.T) {
	var g SGX
	if g.Increment(2) {
		t.Fatal("unexpected wrap")
	}
	if g.Ctr[2] != 1 || g.Ctr[1] != 0 {
		t.Fatal("increment applied to the wrong counter")
	}
	g.Ctr[7] = SGXCounterMask
	if !g.Increment(7) {
		t.Fatal("56-bit wrap not reported")
	}
	if g.Ctr[7] != 0 {
		t.Fatalf("counter = %d after wrap, want 0", g.Ctr[7])
	}
}

func TestSpliceLSB(t *testing.T) {
	cases := []struct {
		stale, lsb, want uint64
	}{
		{0, 0, 0},
		{1 << LSBBits, 5, 1<<LSBBits | 5},
		{3<<LSBBits | 123456, 99, 3<<LSBBits | 99},
		{LSBMask, 0, 0}, // stale has no MSBs set above LSB
	}
	for _, c := range cases {
		if got := SpliceLSB(c.stale, c.lsb); got != c.want {
			t.Fatalf("SpliceLSB(%#x,%#x) = %#x, want %#x", c.stale, c.lsb, got, c.want)
		}
	}
}

func TestSpliceLSBProperty(t *testing.T) {
	// Splicing a counter's own parts must reproduce it exactly.
	f := func(c uint64) bool {
		c &= SGXCounterMask
		return SpliceLSB(c, c&LSBMask) == c
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestSplitPackDensity(t *testing.T) {
	// Exactly 8 + 56 bytes are used: byte layout must consume the whole
	// block when all minors are saturated.
	var s Split
	s.Major = ^uint64(0)
	for i := range s.Minors {
		s.Minors[i] = MinorMax
	}
	packed := s.Pack()
	// 64 minors * 7 bits = 448 bits = bytes 8..63 fully set.
	for i := 8; i < 64; i++ {
		if packed[i] != 0xff {
			t.Fatalf("byte %d = %#x, want 0xff", i, packed[i])
		}
	}
}

// Sinks keep each benchmarked result live, so the compiler cannot
// delete a codec call whose value is never used.
var (
	sinkBlock [BlockBytes]byte
	sinkSplit Split
	sinkSGX   SGX
)

func BenchmarkSplitPack(b *testing.B) {
	var s Split
	s.Major = 12345
	for i := range s.Minors {
		s.Minors[i] = uint8(i & MinorMax)
	}
	for i := 0; i < b.N; i++ {
		sinkBlock = s.Pack()
	}
}

func BenchmarkSplitUnpack(b *testing.B) {
	var s Split
	s.Major = 12345
	packed := s.Pack()
	for i := 0; i < b.N; i++ {
		sinkSplit = UnpackSplit(packed)
	}
}

func BenchmarkSGXPack(b *testing.B) {
	var g SGX
	for i := range g.Ctr {
		g.Ctr[i] = uint64(i) * 99991
	}
	for i := 0; i < b.N; i++ {
		sinkBlock = g.Pack()
	}
}

func BenchmarkSGXUnpack(b *testing.B) {
	var g SGX
	for i := range g.Ctr {
		g.Ctr[i] = uint64(i) * 99991
	}
	packed := g.Pack()
	for i := 0; i < b.N; i++ {
		sinkSGX = UnpackSGX(packed)
	}
}

// --- reference codecs ----------------------------------------------------------

// The references below are the field-at-a-time codecs the word-parallel
// ones replaced: one 7-byte read-modify-write per 56-bit field. The new
// codecs must produce the same bytes and fields on every input.

// put56Ref writes a 56-bit little-endian value into 7 bytes, preserving
// the byte after the field (word-wise read-modify-write when the
// buffer allows it).
func put56Ref(buf []byte, v uint64) {
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

// get56Ref reads a 56-bit little-endian value from 7 bytes.
func get56Ref(buf []byte) uint64 {
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

func packSplitRef(s *Split) [BlockBytes]byte {
	var out [BlockBytes]byte
	binary.LittleEndian.PutUint64(out[0:8], s.Major)
	for g := 0; g < SplitMinors/8; g++ {
		var w uint64
		for j := 7; j >= 0; j-- {
			w = w<<MinorBits | uint64(s.Minors[g*8+j]&MinorMax)
		}
		put56Ref(out[8+g*7:], w)
	}
	return out
}

func unpackSplitRef(b [BlockBytes]byte) Split {
	var s Split
	s.Major = binary.LittleEndian.Uint64(b[0:8])
	for g := 0; g < SplitMinors/8; g++ {
		w := get56Ref(b[8+g*7:])
		for j := 0; j < 8; j++ {
			s.Minors[g*8+j] = uint8(w >> uint(MinorBits*j) & MinorMax)
		}
	}
	return s
}

func packSGXRef(g *SGX) [BlockBytes]byte {
	var out [BlockBytes]byte
	for i := 0; i < SGXCounters; i++ {
		put56Ref(out[i*7:], g.Ctr[i])
	}
	put56Ref(out[SGXCounters*7:], g.MAC)
	return out
}

func unpackSGXRef(b [BlockBytes]byte) SGX {
	var g SGX
	for i := 0; i < SGXCounters; i++ {
		g.Ctr[i] = get56Ref(b[i*7:])
	}
	g.MAC = get56Ref(b[SGXCounters*7:])
	return g
}

// FuzzCodecs pins both block codecs to their references: any 64 bytes
// unpack to the same fields, every lane reads the same counter, and
// structs with out-of-range minors, counters and MAC pack to the same
// bytes (Pack masks each field to its width).
func FuzzCodecs(f *testing.F) {
	f.Add([]byte{}, uint64(0), uint64(0))
	f.Add(bytes.Repeat([]byte{0xff}, BlockBytes), ^uint64(0), ^uint64(0))
	f.Add([]byte{0x80, 0x7f, 0x01, 0xfe}, uint64(12345), uint64(1)<<56)
	f.Fuzz(func(t *testing.T, raw []byte, major, mac uint64) {
		var b [BlockBytes]byte
		copy(b[:], raw)
		want := unpackSplitRef(b)
		if got := UnpackSplit(b); got != want {
			t.Fatalf("UnpackSplit(%x) = %+v, want %+v", b, got, want)
		}
		for i := 0; i < SplitMinors; i++ {
			if got := SplitCounterAt(&b, i); got != want.Counter(i) {
				t.Fatalf("SplitCounterAt(%x, %d) = %#x, want %#x", b, i, got, want.Counter(i))
			}
		}
		if got, want := UnpackSGX(b), unpackSGXRef(b); got != want {
			t.Fatalf("UnpackSGX(%x) = %+v, want %+v", b, got, want)
		}

		s := Split{Major: major}
		copy(s.Minors[:], b[:])
		if got, want := s.Pack(), packSplitRef(&s); got != want {
			t.Fatalf("Split%+v.Pack() = %x, want %x", s, got, want)
		}
		g := SGX{MAC: mac}
		for i := range g.Ctr {
			g.Ctr[i] = binary.LittleEndian.Uint64(b[i*8:])
		}
		if got, want := g.Pack(), packSGXRef(&g); got != want {
			t.Fatalf("SGX%+v.Pack() = %x, want %x", g, got, want)
		}
	})
}
