package counter

import (
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

func TestBitPackingHelpers(t *testing.T) {
	buf := make([]byte, 16)
	putBits(buf, 3, 7, 0x55)
	if got := getBits(buf, 3, 7); got != 0x55 {
		t.Fatalf("getBits = %#x, want 0x55", got)
	}
	// Overwrite with a different value: putBits must clear old bits.
	putBits(buf, 3, 7, 0x2a)
	if got := getBits(buf, 3, 7); got != 0x2a {
		t.Fatalf("after overwrite getBits = %#x, want 0x2a", got)
	}
	// Neighbouring fields must not interfere.
	putBits(buf, 10, 7, 0x7f)
	if got := getBits(buf, 3, 7); got != 0x2a {
		t.Fatalf("neighbour write clobbered field: %#x", got)
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

func BenchmarkSplitPack(b *testing.B) {
	var s Split
	s.Major = 12345
	for i := range s.Minors {
		s.Minors[i] = uint8(i & MinorMax)
	}
	for i := 0; i < b.N; i++ {
		_ = s.Pack()
	}
}

func BenchmarkSplitUnpack(b *testing.B) {
	var s Split
	s.Major = 12345
	packed := s.Pack()
	for i := 0; i < b.N; i++ {
		_ = UnpackSplit(packed)
	}
}

func BenchmarkSGXPack(b *testing.B) {
	var g SGX
	for i := range g.Ctr {
		g.Ctr[i] = uint64(i) * 99991
	}
	for i := 0; i < b.N; i++ {
		_ = g.Pack()
	}
}
