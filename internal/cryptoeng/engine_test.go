package cryptoeng

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math/bits"
	"math/rand"
	"testing"
	"testing/quick"
)

func testBlock(seed int64) []byte {
	rng := rand.New(rand.NewSource(seed))
	b := make([]byte, BlockBytes)
	rng.Read(b)
	return b
}

// encrypt returns EncryptTo's output in a new slice.
func encrypt(e *Engine, addr, counter uint64, src []byte) []byte {
	dst := make([]byte, BlockBytes)
	e.EncryptTo(dst, src, addr, counter)
	return dst
}

// pad returns the 64-byte pad of (addr, counter) as eight words.
func pad(e *Engine, addr, counter uint64) [BlockBytes / 8]uint64 {
	var p [BlockBytes / 8]uint64
	k := e.Keystream(addr, counter)
	for w := range p {
		p[w] = k.Word(w)
	}
	return p
}

func TestEncryptDecryptRoundTrip(t *testing.T) {
	e := NewTestEngine()
	f := func(addr, counter uint64, seed int64) bool {
		pt := testBlock(seed)
		ct := encrypt(e, addr, counter, pt)
		return bytes.Equal(encrypt(e, addr, counter, ct), pt)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestCiphertextDiffersFromPlaintext(t *testing.T) {
	e := NewTestEngine()
	pt := testBlock(1)
	ct := encrypt(e, 42, 7, pt)
	if bytes.Equal(ct, pt) {
		t.Fatal("ciphertext equals plaintext")
	}
}

func TestSpatialUniqueness(t *testing.T) {
	// Same plaintext and counter at two addresses must encrypt differently.
	e := NewTestEngine()
	pt := testBlock(2)
	if bytes.Equal(encrypt(e, 1, 5, pt), encrypt(e, 2, 5, pt)) {
		t.Fatal("pads collide across addresses")
	}
}

func TestTemporalUniqueness(t *testing.T) {
	// Same plaintext and address with two counters must encrypt differently.
	e := NewTestEngine()
	pt := testBlock(3)
	if bytes.Equal(encrypt(e, 9, 1, pt), encrypt(e, 9, 2, pt)) {
		t.Fatal("pads collide across counter values")
	}
}

func TestWrongCounterGarbles(t *testing.T) {
	e := NewTestEngine()
	pt := testBlock(4)
	ct := encrypt(e, 100, 10, pt)
	if bytes.Equal(encrypt(e, 100, 11, ct), pt) {
		t.Fatal("decryption with the wrong counter recovered plaintext")
	}
}

// TestXorInPlaceMatchesEncrypt applies the pad in place (dst and src
// alias, as the controller's decrypt does) and compares it with the
// out-of-place result; decrypting in place restores the plaintext.
func TestXorInPlaceMatchesEncrypt(t *testing.T) {
	e := NewTestEngine()
	pt := testBlock(5)
	want := encrypt(e, 77, 3, pt)
	buf := make([]byte, BlockBytes)
	copy(buf, pt)
	e.EncryptTo(buf, buf, 77, 3)
	if !bytes.Equal(buf, want) {
		t.Fatal("in-place EncryptTo disagrees with out-of-place")
	}
	e.EncryptTo(buf, buf, 77, 3)
	if !bytes.Equal(buf, pt) {
		t.Fatal("in-place decryption did not round-trip")
	}
}

func TestKeySeparation(t *testing.T) {
	var k1, k2 [16]byte
	var mk [32]byte
	k2[0] = 1
	e1 := NewEngine(k1, mk)
	e2 := NewEngine(k2, mk)
	pt := testBlock(6)
	if bytes.Equal(encrypt(e1, 0, 0, pt), encrypt(e2, 0, 0, pt)) {
		t.Fatal("different pad keys produced identical ciphertext")
	}
}

func TestDataMACDetectsTampering(t *testing.T) {
	e := NewTestEngine()
	data := testBlock(7)
	mac := e.DataMAC(5, 9, data)
	if e.DataMAC(5, 9, data) != mac {
		t.Fatal("DataMAC not deterministic")
	}
	if e.DataMAC(6, 9, data) == mac {
		t.Fatal("DataMAC ignores address")
	}
	if e.DataMAC(5, 10, data) == mac {
		t.Fatal("DataMAC ignores counter")
	}
	data[0] ^= 1
	if e.DataMAC(5, 9, data) == mac {
		t.Fatal("DataMAC ignores data")
	}
}

func TestDataMACKeyed(t *testing.T) {
	var ak [16]byte
	var mk1, mk2 [32]byte
	mk2[0] = 1
	data := testBlock(8)
	if NewEngine(ak, mk1).DataMAC(1, 1, data) == NewEngine(ak, mk2).DataMAC(1, 1, data) {
		t.Fatal("DataMAC independent of key")
	}
}

// TestTreeHashProperties checks ContentHash, the general Merkle tree's
// node hash: deterministic, sensitive to every content bit tried, and
// independent of the engine's keys, so default nodes are shared.
func TestTreeHashProperties(t *testing.T) {
	e := NewTestEngine()
	node := testBlock(9)
	h := e.ContentHash(node)
	if e.ContentHash(node) != h {
		t.Fatal("ContentHash not deterministic")
	}
	var ak [16]byte
	var mk [32]byte
	if NewEngine(ak, mk).ContentHash(node) != h {
		t.Fatal("ContentHash depends on the engine's keys")
	}
	for _, bit := range []int{0, 255, 511} {
		node[bit/8] ^= 1 << (bit % 8)
		if e.ContentHash(node) == h {
			t.Fatalf("ContentHash ignores content bit %d", bit)
		}
		node[bit/8] ^= 1 << (bit % 8)
	}
}

func TestSGXMACWidth(t *testing.T) {
	e := NewTestEngine()
	f := func(addr, c0, c1, pc uint64) bool {
		m := e.SGXMAC(addr, []uint64{c0, c1}, pc)
		return m>>SGXMACBits == 0
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestSGXMACBindsEverything(t *testing.T) {
	e := NewTestEngine()
	ctrs := []uint64{1, 2, 3, 4, 5, 6, 7, 8}
	m := e.SGXMAC(10, ctrs, 99)
	if e.SGXMAC(11, ctrs, 99) == m {
		t.Fatal("SGXMAC ignores node address")
	}
	if e.SGXMAC(10, ctrs, 100) == m {
		t.Fatal("SGXMAC ignores parent counter — inter-level binding broken")
	}
	ctrs[3]++
	if e.SGXMAC(10, ctrs, 99) == m {
		t.Fatal("SGXMAC ignores the node's own counters")
	}
}

func TestPanicsOnWrongSizes(t *testing.T) {
	e := NewTestEngine()
	short := make([]byte, 10)
	for name, fn := range map[string]func(){
		"DataMAC":     func() { e.DataMAC(0, 0, short) },
		"ContentHash": func() { e.ContentHash(short) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("%s: expected panic on short block", name)
				}
			}()
			fn()
		}()
	}
}

// refPad is the pad written out from mix: the address, then the
// counter, passes through a multiply keyed by the pad key's seed, and
// pad word w is wyrand's output step on the (w+1)-th state after that.
// The seed folds the key's two words the way NewEngine documents.
func refPad(padKey [16]byte, addr, counter uint64) [BlockBytes]byte {
	seed := mix(binary.LittleEndian.Uint64(padKey[0:])^mixK2, binary.LittleEndian.Uint64(padKey[8:])^mixK3)
	s := mix(mix(addr^seed, mixK1)^counter, mixK2^seed)
	var out [BlockBytes]byte
	for w := 0; w < BlockBytes/8; w++ {
		s += mixK0
		binary.LittleEndian.PutUint64(out[8*w:], mix(s, s^mixK1))
	}
	return out
}

// TestEncryptToMatchesReference pins EncryptTo, under NewTestEngine's
// pad key, to the reference keystream above XORed into the plaintext.
func TestEncryptToMatchesReference(t *testing.T) {
	e := NewTestEngine()
	var key [16]byte
	for i := range key {
		key[i] = byte(i + 1)
	}
	rng := rand.New(rand.NewSource(12))
	for i := 0; i < 256; i++ {
		addr, counter := rng.Uint64()>>uint(rng.Intn(64)), rng.Uint64()>>uint(rng.Intn(64))
		pt := testBlock(int64(i))
		want := refPad(key, addr, counter)
		for j := range want {
			want[j] ^= pt[j]
		}
		if got := encrypt(e, addr, counter, pt); !bytes.Equal(got, want[:]) {
			t.Fatalf("addr %#x counter %#x: EncryptTo disagrees with the reference keystream", addr, counter)
		}
	}
}

// TestPadAvalanche flips each bit of the address and of the counter in
// turn over 4,096 random inputs: every pad bit must flip with frequency
// 0.5 ± 0.05. Osiris candidate trials and the tamper tests rely on a
// neighbouring counter giving an unrelated pad.
func TestPadAvalanche(t *testing.T) {
	const inputs = 4096
	e := NewTestEngine()
	rng := rand.New(rand.NewSource(7))
	for flip := 0; flip < 128; flip++ {
		var counts [BlockBytes * 8]int
		for i := 0; i < inputs; i++ {
			addr, counter := rng.Uint64(), rng.Uint64()
			a2, c2 := addr, counter
			if flip < 64 {
				a2 ^= 1 << flip
			} else {
				c2 ^= 1 << (flip - 64)
			}
			p, q := pad(e, addr, counter), pad(e, a2, c2)
			for w := range p {
				for d := p[w] ^ q[w]; d != 0; d &= d - 1 {
					counts[w*64+bits.TrailingZeros64(d)]++
				}
			}
		}
		for bit, n := range counts {
			if f := float64(n) / inputs; f < 0.45 || f > 0.55 {
				what := fmt.Sprintf("address bit %d", flip)
				if flip >= 64 {
					what = fmt.Sprintf("counter bit %d", flip-64)
				}
				t.Fatalf("flipping %s flips pad bit %d with frequency %.3f, want 0.5 ± 0.05", what, bit, f)
			}
		}
	}
}

// TestPadKeySeparation: under two pad keys that differ in one bit, the
// pads of the same (address, counter) agree on each bit with frequency
// 0.5 ± 0.05 over 4,096 random inputs.
func TestPadKeySeparation(t *testing.T) {
	const inputs = 4096
	var k1, k2 [16]byte
	var mk [32]byte
	k2[15] = 0x80
	e1, e2 := NewEngine(k1, mk), NewEngine(k2, mk)
	rng := rand.New(rand.NewSource(8))
	var agree [BlockBytes * 8]int
	for i := 0; i < inputs; i++ {
		addr, counter := rng.Uint64()>>uint(rng.Intn(64)), rng.Uint64()>>uint(rng.Intn(64))
		p, q := pad(e1, addr, counter), pad(e2, addr, counter)
		for w := range p {
			for same := ^(p[w] ^ q[w]); same != 0; same &= same - 1 {
				agree[w*64+bits.TrailingZeros64(same)]++
			}
		}
	}
	for bit, n := range agree {
		if f := float64(n) / inputs; f < 0.45 || f > 0.55 {
			t.Fatalf("two pad keys agree on pad bit %d with frequency %.3f, want 0.5 ± 0.05", bit, f)
		}
	}
}

func TestEncryptToPanicsOnWrongSizes(t *testing.T) {
	e := NewTestEngine()
	short := make([]byte, 10)
	full := make([]byte, BlockBytes)
	for name, fn := range map[string]func(){
		"short dst": func() { e.EncryptTo(short, full, 0, 0) },
		"short src": func() { e.EncryptTo(full, short, 0, 0) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("%s: expected panic", name)
				}
			}()
			fn()
		}()
	}
}

// TestHotPathZeroAllocs asserts the per-block primitives are
// allocation-free: this is what keeps the parallel evaluation engine's
// cells from hammering the garbage collector.
func TestHotPathZeroAllocs(t *testing.T) {
	e := NewTestEngine()
	buf := testBlock(14)
	dst := make([]byte, BlockBytes)
	ctrs := make([]uint64, 8)
	var word uint64
	cases := map[string]func(){
		"pad/in place": func() { e.EncryptTo(buf, buf, 3, 9) },
		"EncryptTo":    func() { e.EncryptTo(dst, buf, 3, 9) },
		"Keystream":    func() { word ^= e.Keystream(3, 9).Word(2) },
		"DataMAC":      func() { e.DataMAC(3, 9, buf) },
		"ContentHash":  func() { e.ContentHash(buf) },
		"SGXMAC":       func() { e.SGXMAC(3, ctrs, 1) },
		"STMAC":        func() { e.STMAC(3, ctrs) },
	}
	for name, fn := range cases {
		if avg := testing.AllocsPerRun(500, fn); avg != 0 {
			t.Errorf("%s: %.3f allocs/op, want 0", name, avg)
		}
	}
}

// TestConcurrentEngineSharing exercises one Engine from many goroutines
// (the parallel evaluation pattern): every
// goroutine must see self-consistent results.
func TestConcurrentEngineSharing(t *testing.T) {
	e := NewTestEngine()
	pt := testBlock(15)
	wantCT := encrypt(e, 77, 13, pt)
	wantMAC := e.DataMAC(77, 13, pt)
	wantTH := e.ContentHash(pt)
	done := make(chan error, 8)
	for g := 0; g < 8; g++ {
		go func() {
			buf := make([]byte, BlockBytes)
			for i := 0; i < 2000; i++ {
				e.EncryptTo(buf, pt, 77, 13)
				if !bytes.Equal(buf, wantCT) {
					done <- fmt.Errorf("iter %d: ciphertext mismatch", i)
					return
				}
				if e.DataMAC(77, 13, pt) != wantMAC {
					done <- fmt.Errorf("iter %d: MAC mismatch", i)
					return
				}
				if e.ContentHash(pt) != wantTH {
					done <- fmt.Errorf("iter %d: tree hash mismatch", i)
					return
				}
			}
			done <- nil
		}()
	}
	for g := 0; g < 8; g++ {
		if err := <-done; err != nil {
			t.Fatal(err)
		}
	}
}

func BenchmarkEncryptBlock(b *testing.B) {
	e := NewTestEngine()
	pt := testBlock(10)
	b.SetBytes(BlockBytes)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		e.EncryptTo(pt, pt, uint64(i), uint64(i))
	}
}

// BenchmarkPad isolates OTP generation into a caller-provided buffer —
// the pure pad path (what overlaps the data fetch in hardware).
func BenchmarkPad(b *testing.B) {
	e := NewTestEngine()
	src := testBlock(10)
	dst := make([]byte, BlockBytes)
	b.SetBytes(BlockBytes)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		e.EncryptTo(dst, src, uint64(i), uint64(i))
	}
}

func BenchmarkDataMAC(b *testing.B) {
	e := NewTestEngine()
	data := testBlock(11)
	b.SetBytes(BlockBytes)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		e.DataMAC(uint64(i), 1, data)
	}
}

func BenchmarkContentHash(b *testing.B) {
	e := NewTestEngine()
	node := testBlock(13)
	b.SetBytes(BlockBytes)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		e.ContentHash(node)
	}
}

func BenchmarkSGXMAC(b *testing.B) {
	e := NewTestEngine()
	ctrs := make([]uint64, 8)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		e.SGXMAC(uint64(i), ctrs, 7)
	}
}

func BenchmarkSTMAC(b *testing.B) {
	e := NewTestEngine()
	ctrs := make([]uint64, 8)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		e.STMAC(uint64(i), ctrs)
	}
}

// BenchmarkDataMACParallel measures MAC throughput under the parallel
// evaluation pattern: many goroutines sharing one Engine.
func BenchmarkDataMACParallel(b *testing.B) {
	e := NewTestEngine()
	data := testBlock(14)
	b.SetBytes(BlockBytes)
	b.ReportAllocs()
	b.RunParallel(func(pb *testing.PB) {
		i := uint64(0)
		for pb.Next() {
			i++
			e.DataMAC(i, 1, data)
		}
	})
}
