package cryptoeng

import (
	"bytes"
	"crypto/aes"
	"encoding/binary"
	"fmt"
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
	var p Pad
	dst := make([]byte, BlockBytes)
	e.EncryptTo(&p, dst, src, addr, counter)
	return dst
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
	var p Pad
	buf := make([]byte, BlockBytes)
	copy(buf, pt)
	e.EncryptTo(&p, buf, buf, 77, 3)
	if !bytes.Equal(buf, want) {
		t.Fatal("in-place EncryptTo disagrees with out-of-place")
	}
	e.EncryptTo(&p, buf, buf, 77, 3)
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
		t.Fatal("different AES keys produced identical ciphertext")
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

// TestEncryptToMatchesEncrypt pins EncryptTo to counter mode built
// directly on AES-128 under NewTestEngine's key: AES block i of the pad
// encrypts the IV (address, counter<<2 | i).
func TestEncryptToMatchesEncrypt(t *testing.T) {
	e := NewTestEngine()
	var key [16]byte
	for i := range key {
		key[i] = byte(i + 1)
	}
	blk, err := aes.NewCipher(key[:])
	if err != nil {
		t.Fatal(err)
	}
	const addr, counter = 31, 12
	pt := testBlock(13)
	want := make([]byte, BlockBytes)
	var iv [aes.BlockSize]byte
	binary.LittleEndian.PutUint64(iv[0:8], addr)
	for i := 0; i < BlockBytes/aes.BlockSize; i++ {
		binary.LittleEndian.PutUint64(iv[8:16], counter<<2|uint64(i))
		blk.Encrypt(want[i*aes.BlockSize:], iv[:])
	}
	for i := range want {
		want[i] ^= pt[i]
	}
	if got := encrypt(e, addr, counter, pt); !bytes.Equal(got, want) {
		t.Fatal("EncryptTo disagrees with the counter-mode reference")
	}
}

func TestEncryptToPanicsOnWrongSizes(t *testing.T) {
	e := NewTestEngine()
	short := make([]byte, 10)
	full := make([]byte, BlockBytes)
	for name, fn := range map[string]func(){
		"short dst": func() { e.EncryptTo(new(Pad), short, full, 0, 0) },
		"short src": func() { e.EncryptTo(new(Pad), full, short, 0, 0) },
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
	p := new(Pad)
	buf := testBlock(14)
	dst := make([]byte, BlockBytes)
	blk := (*[BlockBytes]byte)(buf)
	ctrs := make([]uint64, 8)
	cases := map[string]func(){
		"pad/in place": func() { e.EncryptTo(p, buf, buf, 3, 9) },
		"EncryptTo":    func() { e.EncryptTo(p, dst, buf, 3, 9) },
		"XORPad":       func() { e.XORPad(p, blk, blk, 3, 9, 2) },
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
// (the parallel evaluation pattern), each with its own Pad: every
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
			var p Pad
			buf := make([]byte, BlockBytes)
			for i := 0; i < 2000; i++ {
				e.EncryptTo(&p, buf, pt, 77, 13)
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
	p := new(Pad)
	b.SetBytes(BlockBytes)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		e.EncryptTo(p, pt, pt, uint64(i), uint64(i))
	}
}

// BenchmarkPad isolates OTP generation into a caller-provided buffer —
// the pure pad path (what overlaps the data fetch in hardware).
func BenchmarkPad(b *testing.B) {
	e := NewTestEngine()
	src := testBlock(10)
	dst := make([]byte, BlockBytes)
	p := new(Pad)
	b.SetBytes(BlockBytes)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		e.EncryptTo(p, dst, src, uint64(i), uint64(i))
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
