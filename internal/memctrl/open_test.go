package memctrl

import (
	"encoding/binary"
	"math/rand"
	"testing"

	"anubis/internal/cryptoeng"
	"anubis/internal/ecc"
	"anubis/internal/nvm"
)

// openWhole is the reference for core.open: decrypt the whole block,
// then check every ECC word, then the data MAC.
func openWhole(eng *cryptoeng.Engine, pt, ct *[BlockBytes]byte, side *nvm.Sideband, idx, ctr uint64) string {
	eng.EncryptTo(pt[:], ct[:], idx, ctr)
	if ecc.EncodeBlock(pt[:]) != side.ECC {
		return "ECC"
	}
	if eng.DataMAC(idx, ctr, pt[:]) != side.MAC {
		return "MAC"
	}
	return ""
}

// FuzzOpen pins open, which decrypts and SECDED-checks one 8-byte word
// at a time and stops at the first failing word, to the verdict and failure
// name of decrypting the whole block first. A block is sealed under
// ctr, optionally has one bit of its ciphertext or sideband flipped,
// and is opened under ctr+delta; a block that opens must also decrypt
// to the same plaintext.
func FuzzOpen(f *testing.F) {
	const sideBits = 8*8 + 64 // ECC bytes, then the MAC
	for _, seed := range []struct {
		ctr   uint64
		delta uint8
		flip  uint16
	}{
		{7, 0, 0xffff},                      // genuine
		{7, 1, 0xffff},                      // wrong Osiris candidate
		{1 << 40, 3, 0xffff},                // wrong candidate, large counter
		{7, 0, 5},                           // ciphertext bit in word 0
		{7, 0, 7*64 + 6},                    // ciphertext bit in word 7
		{7, 0, BlockBytes*8 + 13},           // ECC bit
		{7, 0, BlockBytes*8 + 8*8 + 40},     // MAC bit
		{7, 2, BlockBytes*8 + sideBits - 1}, // wrong candidate and MAC bit
	} {
		f.Add([]byte("a plaintext block"), uint64(1234), seed.ctr, seed.delta, seed.flip)
	}
	c := newCore(TestConfig(SchemeOsiris), nil)
	f.Fuzz(func(t *testing.T, data []byte, idx, ctr uint64, delta uint8, flip uint16) {
		var pt [BlockBytes]byte
		copy(pt[:], data)
		var ct [BlockBytes]byte
		c.eng.EncryptTo(ct[:], pt[:], idx, ctr)
		side := nvm.Sideband{ECC: ecc.EncodeBlock(pt[:]), MAC: c.eng.DataMAC(idx, ctr, pt[:])}
		switch b := int(flip); {
		case b < BlockBytes*8:
			ct[b/8] ^= 1 << (b % 8)
		case b < BlockBytes*8+8*8:
			b -= BlockBytes * 8
			side.ECC[b/8] ^= 1 << (b % 8)
		case b < BlockBytes*8+sideBits:
			side.MAC ^= 1 << (b - BlockBytes*8 - 8*8)
		}
		cand := ctr + uint64(delta)
		var got, want [BlockBytes]byte
		g := c.open(&got, &ct, &side, idx, cand)
		w := openWhole(c.eng, &want, &ct, &side, idx, cand)
		if g != w {
			t.Fatalf("open = %q, whole-block reference = %q", g, w)
		}
		if g != "ECC" && got != want {
			t.Fatal("open decrypted a different plaintext than the reference")
		}
	})
}

// TestWrongCounterWordPassRate decrypts blocks under counter+k, for k
// in 1..StopLoss, the wrong candidates of an Osiris trial: a word of
// the result must pass its SECDED check at about the 2^-8 rate of a
// random word (within [2^-9, 2^-7] over 2^16 random (address,
// counter) pairs), and no whole block may open. The rate is what makes
// the first word of open decide almost every wrong candidate.
func TestWrongCounterWordPassRate(t *testing.T) {
	const pairs = 1 << 16
	c := newCore(TestConfig(SchemeOsiris), nil)
	rng := rand.New(rand.NewSource(3))
	var words, passed int
	for i := 0; i < pairs; i++ {
		idx, ctr := rng.Uint64()>>uint(rng.Intn(64)), rng.Uint64()>>uint(8+rng.Intn(56))
		var pt, ct, out [BlockBytes]byte
		rng.Read(pt[:])
		c.eng.EncryptTo(ct[:], pt[:], idx, ctr)
		side := nvm.Sideband{ECC: ecc.EncodeBlock(pt[:]), MAC: c.eng.DataMAC(idx, ctr, pt[:])}
		for k := uint64(1); k <= uint64(c.cfg.StopLoss); k++ {
			if c.open(&out, &ct, &side, idx, ctr+k) == "" {
				t.Fatalf("block %d sealed under counter %d opens under counter %d", idx, ctr, ctr+k)
			}
			c.eng.EncryptTo(out[:], ct[:], idx, ctr+k)
			for w := 0; w < ecc.WordsPerBlock; w++ {
				words++
				if ecc.Check(binary.LittleEndian.Uint64(out[w*ecc.WordBytes:]), side.ECC[w]) {
					passed++
				}
			}
		}
	}
	if rate := float64(passed) / float64(words); rate < 1.0/512 || rate > 1.0/128 {
		t.Fatalf("%d of %d words decrypted under a wrong counter pass SECDED (rate %.5f), want within [2^-9, 2^-7]", passed, words, rate)
	}
}

// BenchmarkOpen measures open, one Osiris candidate trial: "genuine"
// opens a block under its own counter (eight words, their SECDED
// checks and the MAC), "wrong" under a wrong counter, which almost
// always fails at the first word.
func BenchmarkOpen(b *testing.B) {
	c := newCore(TestConfig(SchemeOsiris), nil)
	const idx, ctr = 1234, 77
	var pt, ct [BlockBytes]byte
	copy(pt[:], "a plaintext block")
	c.eng.EncryptTo(ct[:], pt[:], idx, ctr)
	side := nvm.Sideband{ECC: ecc.EncodeBlock(pt[:]), MAC: c.eng.DataMAC(idx, ctr, pt[:])}
	b.Run("genuine", func(b *testing.B) {
		var out [BlockBytes]byte
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if c.open(&out, &ct, &side, idx, ctr) != "" {
				b.Fatal("genuine block did not open")
			}
		}
	})
	b.Run("wrong", func(b *testing.B) {
		var out [BlockBytes]byte
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if c.open(&out, &ct, &side, idx, ctr+1+uint64(i)) == "" {
				b.Fatal("wrong candidate opened")
			}
		}
	})
}
