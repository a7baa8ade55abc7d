package memctrl

import (
	"testing"

	"anubis/internal/cryptoeng"
	"anubis/internal/ecc"
	"anubis/internal/nvm"
)

// openWhole is the reference for core.open: decrypt the whole block,
// then check every ECC word, then the data MAC.
func openWhole(eng *cryptoeng.Engine, pt, ct *[BlockBytes]byte, side *nvm.Sideband, idx, ctr uint64) string {
	var p cryptoeng.Pad
	eng.EncryptTo(&p, pt[:], ct[:], idx, ctr)
	if ecc.EncodeBlock(pt[:]) != side.ECC {
		return "ECC"
	}
	if eng.DataMAC(idx, ctr, pt[:]) != side.MAC {
		return "MAC"
	}
	return ""
}

// FuzzOpen pins open, which decrypts and ECC-checks one AES block at a
// time and stops at the first failing word, to the verdict and failure
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
		{7, 0, 5},                           // ciphertext bit in AES block 0
		{7, 0, 3*128 + 70},                  // ciphertext bit in AES block 3
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
		c.eng.EncryptTo(&c.pad, ct[:], pt[:], idx, ctr)
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
