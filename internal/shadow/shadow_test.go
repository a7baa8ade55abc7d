package shadow

import (
	"bytes"
	"encoding/binary"
	"math/rand"
	"slices"
	"sync"
	"testing"
	"testing/quick"
)

func TestAddrTableSetGet(t *testing.T) {
	tab := NewAddrTable(32)
	if _, ok := tab.Get(5); ok {
		t.Fatal("empty slot reported live")
	}
	tab.Set(5, 1234)
	k, ok := tab.Get(5)
	if !ok || k != 1234 {
		t.Fatalf("Get = (%d,%v), want (1234,true)", k, ok)
	}
	// Key zero must be representable (distinct from empty).
	tab.Set(6, 0)
	k, ok = tab.Get(6)
	if !ok || k != 0 {
		t.Fatal("key 0 not representable")
	}
}

func TestAddrTableBlockMapping(t *testing.T) {
	tab := NewAddrTable(32)
	bi, _ := tab.Set(0, 1)
	if bi != 0 {
		t.Fatalf("slot 0 -> block %d, want 0", bi)
	}
	bi, _ = tab.Set(7, 1)
	if bi != 0 {
		t.Fatalf("slot 7 -> block %d, want 0", bi)
	}
	bi, _ = tab.Set(8, 1)
	if bi != 1 {
		t.Fatalf("slot 8 -> block %d, want 1", bi)
	}
	if tab.NumBlocks() != 4 {
		t.Fatalf("NumBlocks = %d, want 4", tab.NumBlocks())
	}
}

func TestAddrTableRestore(t *testing.T) {
	tab := NewAddrTable(20)
	store := map[uint64][BlockBytes]byte{}
	for slot, key := range map[int]uint64{0: 7, 9: 0, 19: 1 << 40} {
		bi, blk := tab.Set(slot, key)
		store[bi] = blk
	}
	// Restore runs in place over a mirror holding stale state: every
	// slot must come from NVM, including the ones NVM holds empty.
	got := NewAddrTable(20)
	got.Set(3, 11)
	got.Restore(func(bi uint64) [BlockBytes]byte { return store[bi] })
	want := map[int]uint64{0: 7, 9: 0, 19: 1 << 40}
	for slot := 0; slot < got.NumSlots(); slot++ {
		key, ok := got.Get(slot)
		wantKey, wantOK := want[slot]
		if ok != wantOK || key != wantKey {
			t.Fatalf("slot %d restored (%d, %v), want (%d, %v)", slot, key, ok, wantKey, wantOK)
		}
	}
}

func TestAddrTablePanicsOnZeroSlots(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	NewAddrTable(0)
}

func TestSTEntryPackUnpackRoundTrip(t *testing.T) {
	f := func(key, mac uint64, seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		e := STEntry{Valid: true, Key: key &^ (1 << 63), MAC: mac & STMACMask}
		for i := range e.LSBs {
			e.LSBs[i] = rng.Uint64() & STLSBMask
		}
		return UnpackSTEntry(e.Pack()) == e
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestSTEntryInvalidIsZeroBlock(t *testing.T) {
	var e STEntry
	if e.Pack() != ([BlockBytes]byte{}) {
		t.Fatal("invalid entry packs to nonzero block")
	}
	if UnpackSTEntry([BlockBytes]byte{}).Valid {
		t.Fatal("zero block parses as valid")
	}
}

func TestSTEntryExactFit(t *testing.T) {
	// 8 + 7 + 49 = 64 bytes: a saturated entry must fill the block with
	// no byte left over and no overflow panic.
	e := STEntry{Valid: true, Key: ^uint64(0) - 1, MAC: STMACMask}
	for i := range e.LSBs {
		e.LSBs[i] = STLSBMask
	}
	b := e.Pack()
	// Bits 120..511 all set: bytes 15..63 are 0xff.
	for i := 15; i < 64; i++ {
		if b[i] != 0xff {
			t.Fatalf("byte %d = %#x, want 0xff", i, b[i])
		}
	}
	if UnpackSTEntry(b) != e {
		t.Fatal("saturated entry does not round trip")
	}
}

func TestSTTableSetClearGet(t *testing.T) {
	tab := NewSTTable(8)
	e := STEntry{Key: 42, MAC: 0x1234}
	e.LSBs[3] = 77
	bi, blk := tab.Set(2, e)
	if bi != 2 {
		t.Fatalf("block idx = %d, want slot 2", bi)
	}
	got := UnpackSTEntry(blk)
	if !got.Valid || got.Key != 42 || got.LSBs[3] != 77 {
		t.Fatalf("packed entry wrong: %+v", got)
	}
	stored, ok := tab.Get(2)
	if !ok || stored.Key != 42 {
		t.Fatal("Get after Set failed")
	}
	tab.Drop()
	if tab.Block(2) != ([BlockBytes]byte{}) {
		t.Fatal("dropped slot's block not zero")
	}
	if _, ok := tab.Get(2); ok {
		t.Fatal("dropped slot still valid")
	}
}

func TestSTTableRestore(t *testing.T) {
	tab := NewSTTable(6)
	store := map[uint64][BlockBytes]byte{}
	e1 := STEntry{Key: 5, MAC: 9}
	e1.LSBs[0] = 1
	bi, blk := tab.Set(1, e1)
	store[bi] = blk
	e2 := STEntry{Key: 0, MAC: STMACMask}
	bi, blk = tab.Set(4, e2)
	store[bi] = blk

	// Restore runs in place over a mirror holding stale state: every
	// slot must come from NVM, including the ones NVM holds empty.
	got := NewSTTable(6)
	got.Set(2, STEntry{Key: 7})
	got.Restore(func(bi uint64) [BlockBytes]byte { return store[bi] })
	for slot := 0; slot < got.NumSlots(); slot++ {
		if _, ok := got.Get(slot); ok != (slot == 1 || slot == 4) {
			t.Fatalf("restored slot %d valid = %v", slot, ok)
		}
	}
	r1, _ := got.Get(1)
	if r1.MAC != 9 || r1.LSBs[0] != 1 {
		t.Fatalf("entry 1 = %+v", r1)
	}
	r2, _ := got.Get(4)
	if r2.Key != 0 || r2.MAC != STMACMask {
		t.Fatalf("entry 4 = %+v", r2)
	}
}

// TestSTTableRestoreKeepsBlocks: the mirror keeps each restored entry
// as the block NVM holds, which is what the protection tree hashes, so
// that block must be exactly the Pack of the entry Get returns: any
// block with a non-zero key word, and the zero block for one without.
func TestSTTableRestoreKeepsBlocks(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	const n = 64
	store := make([][BlockBytes]byte, n)
	for i := range store {
		rng.Read(store[i][:])
		if i%4 == 0 {
			binary.LittleEndian.PutUint64(store[i][:8], 0) // empty slot, garbage beyond the key
		}
	}
	tab := NewSTTable(n)
	if live := tab.Restore(func(bi uint64) [BlockBytes]byte { return store[bi] }); live != n-n/4 {
		t.Fatalf("Restore counted %d live entries, want %d", live, n-n/4)
	}
	for i := range store {
		e, ok := tab.Get(i)
		want := store[i]
		if i%4 == 0 {
			want = [BlockBytes]byte{}
		}
		if tab.Block(i) != want || e.Pack() != want || ok != (i%4 != 0) {
			t.Fatalf("slot %d: block, entry and NVM disagree", i)
		}
	}
}

func TestSTTableBlockReflectsState(t *testing.T) {
	tab := NewSTTable(4)
	if tab.Block(0) != ([BlockBytes]byte{}) {
		t.Fatal("fresh block not zero")
	}
	tab.Set(0, STEntry{Key: 3})
	if UnpackSTEntry(tab.Block(0)).Key != 3 {
		t.Fatal("Block does not reflect Set")
	}
}

func TestSTTablePanicsOnZeroSlots(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	NewSTTable(0)
}

func TestSTMaskWidths(t *testing.T) {
	// LSB splice compatibility with the counter package: 49-bit fields.
	if STLSBBits != 49 || STLSBMask != 1<<49-1 {
		t.Fatal("ST LSB field width diverged from the paper's 49 bits")
	}
}

// Sinks keep each benchmarked result live, so the compiler cannot
// delete a codec call whose value is never used.
var (
	sinkBlock [BlockBytes]byte
	sinkEntry STEntry
)

func benchEntry() STEntry {
	e := STEntry{Valid: true, Key: 123, MAC: 456}
	for i := range e.LSBs {
		e.LSBs[i] = uint64(i) * 999983
	}
	return e
}

func BenchmarkSTEntryPack(b *testing.B) {
	e := benchEntry()
	for i := 0; i < b.N; i++ {
		sinkBlock = e.Pack()
	}
}

func BenchmarkUnpackSTEntry(b *testing.B) {
	packed := benchEntry().Pack()
	for i := 0; i < b.N; i++ {
		sinkEntry = UnpackSTEntry(packed)
	}
}

func BenchmarkAddrTableSet(b *testing.B) {
	tab := NewAddrTable(4096)
	for i := 0; i < b.N; i++ {
		tab.Set(i&4095, uint64(i))
	}
}

// --- reference codec --------------------------------------------------------

// The reference ST codec is the field-at-a-time one the word-parallel
// codec replaced: one masked word read-modify-write per field. The new
// codec must produce the same bytes and fields on every input.

// putBitsRef writes the low `width` (≤ 57) bits of v at bit offset off
// as one masked 64-bit read-modify-write, or byte by byte when fewer
// than 8 bytes remain.
func putBitsRef(buf []byte, off, width int, v uint64) {
	i, shift := off>>3, uint(off&7)
	mask := uint64(1)<<uint(width) - 1
	v &= mask
	if i+8 <= len(buf) {
		w := binary.LittleEndian.Uint64(buf[i:])
		binary.LittleEndian.PutUint64(buf[i:], w&^(mask<<shift)|v<<shift)
		return
	}
	var w uint64
	n := len(buf) - i
	for j := 0; j < n; j++ {
		w |= uint64(buf[i+j]) << uint(8*j)
	}
	w = w&^(mask<<shift) | v<<shift
	for j := 0; j < n; j++ {
		buf[i+j] = byte(w >> uint(8*j))
	}
}

// getBitsRef reads `width` (≤ 57) bits at bit offset off with one word
// load; see putBitsRef.
func getBitsRef(buf []byte, off, width int) uint64 {
	i, shift := off>>3, uint(off&7)
	var w uint64
	if i+8 <= len(buf) {
		w = binary.LittleEndian.Uint64(buf[i:])
	} else {
		for j := i; j < len(buf); j++ {
			w |= uint64(buf[j]) << uint(8*(j-i))
		}
	}
	return w >> shift & (uint64(1)<<uint(width) - 1)
}

func packSTRef(e STEntry) [BlockBytes]byte {
	var b [BlockBytes]byte
	if !e.Valid {
		return b
	}
	binary.LittleEndian.PutUint64(b[0:8], e.Key+1)
	for i := 0; i < 7; i++ {
		b[8+i] = byte(e.MAC >> uint(8*i))
	}
	off := 120
	for i := 0; i < STCounters; i++ {
		putBitsRef(b[:], off, STLSBBits, e.LSBs[i]&STLSBMask)
		off += STLSBBits
	}
	return b
}

func unpackSTRef(b [BlockBytes]byte) STEntry {
	var e STEntry
	raw := binary.LittleEndian.Uint64(b[0:8])
	if raw == 0 {
		return e
	}
	e.Valid = true
	e.Key = raw - 1
	for i := 0; i < 7; i++ {
		e.MAC |= uint64(b[8+i]) << uint(8*i)
	}
	off := 120
	for i := 0; i < STCounters; i++ {
		e.LSBs[i] = getBitsRef(b[:], off, STLSBBits)
		off += STLSBBits
	}
	return e
}

// FuzzSTEntryCodec pins the ST codec to its reference: any 64 bytes
// unpack to the same entry (a zero key word is an empty slot whatever
// the other bytes hold), and entries with out-of-range MAC and LSBs
// pack to the same bytes (Pack masks each field to its width).
func FuzzSTEntryCodec(f *testing.F) {
	f.Add([]byte{}, uint64(0), uint64(0), true)
	f.Add(bytes.Repeat([]byte{0xff}, BlockBytes), ^uint64(0), ^uint64(0), true)
	f.Add(append(make([]byte, 8), 0xde, 0xad, 0xbe, 0xef), uint64(7), uint64(1)<<56, false)
	f.Fuzz(func(t *testing.T, raw []byte, key, mac uint64, valid bool) {
		var b [BlockBytes]byte
		copy(b[:], raw)
		if got, want := UnpackSTEntry(b), unpackSTRef(b); got != want {
			t.Fatalf("UnpackSTEntry(%x) = %+v, want %+v", b, got, want)
		}
		empty := b
		clear(empty[:8])
		if got := UnpackSTEntry(empty); got != (STEntry{}) {
			t.Fatalf("UnpackSTEntry(%x) = %+v, want the empty entry", empty, got)
		}

		e := STEntry{Valid: valid, Key: key, MAC: mac}
		for i := range e.LSBs {
			e.LSBs[i] = binary.LittleEndian.Uint64(b[i*8:])
		}
		if got, want := e.Pack(), packSTRef(e); got != want {
			t.Fatalf("%+v.Pack() = %x, want %x", e, got, want)
		}
	})
}

// TestCloneConcurrentWriters drives a pair of mirrors (an ST with its
// protection tree, and an address table) and two clones of each from
// three goroutines, all writing, and each crashing and restoring once
// midway (run it under -race). Each side must end as a mirror driven
// by the same calls on its own does.
func TestCloneConcurrentWriters(t *testing.T) {
	type side struct {
		st *STTable
		at *AddrTable
	}
	drive := func(s side, seed int64) {
		rng := rand.New(rand.NewSource(seed))
		nodes := int(s.st.Tree().TotalNodes())
		for i := 0; i < 2000; i++ {
			s.st.Set(rng.Intn(s.st.NumSlots()), STEntry{Key: uint64(i), MAC: uint64(seed)})
			s.st.Node(uint64(rng.Intn(nodes))).SetHash(rng.Intn(8), uint64(i))
			s.at.Set(rng.Intn(s.at.NumSlots()), uint64(i)^uint64(seed))
			if i == 1500 {
				s.st.Drop()
				s.at.Drop()
				var e STEntry
				e.Key = uint64(seed)
				s.st.Restore(func(bi uint64) [BlockBytes]byte {
					if bi%3 == 0 {
						return e.Pack()
					}
					return [BlockBytes]byte{}
				})
				s.at.Restore(func(bi uint64) (b [BlockBytes]byte) {
					b[0] = byte(bi)
					return b
				})
			}
		}
	}
	view := func(s side) []uint64 {
		var v []uint64
		for slot := 0; slot < s.st.NumSlots(); slot++ {
			e, ok := s.st.Get(slot)
			if ok {
				v = append(v, uint64(slot), e.Key, e.MAC)
			}
		}
		for flat := uint64(0); flat < s.st.Tree().TotalNodes(); flat++ {
			n := s.st.Node(flat)
			for k := 0; k < 8; k++ {
				v = append(v, n.Hash(k))
			}
		}
		for slot := 0; slot < s.at.NumSlots(); slot++ {
			key, ok := s.at.Get(slot)
			if ok {
				v = append(v, uint64(slot), key)
			}
		}
		return v
	}
	fresh := func() side { return side{NewSTTable(200), NewAddrTable(100)} }
	for round := int64(0); round < 3; round++ {
		base := fresh()
		drive(base, 100+round)
		sides := []side{base, {base.st.Clone(), base.at.Clone()}, {base.st.Clone(), base.at.Clone()}}
		sides = append(sides, side{sides[1].st.Clone(), sides[1].at.Clone()})
		want := make([][]uint64, len(sides))
		for i := range sides {
			ref := fresh()
			drive(ref, 100+round)
			drive(ref, round*10+int64(i))
			want[i] = view(ref)
		}
		var wg sync.WaitGroup
		for i, s := range sides {
			wg.Add(1)
			go func(i int, s side) {
				defer wg.Done()
				drive(s, round*10+int64(i))
			}(i, s)
		}
		wg.Wait()
		for i, s := range sides {
			if got := view(s); !slices.Equal(got, want[i]) {
				t.Fatalf("round %d side %d diverged from a mirror driven alone", round, i)
			}
		}
	}
}
