package memctrl

import (
	"encoding/binary"
	"errors"
	"fmt"
	"strings"
	"testing"

	"anubis/internal/counter"
	"anubis/internal/ecc"
	"anubis/internal/nvm"
)

// forgeFlip flips plaintext bit 0 of a stored data block through its
// ciphertext and patches the clear ECC sideband to match. CTR mode and
// the (72,64) Hamming code are both linear, so the forgery passes ECC;
// only the data MAC can catch it.
func forgeFlip(dev *nvm.Device, phys uint64) {
	blk, side, _ := dev.ReadData(phys)
	ct := *blk
	ct[0] ^= 0x01
	side.ECC[0] ^= ecc.Encode(binary.LittleEndian.Uint64([]byte{0x01, 0, 0, 0, 0, 0, 0, 0}))
	dev.WriteRawData(phys, ct, side)
}

// TestPageOverflowRejectsForgedBlock: a page overflow re-encrypts every
// block of the page under the new major counter. It must verify each
// block's MAC first; sealing a forged block afresh would make the
// forgery read back as valid.
func TestPageOverflowRejectsForgedBlock(t *testing.T) {
	for _, s := range []Scheme{SchemeWriteBack, SchemeStrict, SchemeOsiris, SchemeAGITRead, SchemeAGITPlus, SchemeTriad, SchemeSelective} {
		t.Run(s.String(), func(t *testing.T) {
			b := newBonsai(t, s)
			var data [BlockBytes]byte
			data[0] = 0x40
			if err := b.WriteBlock(0, data); err != nil {
				t.Fatal(err)
			}
			forgeFlip(b.Device(), b.wl.phys(0))
			var ie *IntegrityError
			if _, err := b.ReadBlock(0); !errors.As(err, &ie) || ie.What != "data MAC mismatch" {
				t.Fatalf("read of the forged block: %v, want a data MAC mismatch", err)
			}
			// Lane 1 of the same page overflows its minor counter on the
			// 128th write.
			var err error
			for i := 0; i <= counter.MinorMax && err == nil; i++ {
				err = b.WriteBlock(1, pattern(uint64(i)))
			}
			if !errors.As(err, &ie) || ie.What != "page re-encryption MAC mismatch" || ie.Addr != 0 {
				t.Fatalf("overflow write over a forged block: %v, want a page re-encryption MAC mismatch at 0", err)
			}
			if got, err := b.ReadBlock(0); err == nil {
				t.Fatalf("forged block reads back %#x with no error after the overflow", got[0])
			}
		})
	}
}

// TestSGXFlushReportsCorruptTree: a flush whose writeback meets a
// corrupted parent node returns the integrity error, and an audit
// (which flushes first) fails with it.
func TestSGXFlushReportsCorruptTree(t *testing.T) {
	for _, s := range []Scheme{SchemeWriteBack, SchemeOsiris, SchemeASIT} {
		t.Run(s.String(), func(t *testing.T) {
			c := newSGX(t, s)
			for i := uint64(0); i < 300; i++ {
				if err := c.WriteBlock(i*7%c.NumBlocks(), pattern(i)); err != nil {
					t.Fatal(err)
				}
			}
			if err := c.FlushCaches(); err != nil {
				t.Fatal(err)
			}
			// Dirty one leaf, then corrupt its parent in NVM and drop the
			// parent's clean cached copy, so the flush has to refetch it.
			const idx = 7 * 42
			if err := c.WriteBlock(idx, pattern(1)); err != nil {
				t.Fatal(err)
			}
			parent, _, isRoot := c.parentOf(metaRef{isLeaf: true, idx: idx / counter.SGXCounters})
			if isRoot {
				t.Fatal("test geometry has no tree level below the root")
			}
			region, flat := c.regionIdx(parent)
			c.mCache.Invalidate(c.keyOf(parent))
			if !c.Device().CorruptBlock(region, flat, 9, 0x04) {
				t.Fatal("parent node never reached NVM")
			}
			fork := c.Clone()
			var ie *IntegrityError
			if err := c.FlushCaches(); !errors.As(err, &ie) {
				t.Fatalf("flush over a corrupted parent: %v, want an IntegrityError", err)
			}
			if _, err := fork.AuditNVM(); !errors.As(err, &ie) {
				t.Fatalf("audit over a corrupted parent: %v, want an IntegrityError", err)
			}
		})
	}
}

// TestAuditReportsStrayBlocks: a counter- or tree-region block outside
// the geometry was written by no controller, so the image is damaged.
// The audit reports it as a violation, in both families.
func TestAuditReportsStrayBlocks(t *testing.T) {
	for _, v := range Variants {
		for _, region := range []nvm.Region{nvm.RegionCounter, nvm.RegionTree} {
			t.Run(v.Name+"/"+region.String(), func(t *testing.T) {
				ctrl, err := New(v.Family, TestConfig(v.Scheme))
				if err != nil {
					t.Fatal(err)
				}
				for i := uint64(0); i < 20; i++ {
					if err := ctrl.WriteBlock(i*11, pattern(i)); err != nil {
						t.Fatal(err)
					}
				}
				const stray = 1 << 16 // beyond every region of a 1 MiB memory
				ctrl.Device().WriteRaw(region, stray, pattern(7))
				rep, err := ctrl.AuditNVM()
				if err != nil {
					t.Fatal(err)
				}
				found := false
				for _, v := range rep.Violations {
					found = found || strings.Contains(v, "outside the geometry")
				}
				if !found {
					t.Fatalf("stray %v block not reported: %v", region, rep.Violations)
				}
			})
		}
	}
}

// TestSGXAuditReportsLostMetadata: a counter or tree block erased after
// its write-back leaves a non-zero counter in its parent, and the data
// below it no longer reads back. The audit must report the lost block
// instead of skipping it as never written.
func TestSGXAuditReportsLostMetadata(t *testing.T) {
	for _, s := range []Scheme{SchemeWriteBack, SchemeStrict, SchemeOsiris, SchemeASIT} {
		for _, region := range []nvm.Region{nvm.RegionCounter, nvm.RegionTree} {
			t.Run(s.String()+"/"+region.String(), func(t *testing.T) {
				c := newSGX(t, s)
				for i := uint64(0); i < 300; i++ {
					if err := c.WriteBlock(i*7%c.NumBlocks(), pattern(i)); err != nil {
						t.Fatal(err)
					}
				}
				if err := c.FlushCaches(); err != nil {
					t.Fatal(err)
				}
				const idx = 7 * 42
				lost := metaRef{isLeaf: true, idx: idx / counter.SGXCounters}
				if region == nvm.RegionTree {
					lost, _, _ = c.parentOf(lost)
				}
				lr, li := c.regionIdx(lost)
				if !c.Device().Has(lr, li) {
					t.Fatalf("%v block %d never reached NVM", lr, li)
				}
				c.Device().Erase(lr, li)
				if _, err := c.ReadBlock(idx); err == nil {
					t.Fatal("block under the erased metadata reads back")
				}
				rep, err := c.AuditNVM()
				if err != nil {
					t.Fatal(err)
				}
				want := fmt.Sprintf("metadata block %#x missing", c.addrOf(lost))
				found := false
				for _, v := range rep.Violations {
					found = found || strings.HasPrefix(v, want)
				}
				if !found {
					t.Fatalf("audit of an image missing %v block %d: %v", lr, li, rep.Violations)
				}
			})
		}
	}
}
