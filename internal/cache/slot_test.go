package cache

import "testing"

func TestInsertAtSlotBasic(t *testing.T) {
	c := New(16, 4)
	// Determine the set of a key, then place it into a specific way.
	set := c.setOf(77)
	slot := set*c.Ways() + 2
	// A previous residency's unpersisted count must not carry over.
	c.InsertAtSlot(slot, 77, blockOf(1)).Unpersisted = 5
	c.Invalidate(77)
	l := c.InsertAtSlot(slot, 77, blockOf(9))
	if l.Slot() != slot {
		t.Fatalf("slot = %d, want %d", l.Slot(), slot)
	}
	if l.Unpersisted != 0 {
		t.Fatalf("unpersisted count %d carried into the new residency", l.Unpersisted)
	}
	got, ok := c.Lookup(77)
	if !ok || got.Data != blockOf(9) {
		t.Fatal("lookup after InsertAtSlot failed")
	}
}

func TestInsertAtSlotPanics(t *testing.T) {
	c := New(16, 4)
	set := c.setOf(77)
	slot := set*c.Ways() + 1

	// Occupied slot.
	c.InsertAtSlot(slot, 77, blockOf(1))
	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("occupied slot accepted")
			}
		}()
		// Key 77+16*k maps to a different set in general; use a key of
		// the same set by probing.
		var other uint64
		for k := uint64(0); ; k++ {
			if k != 77 && c.setOf(k) == set {
				other = k
				break
			}
		}
		c.InsertAtSlot(slot, other, blockOf(2))
	}()

	// Resident key.
	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("resident key accepted")
			}
		}()
		c.InsertAtSlot(slot+1, 77, blockOf(3))
	}()

	// Set mismatch.
	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("set mismatch accepted")
			}
		}()
		var wrong uint64
		for k := uint64(0); ; k++ {
			if c.setOf(k) != set {
				wrong = k
				break
			}
		}
		c.InsertAtSlot(slot+2, wrong, blockOf(4))
	}()

	// Out of range.
	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("out-of-range slot accepted")
			}
		}()
		c.InsertAtSlot(999, 5, blockOf(5))
	}()
}

func TestInsertAtSlotIsEvictableLater(t *testing.T) {
	c := New(4, 4) // single set
	for k := uint64(0); k < 4; k++ {
		c.InsertAtSlot(int(k), k, blockOf(byte(k)))
	}
	// Normal insert must evict the LRU of those.
	_, v := c.Insert(99, blockOf(9))
	if v == nil {
		t.Fatal("no eviction from full set")
	}
	if v.Key != 0 {
		t.Fatalf("victim = %d, want 0 (oldest)", v.Key)
	}
}
