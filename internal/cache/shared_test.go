package cache

import (
	"slices"
	"sync"
	"testing"
)

// TestSharedCloneThreeHolders walks the holder-count protocol through
// three holders of one slice: the first writer copies, a Drop lets go,
// the last holder takes the slice over, and Fill and Reset allocate
// only when the slice was let go.
func TestSharedCloneThreeHolders(t *testing.T) {
	var a Shared[int]
	for i := range a.Reset(4) {
		a.Own()[i] = i + 1
	}
	want := []int{1, 2, 3, 4}
	arr := &a.Get()[0]
	b := a.Clone()
	c := b.Clone()
	if a.holders == nil || a.holders != b.holders || b.holders != c.holders || a.holders.Load() != 3 {
		t.Fatal("Clone did not share one holder count among three holders")
	}
	if &b.Get()[0] != arr || &c.Get()[0] != arr {
		t.Fatal("Clone copied the slice")
	}

	// Own: the first writer copies and lets go.
	b.Own()[0] = 10
	if &b.Get()[0] == arr || b.holders != nil || a.holders.Load() != 2 {
		t.Fatal("the first writer did not copy and let go")
	}
	if !slices.Equal(a.Get(), want) || !slices.Equal(c.Get(), want) || !slices.Equal(b.Get(), []int{10, 2, 3, 4}) {
		t.Fatalf("a write reached a partner: a=%v b=%v c=%v", a.Get(), b.Get(), c.Get())
	}

	// Drop: a shared holder lets go without clearing.
	a.Drop()
	if a.Get() != nil || a.holders != nil || c.holders.Load() != 1 || !slices.Equal(c.Get(), want) {
		t.Fatal("a shared Drop did not let go, or cleared the partners' slice")
	}

	// Own: the last holder takes the slice over without copying.
	if s := c.Own(); &s[0] != arr || c.holders != nil {
		t.Fatal("the last holder copied instead of taking the slice over")
	}

	// Fill: a dropped holder allocates n zeros; a holder alone keeps
	// its slice and contents.
	if s := a.Fill(4); len(s) != 4 || &s[0] == arr || !slices.Equal(s, make([]int, 4)) {
		t.Fatalf("Fill after a shared Drop = %v", s)
	}
	if s := c.Fill(4); &s[0] != arr || !slices.Equal(s, want) {
		t.Fatal("Fill on a holder alone reallocated or changed its slice")
	}

	// Drop and Reset on a holder alone clear in place.
	c.Drop()
	if &c.Get()[0] != arr || !slices.Equal(c.Get(), make([]int, 4)) {
		t.Fatal("an unshared Drop did not clear in place")
	}
	c.Own()[1] = 5
	if s := c.Reset(4); &s[0] != arr || !slices.Equal(s, make([]int, 4)) {
		t.Fatal("Reset on a holder alone did not clear in place")
	}

	// Reset on a shared holder lets go and allocates, leaving the
	// partner's slice as it was.
	c.Own()[2] = 7
	d := c.Clone()
	if s := d.Reset(4); &s[0] == arr || !slices.Equal(s, make([]int, 4)) || d.holders != nil {
		t.Fatal("Reset on a shared holder did not let go and allocate")
	}
	if c.holders.Load() != 1 || !slices.Equal(c.Get(), []int{0, 0, 7, 0}) {
		t.Fatalf("Reset on a clone changed its partner: %v", c.Get())
	}
}

// TestSharedCloneConcurrentWriters runs one writer on each of three
// holders of one slice, each on its own goroutine (run it under -race).
// Each writer clones and drops, drops and refills, and overwrites its
// slice, and must only ever read back its own writes.
func TestSharedCloneConcurrentWriters(t *testing.T) {
	const n = 64
	var base Shared[uint64]
	for i := range base.Reset(n) {
		base.Own()[i] = 1
	}
	b, c := base.Clone(), base.Clone()
	var wg sync.WaitGroup
	for w, h := range []*Shared[uint64]{&base, &b, &c} {
		wg.Add(1)
		go func() {
			defer wg.Done()
			last := uint64(1)
			for round := uint64(0); round < 500; round++ {
				for i, v := range h.Get() {
					if v != last {
						t.Errorf("writer %d round %d: slot %d reads %d, want %d", w, round, i, v, last)
						return
					}
				}
				switch round % 7 {
				case 3:
					tmp := h.Clone()
					tmp.Drop()
				case 5:
					h.Drop()
					h.Fill(n)
					last = 0
					continue
				}
				last = uint64(w)<<32 | round
				s := h.Own()
				for i := range s {
					s[i] = last
				}
			}
		}()
	}
	wg.Wait()
}
