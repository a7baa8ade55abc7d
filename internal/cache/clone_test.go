package cache

import (
	"math/rand"
	"reflect"
	"sync"
	"testing"
)

// view is the observable state of a cache: its valid lines (with LRU
// stamps, pins and slots), its clock and its statistics.
type view struct {
	lines []Line
	tick  uint64
	stats Stats
}

func viewOf(c *Cache) view {
	v := view{tick: c.tick, stats: c.stats}
	for _, l := range c.lines {
		if l.Valid {
			v.lines = append(v.lines, l)
		}
	}
	return v
}

// eager is the copy Clone made before it shared the array.
func eager(c *Cache) *Cache {
	n := *c
	n.lines = append([]Line(nil), c.lines...)
	n.holders = nil
	return &n
}

// warmCache returns a 4-set, 2-way cache holding keys 1..6 (sets 1, 2,
// 3, 0, 2, 3: two slots stay free), key 1 dirty and pinned, key 2 with
// an unpersisted count, key 3 clean.
func warmCache() *Cache {
	c := New(8, 2)
	for k := uint64(1); k <= 6; k++ {
		c.Insert(k, blockOf(byte(k)))
	}
	c.MarkDirty(1)
	c.Pin(1)
	l, _ := c.Lookup(2)
	l.Unpersisted = 3
	return c
}

// freeSlot returns a free slot of key's set, and whether one exists.
func freeSlot(c *Cache, key uint64) (int, bool) {
	for slot := 0; slot < c.NumSlots(); slot++ {
		if c.CanInsertAtSlot(slot, key) {
			return slot, true
		}
	}
	return 0, false
}

// TestCloneDivergesOnMutation: each mutating call on one side of a
// clone changes that side only, whichever side makes it.
func TestCloneDivergesOnMutation(t *testing.T) {
	muts := map[string]func(t *testing.T, c *Cache){
		"Lookup": func(t *testing.T, c *Cache) {
			if _, ok := c.Lookup(3); !ok {
				t.Fatal("Lookup missed a resident key")
			}
		},
		"Insert": func(t *testing.T, c *Cache) { c.Insert(100, blockOf(9)) },
		"InsertAtSlot": func(t *testing.T, c *Cache) {
			for key := uint64(200); ; key++ {
				if slot, ok := freeSlot(c, key); ok {
					c.InsertAtSlot(slot, key, blockOf(8))
					return
				}
			}
		},
		"MarkDirty":  func(t *testing.T, c *Cache) { c.MarkDirty(3) },
		"Pin":        func(t *testing.T, c *Cache) { c.Pin(3) },
		"Invalidate": func(t *testing.T, c *Cache) { c.Invalidate(3) },
		"FlushAll": func(t *testing.T, c *Cache) {
			n := 0
			c.FlushAll(func(uint64, [BlockBytes]byte) { n++ })
			if n == 0 {
				t.Fatal("FlushAll found no dirty line")
			}
		},
		"Iterate": func(t *testing.T, c *Cache) {
			c.Iterate(func(l *Line) { l.Data[0]++ })
		},
	}
	for name, mut := range muts {
		for _, side := range []string{"source", "clone"} {
			t.Run(name+"/"+side, func(t *testing.T) {
				src := warmCache()
				before := viewOf(src)
				cl := src.Clone()
				mutated, other := src, cl
				if side == "clone" {
					mutated, other = cl, src
				}
				mut(t, mutated)
				if got := viewOf(other); !reflect.DeepEqual(got, before) {
					t.Fatalf("the other side changed:\n got %+v\nwant %+v", got, before)
				}
				if reflect.DeepEqual(viewOf(mutated), before) {
					t.Fatal("the mutation left no trace")
				}
				// The other side, which now holds the array alone, goes on
				// as an eager copy would.
				ref := eager(other)
				mut(t, ref)
				mut(t, other)
				if !reflect.DeepEqual(viewOf(other), viewOf(ref)) {
					t.Fatal("the other side no longer behaves like an eager copy")
				}
			})
		}
	}
}

// TestCloneThreeWayShare: three caches share one array; the first two
// to mutate copy it, and the last takes it over without copying.
func TestCloneThreeWayShare(t *testing.T) {
	a := warmCache()
	ref := eager(a)
	b := a.Clone()
	c := b.Clone()
	arr := &a.lines[0]
	if a.holders == nil || a.holders != c.holders || a.holders.Load() != 3 {
		t.Fatal("Clone did not share one holder count among three caches")
	}
	b.Insert(100, blockOf(1))
	if &b.lines[0] == arr || a.holders.Load() != 2 {
		t.Fatal("the first mutator did not copy and let go")
	}
	a.MarkDirty(3)
	if &a.lines[0] == arr || c.holders.Load() != 1 {
		t.Fatal("the second mutator did not copy and let go")
	}
	c.Lookup(3)
	if &c.lines[0] != arr || c.holders != nil {
		t.Fatal("the last holder copied instead of taking the array over")
	}
	for _, r := range []struct {
		name string
		c    *Cache
		mut  func(*Cache)
	}{
		{"a", a, func(c *Cache) { c.MarkDirty(3) }},
		{"b", b, func(c *Cache) { c.Insert(100, blockOf(1)) }},
		{"c", c, func(c *Cache) { c.Lookup(3) }},
	} {
		want := eager(ref)
		r.mut(want)
		if !reflect.DeepEqual(viewOf(r.c), viewOf(want)) {
			t.Errorf("cache %s does not hold its own calls alone", r.name)
		}
	}
}

// TestDropAllOnSharedCache: a shared DropAll lets go of the array and
// leaves its partners intact; the dropped cache answers every query
// without an array and allocates one at its next fill.
func TestDropAllOnSharedCache(t *testing.T) {
	src := warmCache()
	want := viewOf(src)
	arr := &src.lines[0]
	child := src.Clone()
	child.DropAll()
	if child.lines != nil || child.holders != nil {
		t.Fatal("a shared DropAll kept the array")
	}
	if got := viewOf(src); !reflect.DeepEqual(got, want) {
		t.Fatalf("DropAll on the clone changed the source:\n got %+v\nwant %+v", got, want)
	}

	// No array: every query answers as for an empty cache.
	if child.NumSlots() != 8 || child.Sets() != 4 || child.Ways() != 2 {
		t.Fatalf("geometry without an array = %d slots / %d sets / %d ways", child.NumSlots(), child.Sets(), child.Ways())
	}
	if _, ok := child.Lookup(1); ok || child.Contains(1) || child.VictimFor(1) != nil {
		t.Fatal("a dropped cache found a line")
	}
	if _, ok := child.Peek(1); ok {
		t.Fatal("Peek found a line in a dropped cache")
	}
	if child.DirtyCount() != 0 {
		t.Fatal("a dropped cache counts dirty lines")
	}
	child.Iterate(func(*Line) { t.Fatal("Iterate visited a line of a dropped cache") })
	child.FlushAll(func(uint64, [BlockBytes]byte) { t.Fatal("FlushAll flushed a line of a dropped cache") })
	if child.lines != nil {
		t.Fatal("a query allocated an array")
	}
	set := child.setOf(42)
	if !child.CanInsertAtSlot(set*2+1, 42) {
		t.Fatal("CanInsertAtSlot refused a free slot of the key's set")
	}
	if child.CanInsertAtSlot(((set+1)%4)*2, 42) || child.CanInsertAtSlot(8, 42) || child.CanInsertAtSlot(-1, 42) {
		t.Fatal("CanInsertAtSlot accepted a slot outside the key's set")
	}
	l := child.InsertAtSlot(set*2+1, 42, blockOf(4))
	if l.Slot() != set*2+1 || !child.Contains(42) || child.Contains(1) {
		t.Fatal("InsertAtSlot into a dropped cache misplaced the line")
	}

	// The source, now alone, takes its array over without copying, and
	// an unshared DropAll clears in place.
	if _, ok := src.Lookup(2); !ok {
		t.Fatal("the source lost key 2")
	}
	if &src.lines[0] != arr {
		t.Fatal("the remaining holder copied the array")
	}
	src.DropAll()
	if &src.lines[0] != arr || src.Contains(2) {
		t.Fatal("an unshared DropAll did not clear in place")
	}
}

// TestCloneConcurrentMutation drives a source and its clones from
// different goroutines (run it under -race). Each side must end as an
// eagerly copied cache driven by the same calls would.
func TestCloneConcurrentMutation(t *testing.T) {
	drive := func(c *Cache, seed int64) {
		rng := rand.New(rand.NewSource(seed))
		for i := 0; i < 2000; i++ {
			key := uint64(rng.Intn(96))
			switch rng.Intn(6) {
			case 0, 1:
				if !c.Contains(key) {
					c.Insert(key, blockOf(byte(i)))
				}
			case 2:
				if l, ok := c.Lookup(key); ok {
					l.Unpersisted++
				}
			case 3:
				if c.Contains(key) {
					c.MarkDirty(key)
				}
			case 4:
				c.Invalidate(key)
			case 5:
				if c.Contains(key) {
					c.Pin(key)
					c.Unpin(key)
				}
			}
			if i == 1500 {
				c.DropAll()
			}
		}
	}
	for round := int64(0); round < 4; round++ {
		src := New(64, 4)
		drive(src, 1000+round)
		sides := []*Cache{src, src.Clone(), src.Clone()}
		sides = append(sides, sides[1].Clone())
		refs := make([]*Cache, len(sides))
		for i, c := range sides {
			refs[i] = eager(c)
			drive(refs[i], round*10+int64(i))
		}
		var wg sync.WaitGroup
		for i, c := range sides {
			wg.Add(1)
			go func(i int, c *Cache) {
				defer wg.Done()
				drive(c, round*10+int64(i))
			}(i, c)
		}
		wg.Wait()
		for i, c := range sides {
			if !reflect.DeepEqual(viewOf(c), viewOf(refs[i])) {
				t.Fatalf("round %d side %d diverged from its eager copy", round, i)
			}
		}
	}
}
