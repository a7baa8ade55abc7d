// Package cache implements the on-chip security-metadata caches of a
// secure memory controller: set-associative, write-back, true-LRU.
//
// Two properties matter specifically for Anubis:
//
//   - Every cached block occupies a stable slot (set × way) for its whole
//     residency. The paper's shadow tables (SCT/SMT/ST) mirror the cache's
//     data array one-to-one, writing the shadow entry at the offset of the
//     slot the block occupies (Figure 6), so the slot index is part of the
//     public API.
//   - MarkDirty reports whether the line was clean before, which is the
//     trigger event for AGIT-Plus ("track only the first modification").
//
// Lines can be pinned to exclude them from victim selection; controllers
// pin a parent node while recursively fetching further ancestors so that
// a fill cannot evict a block that is being worked on.
package cache

import (
	"fmt"
	"sync/atomic"
)

// BlockBytes is the cached block size.
const BlockBytes = 64

// Line is one cache line. Callers receive pointers to lines on lookup
// and may mutate Data directly (the cache is the backing store).
type Line struct {
	Key   uint64
	Data  [BlockBytes]byte
	Valid bool
	Dirty bool

	// Unpersisted counts the updates to Data since its copy in memory
	// was last written: the Osiris stop-loss count a controller keeps
	// per counter line. The cache zeroes it whenever the line's content
	// stops being this residency's (Insert, InsertAtSlot, DropAll) or
	// reaches memory (FlushAll); the controller bumps it on each update
	// and zeroes it when it persists the line itself.
	Unpersisted int32

	lru  uint64
	pins int
	slot int
}

// Slot returns the line's stable slot index in the data array.
func (l *Line) Slot() int { return l.slot }

// Victim describes an evicted line.
type Victim struct {
	Key   uint64
	Data  [BlockBytes]byte
	Dirty bool
	Slot  int
}

// Stats accumulates cache events. Clean/dirty eviction counts feed the
// paper's Figure 7.
type Stats struct {
	Hits           uint64 `json:"hits"`
	Misses         uint64 `json:"misses"`
	Insertions     uint64 `json:"insertions"`
	Evictions      uint64 `json:"evictions"`
	CleanEvictions uint64 `json:"clean_evictions"`
	DirtyEvictions uint64 `json:"dirty_evictions"`
	FirstDirties   uint64 `json:"first_dirties"` // MarkDirty transitions clean->dirty
}

// Cache is a set-associative write-back cache keyed by 64-bit block
// addresses. It is not safe for concurrent use, but a cache and its
// clones may run on different goroutines (see Clone).
//
// A *Line returned by Lookup, Peek, Insert, InsertAtSlot or Iterate
// stays valid until the cache is next cloned or dropped (Clone,
// DropAll): after a Clone the line array is shared, and a write through
// an older pointer would reach every cache that shares it.
type Cache struct {
	sets  int
	ways  int
	lines []Line // sets*ways entries; slot = set*ways + way; nil after a shared DropAll until the next fill
	tick  uint64
	stats Stats

	// holders, when non-nil, counts the caches that share lines (see
	// Clone).
	holders *atomic.Int32

	// victim is the scratch cell Insert returns a pointer to on
	// eviction. Reusing one cell keeps the eviction path allocation-free
	// (evictions happen on every metadata miss once a cache warms up);
	// the returned *Victim is only valid until the next Insert, which
	// matches every caller: controllers either write the victim back
	// immediately or copy it by value into their writeback queue.
	victim Victim
}

// New creates a cache with the given total number of blocks and
// associativity. numBlocks must be a positive multiple of ways and the
// number of sets must be a power of two (hardware-indexable).
func New(numBlocks, ways int) *Cache {
	if numBlocks <= 0 || ways <= 0 || numBlocks%ways != 0 {
		panic(fmt.Sprintf("cache: invalid geometry %d blocks / %d ways", numBlocks, ways))
	}
	sets := numBlocks / ways
	if sets&(sets-1) != 0 {
		panic(fmt.Sprintf("cache: %d sets is not a power of two", sets))
	}
	// Lines carry their slot index lazily: a line's slot is assigned the
	// first time the line is filled (Insert / InsertAtSlot). Eagerly
	// writing slot = i here would touch the whole data array — for a
	// 4 MB cache that is megabytes of stores per constructed controller,
	// and figure sweeps construct one controller per (scheme, app) cell.
	// With lazy assignment the constructor is a single zeroing
	// allocation, and invalid lines (the only ones with an unset slot)
	// are never surfaced by Lookup, Iterate, FlushAll, or eviction.
	return &Cache{sets: sets, ways: ways, lines: make([]Line, numBlocks)}
}

// NumSlots returns the total number of lines (the shadow table size).
func (c *Cache) NumSlots() int { return c.sets * c.ways }

// Ways returns the associativity.
func (c *Cache) Ways() int { return c.ways }

// Sets returns the number of sets.
func (c *Cache) Sets() int { return c.sets }

// Stats returns a snapshot of accumulated statistics.
func (c *Cache) Stats() Stats { return c.stats }

// setOf maps a key to its set index. Keys are block addresses (already
// block-granular), so the low bits index the set directly; a multiplier
// spreads composite region-tagged keys.
func (c *Cache) setOf(key uint64) int {
	return int((key * 0x9e3779b97f4a7c15 >> 17) & uint64(c.sets-1))
}

func (c *Cache) set(key uint64) []Line {
	s := c.setOf(key)
	return c.lines[s*c.ways : (s+1)*c.ways]
}

// find returns key's resident line, or nil. The line may sit in an
// array shared with clones: read it only.
func (c *Cache) find(key uint64) *Line {
	if c.lines == nil {
		return nil
	}
	set := c.set(key)
	for i := range set {
		if set[i].Valid && set[i].Key == key {
			return &set[i]
		}
	}
	return nil
}

// own ends c's share of its line array, if it has one: c takes the
// array over if every partner has let go, and copies it otherwise. The
// copy is made before c lets go, so the last holder never writes an
// array a partner is still reading.
func (c *Cache) own() {
	h := c.holders
	if h == nil {
		return
	}
	c.holders = nil
	if h.Load() == 1 {
		return
	}
	c.lines = append([]Line(nil), c.lines...)
	h.Add(-1)
}

// writable returns l, a line of c's shared array, as the same line of
// an array c holds alone. It reads l before c lets go of l's array.
func (c *Cache) writable(l *Line) *Line {
	slot := l.slot
	c.own()
	return &c.lines[slot]
}

// fill readies the line array for an insertion: allocated, and held by
// c alone.
func (c *Cache) fill() {
	if c.lines == nil {
		c.lines = make([]Line, c.sets*c.ways)
	}
	c.own()
}

// Lookup finds a cached block, updating LRU state and hit/miss counters.
func (c *Cache) Lookup(key uint64) (*Line, bool) {
	if c.lines != nil {
		set := c.set(key)
		for i := range set {
			if set[i].Valid && set[i].Key == key {
				l := &set[i]
				if c.holders != nil {
					l = c.writable(l)
				}
				c.tick++
				l.lru = c.tick
				c.stats.Hits++
				return l, true
			}
		}
	}
	c.stats.Misses++
	return nil, false
}

// Peek finds a cached block without disturbing LRU state or statistics.
// The caller may mutate the returned line.
func (c *Cache) Peek(key uint64) (*Line, bool) {
	l := c.find(key)
	if l == nil {
		return nil, false
	}
	if c.holders != nil {
		l = c.writable(l)
	}
	return l, true
}

// Contains reports whether the key is cached, without side effects.
func (c *Cache) Contains(key uint64) bool { return c.find(key) != nil }

// VictimFor returns the line that Insert(key, …) would evict: the LRU
// unpinned valid line of the key's set, or nil if a free (or invalid)
// way exists. The line is for reading only. It panics if key is already
// present.
func (c *Cache) VictimFor(key uint64) *Line {
	if c.lines == nil {
		return nil
	}
	set := c.set(key)
	var victim *Line
	for i := range set {
		l := &set[i]
		if l.Valid && l.Key == key {
			panic("cache: VictimFor on resident key")
		}
		if !l.Valid {
			return nil
		}
		if l.pins > 0 {
			continue
		}
		if victim == nil || l.lru < victim.lru {
			victim = l
		}
	}
	if victim == nil {
		panic("cache: all ways pinned; associativity too small for the working path")
	}
	return victim
}

// Insert places a new block in the cache, evicting the LRU unpinned line
// of the set if necessary. It returns the line now holding the block and
// the victim (nil if no valid line was displaced). The victim pointer
// aliases a per-cache scratch cell overwritten by the next Insert:
// consume or copy it before inserting again. The new line is inserted
// clean and unpinned. Insert panics if key is already resident; use
// Lookup first.
func (c *Cache) Insert(key uint64, data [BlockBytes]byte) (*Line, *Victim) {
	c.fill()
	s := c.setOf(key)
	set := c.lines[s*c.ways : (s+1)*c.ways]
	var target *Line
	for i := range set {
		l := &set[i]
		if l.Valid && l.Key == key {
			panic("cache: Insert of resident key")
		}
		if !l.Valid {
			target = l
			target.slot = s*c.ways + i // lazy slot assignment (see New)
			break
		}
	}
	var victim *Victim
	if target == nil {
		vl := c.VictimFor(key) // cannot be nil: no invalid way found
		c.victim = Victim{Key: vl.Key, Data: vl.Data, Dirty: vl.Dirty, Slot: vl.slot}
		victim = &c.victim
		c.stats.Evictions++
		if vl.Dirty {
			c.stats.DirtyEvictions++
		} else {
			c.stats.CleanEvictions++
		}
		target = vl
	}
	c.tick++
	target.Key = key
	target.Data = data
	target.Valid = true
	target.Dirty = false
	target.Unpersisted = 0
	target.pins = 0
	target.lru = c.tick
	c.stats.Insertions++
	return target, victim
}

// CanInsertAtSlot reports whether InsertAtSlot(slot, key, …) would be
// legal: slot in range and inside key's set, key not already resident,
// slot free. Recovery code validates untrusted (crash-corrupted)
// shadow-table placements with this before calling InsertAtSlot, whose
// panics are a programming-error contract that must not be reachable
// from a corrupt NVM image.
func (c *Cache) CanInsertAtSlot(slot int, key uint64) bool {
	if slot < 0 || slot >= c.NumSlots() {
		return false
	}
	if c.setOf(key) != slot/c.ways {
		return false
	}
	if c.find(key) != nil {
		return false
	}
	return c.lines == nil || !c.lines[slot].Valid
}

// InsertAtSlot places a block into a specific (free) slot. Recovery
// uses it to reinstall blocks in exactly the slots the shadow table
// mirrors; a block inserted elsewhere would desynchronize future shadow
// writes from the table. It panics if the slot is occupied, the key is
// already resident, or the slot does not belong to the key's set.
func (c *Cache) InsertAtSlot(slot int, key uint64, data [BlockBytes]byte) *Line {
	if slot < 0 || slot >= c.NumSlots() {
		panic("cache: InsertAtSlot out of range")
	}
	if c.setOf(key) != slot/c.ways {
		panic("cache: InsertAtSlot set mismatch")
	}
	if c.find(key) != nil {
		panic("cache: InsertAtSlot of resident key")
	}
	c.fill()
	l := &c.lines[slot]
	if l.Valid {
		panic("cache: InsertAtSlot into occupied slot")
	}
	l.slot = slot // lazy slot assignment (see New)
	c.tick++
	l.Key = key
	l.Data = data
	l.Valid = true
	l.Dirty = false
	l.Unpersisted = 0
	l.pins = 0
	l.lru = c.tick
	c.stats.Insertions++
	return l
}

// MarkDirty marks a resident block dirty and reports whether this is its
// first dirtying since insertion (the AGIT-Plus tracking trigger). It
// panics if the key is not resident.
func (c *Cache) MarkDirty(key uint64) (first bool) {
	l, ok := c.Peek(key)
	if !ok {
		panic("cache: MarkDirty on absent key")
	}
	first = !l.Dirty
	l.Dirty = true
	if first {
		c.stats.FirstDirties++
	}
	return first
}

// Pin increments a resident line's pin count, excluding it from victim
// selection. It panics if the key is not resident.
func (c *Cache) Pin(key uint64) {
	l, ok := c.Peek(key)
	if !ok {
		panic("cache: Pin on absent key")
	}
	l.pins++
}

// Unpin decrements a line's pin count. It panics on unbalanced unpins or
// absent keys.
func (c *Cache) Unpin(key uint64) {
	l, ok := c.Peek(key)
	if !ok {
		panic("cache: Unpin on absent key")
	}
	if l.pins == 0 {
		panic("cache: unbalanced Unpin")
	}
	l.pins--
}

// Invalidate removes a block without writeback, returning whether it was
// present. Used when a block's home region is rewritten out of band.
func (c *Cache) Invalidate(key uint64) bool {
	l, ok := c.Peek(key)
	if !ok {
		return false
	}
	l.Valid = false
	l.Dirty = false
	l.pins = 0
	return true
}

// FlushAll invokes fn for every dirty line (in slot order) and marks it
// clean; afterwards no line holds an unpersisted update. Used for
// orderly shutdown.
func (c *Cache) FlushAll(fn func(key uint64, data [BlockBytes]byte)) {
	c.own()
	for i := range c.lines {
		l := &c.lines[i]
		if l.Valid && l.Dirty {
			fn(l.Key, l.Data)
			l.Dirty = false
		}
		l.Unpersisted = 0
	}
}

// DropAll discards every line without writeback: the power-failure
// semantics of a volatile cache. A cache that still shares its array
// only lets go of it, and allocates a fresh one at its next fill; a
// cache that holds its array alone clears it in place.
func (c *Cache) DropAll() {
	if h := c.holders; h != nil {
		c.holders = nil
		if h.Load() > 1 {
			c.lines = nil
			h.Add(-1)
			return
		}
	}
	for i := range c.lines {
		c.lines[i] = Line{slot: i}
	}
}

// Iterate calls fn for every valid line in slot order; fn may mutate the
// line's Data.
func (c *Cache) Iterate(fn func(l *Line)) {
	c.own()
	for i := range c.lines {
		if c.lines[i].Valid {
			fn(&c.lines[i])
		}
	}
}

// Clone returns an independent cache: same geometry, same resident
// lines in the same slots with identical LRU ordering, dirty bits,
// unpersisted counts, pin counts, and statistics. A cloned cache and
// its source evolve exactly alike under identical request streams,
// which is what makes forked warm controllers byte-equivalent to
// cold-started ones.
//
// The line array is shared copy-on-write: Clone costs one holder-count
// increment, and whichever side mutates first copies the array. Clone
// and its source may then run on different goroutines.
func (c *Cache) Clone() *Cache {
	n := *c
	if c.lines != nil {
		if c.holders == nil {
			c.holders = new(atomic.Int32)
			c.holders.Store(1)
		}
		c.holders.Add(1)
		n.holders = c.holders
	}
	return &n
}

// DirtyCount returns the number of dirty resident lines.
func (c *Cache) DirtyCount() int {
	n := 0
	for i := range c.lines {
		if c.lines[i].Valid && c.lines[i].Dirty {
			n++
		}
	}
	return n
}
