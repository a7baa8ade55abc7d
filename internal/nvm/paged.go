package nvm

import (
	"sort"
	"sync/atomic"
)

// Paged sparse storage.
//
// The original Device kept one Go map per region (blocks), one for the
// data sideband, and one wear map per region. At sweep scale every
// simulated access paid map hashing plus a 64-byte value copy, and
// every media write paid a second map op for wear accounting. The
// paged store replaces all of that with fixed-size pages — a flat data
// array, a presence bitmap (preserving Has()'s "ever written, not
// erased" semantics), per-block wear counters, and a lazily allocated
// sideband array for the data region — reached through a two-level
// page directory. A page hit is three indexations and a bit test: zero
// map ops, zero 64-byte copies when callers use the pointer-returning
// accessors.
//
// The directory's top level holds one *chunk per chunkPages pages, nil
// until a page of the chunk is first written. A chunk holds its pages'
// uint16 handles and the slice of page pointers they index. Two costs
// shape this:
//
//   - Forking. A fork copies only the top level (8,193 pointers for a
//     16 GiB data region) and shares every chunk copy-on-write under
//     the same owner tags pages carry, so a crash trial pays for the
//     chunks it writes, not for the region it could address.
//   - Garbage collection. Sweeps build one device per (scheme, app)
//     cell, so directory words the collector scans cost every cell. A
//     chunk's only pointer is its page slice, declared first, so the
//     collector scans one word of each chunk and skips its 8 KB handle
//     array.
//
// Handles are 1-based; 0 means "no page"; handle h resolves to
// pages[h-1] of its chunk.

const (
	// pageShift selects 8-block (512 B data) pages. Page size trades the
	// cost of a cold first touch (allocating and zeroing one fresh page)
	// against directory length and per-page header overhead. Simulation
	// sweeps are first-touch heavy — every (scheme, app) cell starts from
	// a fresh device and visits a sliver of a multi-GB address space, and
	// random-access workloads touch one block per cold page — so smaller
	// pages waste less zeroing per first touch, while a page hit stays a
	// few indexations and a bit test (and usually just the one-entry
	// memo below).
	pageShift  = 3
	pageBlocks = 1 << pageShift
	pageMask   = pageBlocks - 1

	// presentWords sizes the presence bitmap (at least one word).
	presentWords = (pageBlocks + 63) / 64

	// chunkShift selects 4,096-page chunks (32,768 blocks, 2 MiB of
	// data): the first write after a fork copies an 8 KB handle array,
	// and a fork copies one top-level pointer per 2 MiB of region.
	chunkShift = 12
	chunkPages = 1 << chunkShift
	chunkMask  = chunkPages - 1

	// maxDirPages caps the directory (2^28 pages × 8 blocks = 2^31
	// blocks = 128 GiB of 64-byte blocks per region, a top level of at
	// most 512 KB). Blocks above the cap land in an overflow map so a
	// stray huge index — a damaged image, say — cannot force a giant
	// directory allocation.
	maxDirPages = 1 << 28
)

// page is the unit of sparse allocation: presence bitmap, wear
// counters, block data, and (data region only) the DIMM sideband.
//
// owner is the copy-on-write tag: the ID of the pagedStore that is
// allowed to mutate this page in place. A page whose owner differs
// from its store's owner is frozen (shared with a snapshot or with
// forked children) and must be copied before the first write — see
// pagedStore.slot, the single chokepoint every mutation resolves
// through.
//
// The fields a lookup reads before it reaches the block — the sideband
// pointer, the owner tag and the presence bits — share the page's
// first cache line.
type page struct {
	side    *[pageBlocks]Sideband // allocated on first sideband write
	owner   int64                 // COW epoch tag (see storeIDs)
	present [presentWords]uint64
	wear    [pageBlocks]uint64
	data    [pageBlocks][BlockBytes]byte
}

// chunk is one second-level directory node: the handles of chunkPages
// consecutive pages. It carries the same owner tag as a page: a chunk
// whose owner differs from its store's is shared and is copied before
// a handle or page pointer in it changes.
type chunk struct {
	pages []*page            // handle h -> pages[h-1]; the chunk's only pointer
	owner int64              // COW epoch tag (see storeIDs)
	dir   [chunkPages]uint16 // 1-based page handles (not scanned by the GC)
}

// storeIDs issues globally unique pagedStore owner IDs. The zero value
// is reserved: a never-forked store, its chunks and its pages all carry
// owner 0, so the in-place fast path works without ever minting an ID.
// IDs are minted atomically because forked devices may be exercised
// from parallel sweep workers; all other store state is still
// single-owner.
var storeIDs atomic.Int64

func nextStoreID() int64 { return storeIDs.Add(1) }

// zeroBlock is what pointer-returning reads of never-written (or
// erased) blocks resolve to. Callers treat returned block pointers as
// read-only; Device's own mutators never write through it.
var zeroBlock [BlockBytes]byte

// pagedStore is one region's sparse block store.
//
// lastPi/lastP memoize the most recently resolved page. Simulated
// accesses are bursty within a page (sequential fills, tree path
// walks, counter-line re-reads), so the memo short-circuits the
// directory indirection for the common repeat hit. The invariant that
// keeps it sound: only slot() replaces a page pointer (COW), and
// slot() refreshes the memo whenever it does, so lastP always equals
// the page currently installed at lastPi. slot()'s memo hit
// additionally requires the owner tag to match, so a frozen page can
// be served to readers but never handed out for in-place mutation.
type pagedStore struct {
	dir    []*chunk         // top level: chunk c holds pages [c<<chunkShift, (c+1)<<chunkShift)
	over   map[uint64]*page // pages at index >= maxDirPages
	count  int              // blocks with the presence bit set
	owner  int64            // COW epoch: chunks and pages with owner==owner are writable in place
	lastPi uint64           // page index of the memoized page
	lastP  *page            // memoized page (nil = no memo)
	slab   []page           // carve space for newPage; amortizes allocation
	slabN  int              // length of the last slab allocated
}

// slabPages caps the page-allocation slab. First-touch-heavy sweeps
// allocate thousands of pages per region; carving them from one large
// slab replaces a per-page malloc (object header, zeroing, GC scan
// metadata) with a slice re-header. Slabs double from one page up to
// the cap, so a fork that copies a handful of pages, or a barely
// touched region, allocates a handful, while a sweep amortizes well.
const slabPages = 64

// newPage carves a zeroed page tagged with the store's owner epoch.
func (s *pagedStore) newPage() *page {
	if len(s.slab) == 0 {
		s.slabN = min(max(2*s.slabN, 1), slabPages)
		s.slab = make([]page, s.slabN)
	}
	p := &s.slab[0]
	s.slab = s.slab[1:]
	p.owner = s.owner
	return p
}

// reserve pre-sizes the top level to hold pages [0, n), clamped to the
// directory cap. It allocates no chunk: those come with first writes.
func (s *pagedStore) reserve(n uint64) {
	s.growDir((min(n, maxDirPages) + chunkMask) >> chunkShift)
}

// growDir lengthens the top level to at least n chunks.
func (s *pagedStore) growDir(n uint64) {
	if n > uint64(len(s.dir)) {
		grown := make([]*chunk, n)
		copy(grown, s.dir)
		s.dir = grown
	}
}

// chunkOf returns the chunk holding page pi, or nil.
func (s *pagedStore) chunkOf(pi uint64) *chunk {
	if ci := pi >> chunkShift; ci < uint64(len(s.dir)) {
		return s.dir[ci]
	}
	return nil
}

// pageAt returns the page holding idx, or nil if it was never touched.
// Read-only: a memo hit may return a frozen page (fine for readers).
func (s *pagedStore) pageAt(idx uint64) *page {
	pi := idx >> pageShift
	if s.lastP != nil && s.lastPi == pi {
		return s.lastP
	}
	var p *page
	if pi < maxDirPages {
		if c := s.chunkOf(pi); c != nil {
			if h := c.dir[pi&chunkMask]; h != 0 {
				p = c.pages[h-1]
			}
		}
	} else {
		p = s.over[pi]
	}
	if p != nil {
		s.lastPi, s.lastP = pi, p
	}
	return p
}

// writableChunk installs a writable chunk for page pi: it allocates
// the chunk — and grows the top level — on first touch, and copies it
// if it is shared. slot calls it only when the chunk in place, if any,
// is not the store's own.
func (s *pagedStore) writableChunk(pi uint64) *chunk {
	ci := pi >> chunkShift
	if ci >= uint64(len(s.dir)) {
		// Geometric growth keeps repeated appends amortized O(1).
		s.growDir(min(max(uint64(len(s.dir))*2+1, ci+1), maxDirPages>>chunkShift))
	}
	c := s.dir[ci]
	if c == nil {
		c = &chunk{owner: s.owner}
		s.dir[ci] = c
	} else if c.owner != s.owner {
		c = &chunk{pages: append([]*page(nil), c.pages...), owner: s.owner, dir: c.dir}
		s.dir[ci] = c
	}
	return c
}

// slot returns the (page, offset) cell for idx, allocating the page on
// first touch. It is the single chokepoint every mutation resolves
// through, which makes it the COW hook: a resolved chunk or page whose
// owner tag differs from the store's is frozen (shared with a snapshot
// or a forked sibling) and is replaced by a private copy before the
// caller sees it. Reads (pageAt/blockPtr) never trigger a copy.
func (s *pagedStore) slot(idx uint64) (*page, uint64) {
	pi := idx >> pageShift
	if p := s.lastP; p != nil && s.lastPi == pi && p.owner == s.owner {
		return p, idx & pageMask
	}
	var p *page
	if pi < maxDirPages {
		c := s.chunkOf(pi)
		if c == nil || c.owner != s.owner {
			c = s.writableChunk(pi)
		}
		h := c.dir[pi&chunkMask]
		if h == 0 {
			c.pages = append(c.pages, s.newPage())
			h = uint16(len(c.pages))
			c.dir[pi&chunkMask] = h
		}
		p = c.pages[h-1]
		if p.owner != s.owner {
			p = s.copyPage(p)
			c.pages[h-1] = p
		}
	} else {
		if s.over == nil {
			s.over = make(map[uint64]*page)
		}
		p = s.over[pi]
		if p == nil {
			p = s.newPage()
			s.over[pi] = p
		} else if p.owner != s.owner {
			p = s.copyPage(p)
			s.over[pi] = p
		}
	}
	s.lastPi, s.lastP = pi, p
	return p, idx & pageMask
}

// copyPage makes a private, writable duplicate of a frozen page. The
// sideband array — reached through a pointer — is duplicated too:
// sharing it would let a child's sideband write reach the parent.
func (s *pagedStore) copyPage(p *page) *page {
	np := s.newPage()
	*np = *p
	if p.side != nil {
		np.side = new([pageBlocks]Sideband)
		*np.side = *p.side
	}
	np.owner = s.owner
	return np
}

// fork freezes the store and returns a child that shares every chunk
// and page. Freezing is O(1): the store moves to a fresh owner epoch,
// chunks and pages keep their old tags and are copied lazily by slot()
// on the first subsequent write, on whichever side writes first. Only
// the top level (and the overflow map, empty in every modeled
// geometry) is copied eagerly. Parent and child are fully independent
// afterwards and each may be forked again.
func (s *pagedStore) fork() pagedStore {
	s.owner = nextStoreID()
	child := pagedStore{
		dir:   append([]*chunk(nil), s.dir...),
		count: s.count,
		owner: nextStoreID(),
	}
	if len(s.over) > 0 {
		child.over = make(map[uint64]*page, len(s.over))
		for pi, p := range s.over {
			child.over[pi] = p
		}
	}
	return child
}

// blockPtr returns a pointer to idx's stored content and whether the
// block is present. Absent blocks resolve to the shared zero block.
func (s *pagedStore) blockPtr(idx uint64) (*[BlockBytes]byte, bool) {
	p := s.pageAt(idx)
	if p == nil {
		return &zeroBlock, false
	}
	o := idx & pageMask
	if p.present[o>>6]&(1<<(o&63)) == 0 {
		return &zeroBlock, false
	}
	return &p.data[o], true
}

// dataAt is blockPtr with the block's sideband (zero for an absent
// block).
func (s *pagedStore) dataAt(idx uint64) (*[BlockBytes]byte, Sideband, bool) {
	p := s.pageAt(idx)
	if p == nil {
		return &zeroBlock, Sideband{}, false
	}
	o := idx & pageMask
	if p.present[o>>6]&(1<<(o&63)) == 0 {
		return &zeroBlock, Sideband{}, false
	}
	var side Sideband
	if p.side != nil {
		side = p.side[o]
	}
	return &p.data[o], side, true
}

// has reports the presence bit without touching data.
func (s *pagedStore) has(idx uint64) bool {
	p := s.pageAt(idx)
	if p == nil {
		return false
	}
	o := idx & pageMask
	return p.present[o>>6]&(1<<(o&63)) != 0
}

// mark sets (on) or clears the presence bit of cell o of p, a page of
// s, keeping the store's block count.
func (s *pagedStore) mark(p *page, o uint64, on bool) {
	bit := uint64(1) << (o & 63)
	if was := p.present[o>>6]&bit != 0; on && !was {
		p.present[o>>6] |= bit
		s.count++
	} else if !on && was {
		p.present[o>>6] &^= bit
		s.count--
	}
}

// setSide stores the sideband of cell o, allocating the page's sideband
// array on first use.
func (p *page) setSide(o uint64, sb Sideband) {
	if p.side == nil {
		p.side = new([pageBlocks]Sideband)
	}
	p.side[o] = sb
}

// wearOf returns the media-write count of one block.
func (s *pagedStore) wearOf(idx uint64) uint64 {
	p := s.pageAt(idx)
	if p == nil {
		return 0
	}
	return p.wear[idx&pageMask]
}

// forEachPage visits every allocated page in ascending page-index
// order (directory first, then sorted overflow) — the deterministic
// iteration order the map-backed implementation obtained by sorting.
func (s *pagedStore) forEachPage(fn func(base uint64, p *page)) {
	for ci, c := range s.dir {
		if c == nil {
			continue
		}
		for k, h := range c.dir {
			if h != 0 {
				fn((uint64(ci)<<chunkShift|uint64(k))<<pageShift, c.pages[h-1])
			}
		}
	}
	if len(s.over) > 0 {
		keys := make([]uint64, 0, len(s.over))
		for pi := range s.over {
			keys = append(keys, pi)
		}
		sort.Slice(keys, func(i, j int) bool { return keys[i] < keys[j] })
		for _, pi := range keys {
			fn(pi<<pageShift, s.over[pi])
		}
	}
}
