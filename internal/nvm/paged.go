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
// sideband array for the data region — reached through a dense page
// directory indexed by idx >> pageShift. A page hit is two slice
// indexations and a bit test: zero map ops, zero 64-byte copies when
// callers use the pointer-returning accessors.
//
// The directory itself stores int32 page handles rather than *page
// pointers. A multi-GB region reserved up front needs a directory with
// millions of entries; as []*page that is megabytes of pointer slots
// the garbage collector must scan on every cycle, and sweeps that
// construct one device per (scheme, app) cell turn that scanning into
// measurable GC assist time. []int32 is pointer-free (noscan): the GC
// skips the directory entirely, and the reservation allocation is half
// the size. Handles are 1-based; 0 means "no page"; handle h resolves
// to pages[h-1].

const (
	// pageShift selects 8-block (512 B data) pages. Page size trades the
	// cost of a cold first touch (allocating and zeroing one fresh page)
	// against directory length and per-page header overhead. Simulation
	// sweeps are first-touch heavy — every (scheme, app) cell starts from
	// a fresh device and visits a sliver of a multi-GB address space, and
	// random-access workloads touch one block per cold page — so smaller
	// pages waste less zeroing per first touch, while a page hit stays
	// two slice indexations and a bit test (and usually just the
	// one-entry memo below).
	pageShift  = 3
	pageBlocks = 1 << pageShift
	pageMask   = pageBlocks - 1

	// presentWords sizes the presence bitmap (at least one word).
	presentWords = (pageBlocks + 63) / 64

	// maxDirPages caps the dense directory (2^24 pages × 8 blocks =
	// 2^27 blocks = 8 GiB of 64-byte blocks per region). Blocks above
	// the cap land in an overflow map so a stray huge index cannot force
	// a giant directory allocation; the upper half of the default
	// 16 GiB data region lives there.
	maxDirPages = 1 << 24
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
type page struct {
	present [presentWords]uint64
	wear    [pageBlocks]uint64
	data    [pageBlocks][BlockBytes]byte
	side    *[pageBlocks]Sideband // allocated on first sideband write
	owner   int64                 // COW epoch tag (see storeIDs)
}

// storeIDs issues globally unique pagedStore owner IDs. The zero value
// is reserved: a never-forked store and its pages both carry owner 0,
// so the in-place fast path works without ever minting an ID. IDs are
// minted atomically because forked devices may be exercised from
// parallel sweep workers; all other store state is still single-owner.
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
// keeps it sound: only slot() replaces a directory entry (COW), and
// slot() refreshes the memo whenever it does, so lastP always equals
// the page currently installed at lastPi. slot()'s memo hit
// additionally requires the owner tag to match, so a frozen page can
// be served to readers but never handed out for in-place mutation.
type pagedStore struct {
	dir    []int32          // dense directory of 1-based handles (noscan)
	pages  []*page          // handle h -> pages[h-1]
	over   map[uint64]*page // pages at index >= maxDirPages
	count  int              // blocks with the presence bit set
	owner  int64            // COW epoch: pages with page.owner==owner are writable in place
	lastPi uint64           // page index of the memoized page
	lastP  *page            // memoized page (nil = no memo)
	slab   []page           // carve space for newPage; amortizes allocation
}

// slabPages sizes the page-allocation slab. First-touch-heavy sweeps
// allocate thousands of pages per region; carving them from one large
// chunk replaces a per-page malloc (object header, zeroing, GC scan
// metadata) with a slice re-header. A few tens of KB per slab keeps
// the waste of a barely-touched region small while amortizing well.
const slabPages = 64

// newPage carves a zeroed page tagged with the store's owner epoch.
func (s *pagedStore) newPage() *page {
	if len(s.slab) == 0 {
		s.slab = make([]page, slabPages)
	}
	p := &s.slab[0]
	s.slab = s.slab[1:]
	p.owner = s.owner
	return p
}

// reserve pre-sizes the directory to hold pages [0, n), clamped to the
// directory cap. A reserved store never pays geometric regrowth — the
// dominant first-touch cost for multi-million-block regions.
func (s *pagedStore) reserve(n uint64) {
	if n > maxDirPages {
		n = maxDirPages
	}
	if n > uint64(len(s.dir)) {
		grown := make([]int32, n)
		copy(grown, s.dir)
		s.dir = grown
	}
}

// pageAt returns the page holding idx, or nil if it was never touched.
// Read-only: a memo hit may return a frozen page (fine for readers).
func (s *pagedStore) pageAt(idx uint64) *page {
	pi := idx >> pageShift
	if s.lastP != nil && s.lastPi == pi {
		return s.lastP
	}
	if pi < uint64(len(s.dir)) {
		if h := s.dir[pi]; h != 0 {
			p := s.pages[h-1]
			s.lastPi, s.lastP = pi, p
			return p
		}
		return nil
	}
	if pi >= maxDirPages {
		if p := s.over[pi]; p != nil {
			s.lastPi, s.lastP = pi, p
			return p
		}
	}
	return nil
}

// slot returns the (page, offset) cell for idx, allocating the page —
// and growing the directory — on first touch. It is the single
// chokepoint every mutation resolves through, which makes it the COW
// hook: a resolved page whose owner tag differs from the store's is
// frozen (shared with a snapshot or a forked sibling) and is replaced
// by a private copy before the caller sees it. Reads (pageAt/blockPtr)
// never trigger a copy.
func (s *pagedStore) slot(idx uint64) (*page, uint64) {
	pi := idx >> pageShift
	if p := s.lastP; p != nil && s.lastPi == pi && p.owner == s.owner {
		return p, idx & pageMask
	}
	if pi < maxDirPages {
		if pi >= uint64(len(s.dir)) {
			// Geometric growth keeps repeated appends amortized O(1).
			n := uint64(len(s.dir))*2 + 1
			if n <= pi {
				n = pi + 1
			}
			if n > maxDirPages {
				n = maxDirPages
			}
			grown := make([]int32, n)
			copy(grown, s.dir)
			s.dir = grown
		}
		h := s.dir[pi]
		if h == 0 {
			s.pages = append(s.pages, s.newPage())
			h = int32(len(s.pages))
			s.dir[pi] = h
		}
		p := s.pages[h-1]
		if p.owner != s.owner {
			p = s.copyPage(p)
			s.pages[h-1] = p
		}
		s.lastPi, s.lastP = pi, p
		return p, idx & pageMask
	}
	if s.over == nil {
		s.over = make(map[uint64]*page)
	}
	p := s.over[pi]
	if p == nil {
		p = s.newPage()
		s.over[pi] = p
	} else if p.owner != s.owner {
		p = s.copyPage(p)
		s.over[pi] = p
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

// freeze marks every currently allocated page immutable-in-place by
// moving the store to a fresh owner epoch. O(1): pages keep their old
// tags and are copied lazily by slot() on first subsequent write.
func (s *pagedStore) freeze() {
	s.owner = nextStoreID()
}

// fork freezes the store and returns a child that shares every frozen
// page. Only the directory structures are copied eagerly (the int32
// handle directory, the noscan page-pointer slice, and the overflow
// map header); page payloads are shared until first write, when slot()
// duplicates the touched page on whichever side writes first.
// Parent and child are fully independent afterwards and each may be
// forked again.
func (s *pagedStore) fork() pagedStore {
	s.freeze()
	child := pagedStore{
		dir:   append([]int32(nil), s.dir...),
		pages: append([]*page(nil), s.pages...),
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
	for pi, h := range s.dir {
		if h != 0 {
			fn(uint64(pi)<<pageShift, s.pages[h-1])
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

// reset drops every page (used by image loading, not by Crash: NVM
// content survives power loss).
func (s *pagedStore) reset() {
	*s = pagedStore{}
}
