package memctrl

import (
	"anubis/internal/cache"
	"anubis/internal/merkle"
)

// Controller forking.
//
// Clone produces a child controller that behaves byte-for-byte like a
// controller that executed the parent's entire request history. The
// multi-megabyte stored image is shared copy-on-write through
// nvm.Device.Fork (a directory chunk or an 8-block page is duplicated
// only when parent or child first writes to it), and so are the
// metadata caches and the shadow mirrors; the rest of the volatile
// state is copied.
//
// Sharing rules (why each field is copied the way it is):
//
//   - dev: nvm.Device.Fork — COW image (only the top level of each
//     region's page directory is copied), value-cloned WPQ/bank/port
//     clocks, commit-group state, and register file.
//   - eng: the crypto engine is shared. It is deterministic (keyed
//     test engine) and holds no mutable state, so parent and children
//     can run on different goroutines of a sweep pool. Seal and open
//     draw each block's pad as a cryptoeng.Keystream value, so a
//     controller holds no pad scratch to copy.
//   - geom: merkle.Geometry contains slices but is immutable after
//     construction — shared by value copy.
//   - defNode/defNodeHash: immutable after computeTreeDefaults, but tiny
//     (one entry per tree level); copied for full independence.
//   - caches (with each counter line's stop-loss count) and shadow
//     mirrors (AGIT's SCT and SMT, ASIT's ST with its protection
//     tree): each keeps its slices in a cache.Shared, which Clone
//     shares copy-on-write under an atomic holder count. Whichever
//     side first mutates a shared slice copies it, a side whose
//     partners have let go takes it over, and Crash lets go of it
//     (cache.DropAll, the mirrors' Drop), so a fork that is crashed
//     and recovered costs its parent no copy; Recover restores the
//     mirrors from NVM in place. No controller keeps a *cache.Line
//     across calls, which is what makes a line pointer's lifetime
//     (until the next Clone or DropAll of its cache) enough.
//   - wear state, pending write group, writeback queue: exact value
//     clones.
//
// After Clone, parent and child may both keep running, crash, recover,
// and be cloned again, in any order; on different goroutines they may
// run concurrently (the shared mutable machinery — COW chunk and page
// duplication, the cache.Shared holder counts — is keyed by per-store
// owner tags and atomic counts, and each side installs copies only
// into its own directories, caches and mirrors).

// Clone implements Controller.
func (b *Bonsai) Clone() Controller {
	n := new(Bonsai)
	*n = *b
	n.core = b.fork()
	n.cCache = b.cCache.Clone()
	n.tCache = b.tCache.Clone()
	if b.sct != nil {
		n.sct = b.sct.Clone()
		n.smt = b.smt.Clone()
	}
	n.defNode = append([]merkle.GNode(nil), b.defNode...)
	n.defNodeHash = append([]uint64(nil), b.defNodeHash...)
	return n
}

// Clone implements Controller.
func (c *SGX) Clone() Controller {
	n := new(SGX)
	*n = *c
	n.core = c.fork()
	n.mCache = c.mCache.Clone()
	if c.st != nil {
		n.st = c.st.Clone()
	}
	n.wbq = append([]cache.Victim(nil), c.wbq...)
	return n
}
