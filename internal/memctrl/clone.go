package memctrl

import (
	"anubis/internal/cache"
	"anubis/internal/merkle"
	"anubis/internal/nvm"
)

// Controller forking.
//
// Clone produces a child controller that behaves byte-for-byte like a
// controller that executed the parent's entire request history, at the
// cost of copying only the volatile state (on-chip caches, shadow
// mirrors, wear mapping, clocks, statistics) plus the NVM device's
// page directories: the multi-megabyte stored image itself is shared
// copy-on-write through nvm.Device.Fork, and a 16-block page is
// duplicated only when parent or child first writes to it.
//
// Sharing rules (why each field is copied the way it is):
//
//   - dev: nvm.Device.Fork — COW image, value-cloned WPQ/bank/port
//     clocks, commit-group state, and register file.
//   - eng: the crypto engine is shared. It is deterministic (keyed
//     test engine), stateless per call, and safe for concurrent use
//     (its scratch lives in a sync.Pool), so parent and children can
//     run on different goroutines of a sweep pool.
//   - geom/stGeom: merkle.Geometry contains slices but is immutable
//     after construction — shared by value copy.
//   - defNode/defNodeHash: immutable after initTreeDefaults, but tiny
//     (one entry per tree level); copied for full independence.
//   - caches, shadow mirrors, update counters, wear state, pending
//     write group, writeback queue: exact value clones.
//
// After Clone, parent and child may both keep running, crash, recover,
// and be cloned again, in any order; on different goroutines they may
// run concurrently (the only shared mutable machinery — COW page
// duplication — is keyed by per-store owner tags, and each side
// installs copies only into its own directories).

// Clone implements Controller.
func (b *Bonsai) Clone() Controller {
	n := new(Bonsai)
	*n = *b
	n.dev = b.dev.Fork()
	n.cCache = b.cCache.Clone()
	n.tCache = b.tCache.Clone()
	if b.sct != nil {
		n.sct = b.sct.Clone()
		n.smt = b.smt.Clone()
	}
	n.updateCount = b.updateCount.Clone()
	n.defNode = append([]merkle.GNode(nil), b.defNode...)
	n.defNodeHash = append([]uint64(nil), b.defNodeHash...)
	n.wl = b.wl.clone(n.dev)
	n.pending = append([]nvm.PendingWrite(nil), b.pending...)
	if b.epochDirty != nil {
		n.epochDirty = make(map[uint64]struct{}, len(b.epochDirty))
		for p := range b.epochDirty {
			n.epochDirty[p] = struct{}{}
		}
	}
	// Close-time scratch is rebuilt on demand; sharing the backing
	// arrays across goroutines would race.
	n.epochPages, n.epochHash = nil, nil
	// Probes are per-controller observers (a trace Scope's sampling
	// counter is not goroutine-safe); clones start unobserved and the
	// caller attaches its own probe if it wants one.
	n.probe = nil
	return n
}

// Clone implements Controller.
func (c *SGX) Clone() Controller {
	n := new(SGX)
	*n = *c
	n.dev = c.dev.Fork()
	n.mCache = c.mCache.Clone()
	n.updateCount = c.updateCount.Clone()
	if c.st != nil {
		n.st = c.st.Clone()
		n.stNodes = make([][]merkle.GNode, len(c.stNodes))
		for i, lvl := range c.stNodes {
			n.stNodes[i] = append([]merkle.GNode(nil), lvl...)
		}
	}
	n.wl = c.wl.clone(n.dev)
	n.pending = append([]nvm.PendingWrite(nil), c.pending...)
	n.wbq = append([]cache.Victim(nil), c.wbq...)
	if c.epochSlots != nil {
		n.epochSlots = make(map[uint64]struct{}, len(c.epochSlots))
		for s := range c.epochSlots {
			n.epochSlots[s] = struct{}{}
		}
	}
	// Close-time scratch is rebuilt on demand; see Bonsai.Clone.
	n.epochOrder, n.epochHash = nil, nil
	n.probe = nil // see Bonsai.Clone
	return n
}
