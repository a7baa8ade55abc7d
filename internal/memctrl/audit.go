package memctrl

import (
	"fmt"

	"anubis/internal/counter"
	"anubis/internal/ecc"
	"anubis/internal/merkle"
	"anubis/internal/nvm"
)

// AuditReport summarizes a whole-memory integrity audit (fsck).
type AuditReport struct {
	DataBlocks    uint64
	CounterBlocks uint64
	TreeNodes     uint64
	Violations    []string // capped at maxViolations
}

const maxViolations = 32

// OK reports whether the audit found a fully consistent image.
func (r *AuditReport) OK() bool { return len(r.Violations) == 0 }

func (r *AuditReport) violate(format string, args ...interface{}) {
	if len(r.Violations) < maxViolations {
		r.Violations = append(r.Violations, fmt.Sprintf(format, args...))
	}
}

// --- whole-memory audits ------------------------------------------------------

// AuditNVM performs a full consistency check of the NVM image against
// the on-chip roots (fsck for secure memory). Dirty metadata is flushed
// first so the audit covers the ground truth in NVM. The audit is
// read-only with respect to logical content and reports every class of
// violation it finds (capped).
func (b *Bonsai) AuditNVM() (*AuditReport, error) {
	if b.crashed {
		return nil, fmt.Errorf("memctrl: audit requires a recovered controller: %w", ErrCrashed)
	}
	b.FlushCaches()
	rep := &AuditReport{}

	// 1. Recompute the tree from the counters; compare the root and
	// every materialized node.
	root := merkle.BuildGeneral(b.geom, b.eng,
		func(i uint64) [BlockBytes]byte { return b.dev.Read(nvm.RegionCounter, i) },
		func(flat uint64, n merkle.GNode) {
			if b.dev.Has(nvm.RegionTree, flat) {
				stored := merkle.GNode(b.dev.Read(nvm.RegionTree, flat))
				if stored != n {
					level, idx := b.geom.Unflat(flat)
					rep.violate("tree node (%d,%d) stale or corrupt", level, idx)
				}
			}
			rep.TreeNodes++
		}, nil)
	if root != b.rootHash {
		rep.violate("tree root %#x != on-chip root %#x", root, b.rootHash)
	}
	rep.CounterBlocks = b.geom.Leaves()

	// 2. Verify every data block against its counter, ECC, and MAC.
	for page := uint64(0); page < b.numPages; page++ {
		s := counter.UnpackSplit(b.dev.Read(nvm.RegionCounter, page))
		base := page * counter.SplitMinors
		for lane := 0; lane < counter.SplitMinors; lane++ {
			idx := base + uint64(lane)
			phys := b.wl.phys(idx)
			if !b.dev.Has(nvm.RegionData, phys) {
				continue
			}
			rep.DataBlocks++
			ct := b.dev.Read(nvm.RegionData, phys)
			side := b.dev.ReadSideband(phys)
			var pt [BlockBytes]byte
			b.eng.DecryptTo(pt[:], ct[:], idx, s.Counter(lane))
			if !ecc.CheckBlock(pt[:], side.ECC) {
				rep.violate("data block %d fails ECC", idx)
				continue
			}
			if b.eng.DataMAC(idx, s.Counter(lane), pt[:]) != side.MAC {
				rep.violate("data block %d fails MAC", idx)
			}
		}
	}
	return rep, nil
}

// AuditNVM performs the SGX-family audit: every persisted metadata
// block's MAC must verify against its current parent counter (up to the
// on-chip root node), and every data block must decrypt and verify
// under its leaf counter.
func (c *SGX) AuditNVM() (*AuditReport, error) {
	if c.crashed {
		return nil, fmt.Errorf("memctrl: audit requires a recovered controller: %w", ErrCrashed)
	}
	c.FlushCaches()
	rep := &AuditReport{}

	parentCtr := func(r metaRef) uint64 {
		parent, slot, isRoot := c.parentOf(r)
		if isRoot {
			return c.rootNode.Ctr[slot]
		}
		pregion, pidx := c.regionIdx(parent)
		pg := counter.UnpackSGX(c.dev.Read(pregion, pidx))
		return pg.Ctr[slot]
	}
	check := func(r metaRef) {
		region, idx := c.regionIdx(r)
		if !c.dev.Has(region, idx) {
			return
		}
		g := counter.UnpackSGX(c.dev.Read(region, idx))
		pc := parentCtr(r)
		if g == (counter.SGX{}) && pc == 0 {
			return
		}
		if c.eng.SGXMAC(c.addrOf(r), g.Ctr[:], pc) != g.MAC {
			rep.violate("metadata block %#x fails MAC", c.addrOf(r))
		}
	}
	for _, idx := range c.dev.BlocksIn(nvm.RegionCounter) {
		rep.CounterBlocks++
		check(metaRef{isLeaf: true, idx: idx})
	}
	for _, flat := range c.dev.BlocksIn(nvm.RegionTree) {
		rep.TreeNodes++
		level, i := c.geom.Unflat(flat)
		check(metaRef{level: level, idx: i})
	}

	for _, leaf := range c.dev.BlocksIn(nvm.RegionCounter) {
		g := counter.UnpackSGX(c.dev.Read(nvm.RegionCounter, leaf))
		base := leaf * counter.SGXCounters
		for lane := 0; lane < counter.SGXCounters; lane++ {
			idx := base + uint64(lane)
			phys := c.wl.phys(idx)
			if !c.dev.Has(nvm.RegionData, phys) {
				continue
			}
			rep.DataBlocks++
			ct := c.dev.Read(nvm.RegionData, phys)
			side := c.dev.ReadSideband(phys)
			var pt [BlockBytes]byte
			c.eng.DecryptTo(pt[:], ct[:], idx, g.Ctr[lane])
			if !ecc.CheckBlock(pt[:], side.ECC) {
				rep.violate("data block %d fails ECC", idx)
				continue
			}
			if c.eng.DataMAC(idx, g.Ctr[lane], pt[:]) != side.MAC {
				rep.violate("data block %d fails MAC", idx)
			}
		}
	}
	return rep, nil
}
