package memctrl

import (
	"fmt"

	"anubis/internal/counter"
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

// startAudit opens an audit: it refuses a crashed controller, then
// writes dirty metadata back with flush so the audit covers the ground
// truth in NVM. A flush that meets an integrity error fails the audit.
func (c *core) startAudit(flush func() error) (*AuditReport, error) {
	if c.crashed {
		return nil, fmt.Errorf("memctrl: audit requires a recovered controller: %w", ErrCrashed)
	}
	if err := flush(); err != nil {
		return nil, fmt.Errorf("memctrl: audit flush: %w", err)
	}
	return &AuditReport{}, nil
}

// auditData verifies the stored copy of logical block idx under its
// counter; a block never written has nothing to verify.
func (c *core) auditData(rep *AuditReport, idx, ctr uint64) {
	phys := c.wl.phys(idx)
	if !c.dev.Has(nvm.RegionData, phys) {
		return
	}
	rep.DataBlocks++
	ct, side, _ := c.dev.ReadData(phys)
	var pt [BlockBytes]byte
	if fail := c.open(&pt, ct, &side, idx, ctr); fail != "" {
		rep.violate("data block %d fails %s", idx, fail)
	}
}

// inGeometry returns the stored blocks of region r below n, the
// region's extent, and reports every block at or beyond it: no
// controller writes there, so such a block means a damaged image.
func (c *core) inGeometry(rep *AuditReport, r nvm.Region, n uint64) []uint64 {
	blocks := c.dev.BlocksIn(r)
	k := 0
	for _, i := range blocks {
		if i < n {
			blocks[k] = i
			k++
		} else {
			rep.violate("%v block %d outside the geometry (%d blocks)", r, i, n)
		}
	}
	return blocks[:k]
}

// --- whole-memory audits ------------------------------------------------------

// AuditNVM performs a full consistency check of the NVM image against
// the on-chip roots (fsck for secure memory). Dirty metadata is flushed
// first (startAudit). The audit is read-only with respect to logical
// content and reports every class of violation it finds (capped).
func (b *Bonsai) AuditNVM() (*AuditReport, error) {
	rep, err := b.startAudit(b.FlushCaches)
	if err != nil {
		return nil, err
	}
	b.inGeometry(rep, nvm.RegionCounter, b.numPages)
	b.inGeometry(rep, nvm.RegionTree, b.geom.TotalNodes())

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
			b.auditData(rep, base+uint64(lane), s.Counter(lane))
		}
	}
	return rep, nil
}

// AuditNVM performs the SGX-family audit: every persisted metadata
// block's MAC must verify against its current parent counter (up to the
// on-chip root node), every block a non-zero parent counter covers must
// be stored, and every data block must decrypt and verify under its
// leaf counter.
func (c *SGX) AuditNVM() (*AuditReport, error) {
	rep, err := c.startAudit(c.FlushCaches)
	if err != nil {
		return nil, err
	}
	leaves := c.inGeometry(rep, nvm.RegionCounter, c.numLeaves)
	nodes := c.inGeometry(rep, nvm.RegionTree, c.geom.TotalNodes())

	parentCtr := func(r metaRef) uint64 {
		parent, slot, isRoot := c.parentOf(r)
		if isRoot {
			return c.rootNode.Ctr[slot]
		}
		pregion, pidx := c.regionIdx(parent)
		pg := counter.UnpackSGX(c.dev.Read(pregion, pidx))
		return pg.Ctr[slot]
	}
	check := func(r metaRef) counter.SGX {
		region, idx := c.regionIdx(r)
		g := counter.UnpackSGX(c.dev.Read(region, idx))
		pc := parentCtr(r)
		if g == (counter.SGX{}) && pc == 0 {
			return g
		}
		if c.eng.SGXMAC(c.addrOf(r), g.Ctr[:], pc) != g.MAC {
			rep.violate("metadata block %#x fails MAC", c.addrOf(r))
		}
		return g
	}
	for _, idx := range leaves {
		rep.CounterBlocks++
		check(metaRef{isLeaf: true, idx: idx})
	}
	rootLevel := c.geom.RootLevel()
	c.auditChildren(rep, rootLevel, 0, &c.rootNode)
	for _, flat := range nodes {
		rep.TreeNodes++
		level, i := c.geom.Unflat(flat)
		g := check(metaRef{level: level, idx: i})
		if level < rootLevel {
			c.auditChildren(rep, level, i, &g)
		}
	}

	for _, leaf := range leaves {
		g := counter.UnpackSGX(c.dev.Read(nvm.RegionCounter, leaf))
		base := leaf * counter.SGXCounters
		for lane := 0; lane < counter.SGXCounters; lane++ {
			c.auditData(rep, base+uint64(lane), g.Ctr[lane])
		}
	}
	return rep, nil
}

// auditChildren reports each child of tree node (level, i), whose
// content is g, that g's counter marks as written but NVM does not
// hold: a child's counter in its parent becomes non-zero only when the
// child is written back, so the child was lost.
func (c *SGX) auditChildren(rep *AuditReport, level int, i uint64, g *counter.SGX) {
	first, n := c.geom.ChildrenOf(level, i)
	for slot := 0; slot < n; slot++ {
		if g.Ctr[slot] == 0 {
			continue
		}
		child := metaRef{level: level - 1, idx: first + uint64(slot)}
		if level == 0 {
			child = metaRef{isLeaf: true, idx: first + uint64(slot)}
		}
		if region, idx := c.regionIdx(child); !c.dev.Has(region, idx) {
			rep.violate("metadata block %#x missing under parent counter %d", c.addrOf(child), g.Ctr[slot])
		}
	}
}
