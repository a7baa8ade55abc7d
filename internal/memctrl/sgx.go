package memctrl

import (
	"fmt"
	"math/rand"

	"anubis/internal/cache"
	"anubis/internal/counter"
	"anubis/internal/merkle"
	"anubis/internal/nvm"
	"anubis/internal/obs"
	"anubis/internal/shadow"
)

const (
	// regSGXRoot holds the packed on-chip top node of the SGX tree: its
	// eight nonces version the top-level children (Figure 3).
	regSGXRoot = "sgx_root_node"
	// regShadowTreeRoot is ASIT's SHADOW_TREE_ROOT: the root of the small
	// general tree protecting the Shadow Table (§4.3.1). Eagerly updated
	// and persistent, while the tree body itself stays volatile.
	regShadowTreeRoot = "shadow_tree_root"

	// treeKeyBase tags tree-node keys in the combined metadata cache.
	treeKeyBase = uint64(1) << 60
)

// SGX is the parallelizable-integrity-tree controller family: SGX-style
// counter blocks (8 × 56-bit counters + 56-bit MAC) serve as both
// encryption counters and tree nodes; a node's MAC covers its own
// counters and one counter of its parent, so updates to different
// levels can proceed in parallel but the tree cannot be rebuilt from
// the leaves (§2.3.2) — the property that motivates ASIT.
//
// The tree uses the lazy (Vault/Synergy) update policy the paper
// adopts: a write dirties only the leaf counter block; a parent nonce
// is bumped, and the child's MAC rebound, when the child is written
// back. Schemes: WriteBack, Strict, Osiris (unrecoverable here), ASIT.
type SGX struct {
	core

	numLeaves uint64 // SGX counter blocks

	mCache *cache.Cache // combined metadata cache

	// Volatile mirror of the on-chip root node register.
	rootNode counter.SGX

	// ASIT state: the shadow table mirror, which holds its volatile
	// protection tree, and that tree's root.
	st     *shadow.STTable
	stRoot uint64

	// wbq is the volatile writeback buffer: dirty victims wait here
	// until the end of the operation, when drainWBQ rebinds their MACs
	// and stages them. A demand fetch for a queued block pulls it back
	// into the cache instead of reading the (stale) NVM copy — the
	// standard writeback-buffer-hit behaviour, and the reason fills can
	// never observe a block that is mid-writeback.
	wbq []cache.Victim
}

// NewSGX constructs an SGX-family controller over a fresh, zeroed
// device for cfg.Scheme, which must be a FamilySGX row of Variants.
func NewSGX(cfg Config) (*SGX, error) {
	c, err := buildSGX(cfg, nvm.NewDevice(cfg.Timing))
	if err != nil {
		return nil, err
	}
	c.wl = newWearLeveler(c.dev, c.numBlocks, cfg.WearPeriod)
	c.dev.SetReg(regSGXRoot, packSGX(&c.rootNode))
	if c.st != nil {
		c.initShadowTree()
	}
	c.dev.ResetStats()
	return c, nil
}

// OpenSGX attaches an SGX-family controller to an existing NVM device.
// The controller starts crashed: call Recover before issuing I/O.
func OpenSGX(cfg Config, dev *nvm.Device) (*SGX, error) {
	c, err := buildSGX(cfg, dev)
	if err != nil {
		return nil, err
	}
	c.crashed = true
	return c, nil
}

// buildSGX validates cfg and builds the controller state both a fresh
// device and a reopened image need: geometry, the metadata cache, and
// ASIT's shadow table with its protection-tree levels.
func buildSGX(cfg Config, dev *nvm.Device) (*SGX, error) {
	if err := cfg.validate(FamilySGX); err != nil {
		return nil, err
	}
	c := &SGX{
		core:   newCore(cfg, dev),
		mCache: cache.New(cfg.MetaCacheBlocks, cfg.MetaCacheWays),
	}
	c.numLeaves = c.numBlocks / counter.SGXCounters
	c.geom = merkle.NewGeometry(c.numLeaves)
	c.reserve(c.numLeaves)
	if cfg.Scheme == SchemeASIT {
		c.st = shadow.NewSTTable(c.mCache.NumSlots())
		c.dev.Reserve(nvm.RegionST, uint64(c.st.NumSlots()))
	}
	return c, nil
}

func packSGX(g *counter.SGX) []byte {
	b := g.Pack()
	return b[:]
}

// --- metadata block references ------------------------------------------------

// metaRef identifies a metadata block: either a counter leaf or a tree
// node at (level, idx). The on-chip root node is not a metaRef — it is
// reached through parentOf's isRoot result.
type metaRef struct {
	isLeaf bool
	level  int
	idx    uint64
}

func (c *SGX) keyOf(r metaRef) uint64 {
	if r.isLeaf {
		return r.idx
	}
	return treeKeyBase | c.geom.Flat(r.level, r.idx)
}

// refOfKey inverts keyOf (used by recovery and eviction paths).
func (c *SGX) refOfKey(key uint64) metaRef {
	if key&treeKeyBase == 0 {
		return metaRef{isLeaf: true, idx: key}
	}
	level, idx := c.geom.Unflat(key &^ treeKeyBase)
	return metaRef{level: level, idx: idx}
}

// addrOf returns the address label bound into the block's MAC.
func (c *SGX) addrOf(r metaRef) uint64 {
	if r.isLeaf {
		return r.idx
	}
	return merkle.NodeAddr(r.level, r.idx)
}

func (c *SGX) regionIdx(r metaRef) (nvm.Region, uint64) {
	if r.isLeaf {
		return nvm.RegionCounter, r.idx
	}
	return nvm.RegionTree, c.geom.Flat(r.level, r.idx)
}

// parentOf returns the parent reference of a block and the slot this
// block occupies in it; isRoot means the parent is the on-chip root
// node register.
func (c *SGX) parentOf(r metaRef) (parent metaRef, slot int, isRoot bool) {
	if r.isLeaf {
		slot = int(r.idx % merkle.Arity)
		if c.geom.RootLevel() == 0 {
			return metaRef{}, slot, true
		}
		return metaRef{level: 0, idx: r.idx / merkle.Arity}, slot, false
	}
	slot = int(r.idx % merkle.Arity)
	if r.level+1 >= c.geom.RootLevel() {
		return metaRef{}, slot, true
	}
	return metaRef{level: r.level + 1, idx: r.idx / merkle.Arity}, slot, false
}

// --- pending-aware NVM access ---------------------------------------------------

// nvmRead returns the latest content of a block, preferring writes
// staged in the current operation's atomic group (they are logically
// already in the WPQ/persistent registers).
func (c *SGX) nvmRead(region nvm.Region, idx uint64, timed bool) [BlockBytes]byte {
	for i := len(c.pending) - 1; i >= 0; i-- {
		w := c.pending[i]
		if w.RegName == "" && w.Region == region && w.Index == idx {
			return w.Block
		}
	}
	if timed {
		blk, done := c.dev.ReadAt(region, idx, c.now)
		c.now = done
		return blk
	}
	return c.dev.Read(region, idx)
}

// --- metadata fetch with verification -------------------------------------------

// parentCounterOf returns the trusted current value of the parent
// counter versioning block r, fetching (and verifying) the parent if
// needed.
func (c *SGX) parentCounterOf(r metaRef) (uint64, error) {
	parent, slot, isRoot := c.parentOf(r)
	if isRoot {
		return c.rootNode.Ctr[slot], nil
	}
	pline, err := c.getMeta(parent)
	if err != nil {
		return 0, err
	}
	pg := counter.UnpackSGX(pline.Data)
	return pg.Ctr[slot], nil
}

// getMeta returns a verified, cached metadata block (leaf counter block
// or tree node). On a miss the block is fetched from NVM and its MAC is
// verified against the parent counter (fetched recursively up to the
// first cached ancestor or the root register). A never-written block is
// accepted as the all-zero fresh block only while its parent counter is
// still zero, which is exactly the pre-first-writeback window.
func (c *SGX) getMeta(r metaRef) (*cache.Line, error) {
	key := c.keyOf(r)
	if line, ok := c.mCache.Lookup(key); ok {
		return line, nil
	}
	// Writeback-buffer hit: the block was evicted earlier in this
	// operation and is still awaiting writeback. Its content came from
	// the cache (trusted, newer than NVM), so pull it back — the queued
	// writeback is cancelled by removing the entry.
	for i := range c.wbq {
		if c.wbq[i].Key == key {
			data := c.wbq[i].Data
			c.wbq = append(c.wbq[:i], c.wbq[i+1:]...)
			line := c.insertQueueingVictim(key, data)
			c.mCache.MarkDirty(key)
			if c.cfg.Scheme == SchemeASIT {
				// The block re-enters (possibly) a different slot; its
				// shadow entry must track the new slot, because the old
				// slot's entry can be overwritten by a future occupant,
				// leaving this dirty block untracked across a crash.
				g := counter.UnpackSGX(line.Data)
				if err := c.shadowMeta(r, line, &g); err != nil {
					return nil, err
				}
			}
			return line, nil
		}
	}
	region, idx := c.regionIdx(r)
	blk := c.nvmRead(region, idx, true)
	pc, err := c.parentCounterOf(r)
	if err != nil {
		return nil, err
	}
	// The parent walk can have re-inserted this very block from the
	// writeback buffer (a victim's parent chain may touch it); use the
	// resident copy then.
	if line, ok := c.mCache.Lookup(key); ok {
		return line, nil
	}
	g := counter.UnpackSGX(blk)
	if blk == ([BlockBytes]byte{}) && pc == 0 {
		// Fresh uninitialized block: valid by construction.
	} else {
		want := c.eng.SGXMAC(c.addrOf(r), g.Ctr[:], pc)
		if g.MAC != want {
			return nil, &IntegrityError{What: "sgx node MAC mismatch", Addr: c.addrOf(r)}
		}
	}
	return c.insertQueueingVictim(key, blk), nil
}

// insertQueueingVictim inserts a block, parking any dirty victim in the
// writeback buffer for the end-of-operation drain.
func (c *SGX) insertQueueingVictim(key uint64, blk [BlockBytes]byte) *cache.Line {
	line, victim := c.mCache.Insert(key, blk)
	if victim != nil && victim.Dirty {
		c.wbq = append(c.wbq, *victim)
	}
	return line
}

// writeBackVictim implements the lazy update policy's eviction path: the
// parent nonce for the victim is incremented, the victim's MAC is
// rebound to the new nonce, and the victim is persisted. Under ASIT the
// parent's shadow entry is refreshed (it was modified) and the victim's
// shadow slot is cleared (its NVM copy is now current) — all within the
// surrounding operation's atomic group.
func (c *SGX) writeBackVictim(v *cache.Victim) error {
	if v == nil || !v.Dirty {
		return nil
	}
	r := c.refOfKey(v.Key)
	g := counter.UnpackSGX(v.Data)

	parent, slot, isRoot := c.parentOf(r)
	var newParentCtr uint64
	if isRoot {
		if c.rootNode.Increment(slot) {
			return fmt.Errorf("memctrl: root nonce wraparound")
		}
		newParentCtr = c.rootNode.Ctr[slot]
		c.pending = append(c.pending, nvm.PendingWrite{RegName: regSGXRoot, Block: toBlock(packSGX(&c.rootNode))})
	} else {
		pline, err := c.getMeta(parent)
		if err != nil {
			return err
		}
		pg := counter.UnpackSGX(pline.Data)
		if pg.Increment(slot) {
			return fmt.Errorf("memctrl: nonce wraparound at level %d", parent.level)
		}
		pline.Data = pg.Pack()
		c.mCache.MarkDirty(c.keyOf(parent))
		newParentCtr = pg.Ctr[slot]
		if c.cfg.Scheme == SchemeASIT {
			if err := c.shadowMeta(parent, pline, &pg); err != nil {
				return err
			}
		}
	}

	g.MAC = c.eng.SGXMAC(c.addrOf(r), g.Ctr[:], newParentCtr)
	region, idx := c.regionIdx(r)
	c.pending = append(c.pending, nvm.PendingWrite{Region: region, Index: idx, Block: g.Pack()})
	if c.probe != nil {
		// The write itself drains with the operation's commit group; the
		// eviction is an instant at the decision point.
		c.probe.Event(obs.EvEviction, c.now, c.now, v.Key)
	}
	// Under ASIT the victim's shadow entry is deliberately left in
	// place: its MAC covers the full counter values, so recovering it
	// onto the just-written-back copy reproduces the same state.
	return nil
}

func toBlock(b []byte) (out [BlockBytes]byte) {
	copy(out[:], b)
	return out
}

// --- ASIT shadow table maintenance ----------------------------------------------

// initShadowTree builds the volatile protection tree over the (empty)
// shadow table and persists its root.
func (c *SGX) initShadowTree() {
	c.stRoot = c.buildShadowTree(nil)
	c.dev.SetReg64(regShadowTreeRoot, c.stRoot)
}

// buildShadowTree rebuilds the whole protection tree over the shadow
// table mirror and returns its root, counting each hash in ops.
func (c *SGX) buildShadowTree(ops *uint64) uint64 {
	return merkle.BuildGeneral(*c.st.Tree(), c.eng,
		func(i uint64) [BlockBytes]byte { return c.st.Block(int(i)) },
		func(flat uint64, n merkle.GNode) { *c.st.Node(flat) = n }, ops)
}

// refreshShadowPath recomputes the protection tree path above ST leaf
// `slot` (eager update: SHADOW_TREE_ROOT always reflects the table) and
// stages the new root register value.
func (c *SGX) refreshShadowPath(slot int) {
	childHash := c.eng.ContentHash(blockSlice(c.st.Block(slot)))
	childIdx := uint64(slot)
	geom := c.st.Tree()
	for level := 0; level < geom.Levels(); level++ {
		nodeIdx := childIdx / merkle.Arity
		node := c.st.Node(geom.Flat(level, nodeIdx))
		node.SetHash(int(childIdx%merkle.Arity), childHash)
		childHash = c.eng.ContentHash(node[:])
		childIdx = nodeIdx
	}
	c.stRoot = childHash
	var reg [BlockBytes]byte
	putU64(reg[:], c.stRoot)
	c.pending = append(c.pending, nvm.PendingWrite{RegName: regShadowTreeRoot, Block: reg})
}

func blockSlice(b [BlockBytes]byte) []byte { return b[:] }

// shadowMeta writes the ASIT shadow entry for a modified metadata block:
// address, MAC over the full updated counter values, and the 49-bit
// counter LSBs (Figure 9b). Because the MAC covers the complete
// counters (not just the shadow-stored LSBs), a stale entry left behind
// by an eviction is self-consistent — recovery splices it onto the
// freshly written-back node and reproduces the same state — so entries
// never need to be cleared. A 49-bit LSB overflow forces the node
// itself to be persisted so the in-memory MSBs stay current.
func (c *SGX) shadowMeta(r metaRef, line *cache.Line, g *counter.SGX) error {
	mac := c.eng.STMAC(c.addrOf(r), g.Ctr[:])
	var e shadow.STEntry
	e.Key = c.keyOf(r)
	e.MAC = mac
	overflow := false
	for i := 0; i < counter.SGXCounters; i++ {
		e.LSBs[i] = g.Ctr[i] & counter.LSBMask
		if g.Ctr[i] != 0 && e.LSBs[i] == 0 {
			overflow = true
		}
	}
	slot := line.Slot()
	bi, blk := c.st.Set(slot, e)
	c.stats.ShadowWrites++
	c.pending = append(c.pending, nvm.PendingWrite{Region: nvm.RegionST, Index: bi, Block: blk})
	c.refreshShadowPath(slot)
	if overflow {
		// Persist the node so recovery's MSB splice stays exact. The
		// NVM copy needs a run-time MAC bound to the parent counter to
		// pass fetch verification later.
		pc, err := c.parentCounterOf(r)
		if err != nil {
			return err
		}
		persisted := *g
		persisted.MAC = c.eng.SGXMAC(c.addrOf(r), g.Ctr[:], pc)
		region, idx := c.regionIdx(r)
		c.stats.StopLossWrites++
		c.pending = append(c.pending, nvm.PendingWrite{Region: region, Index: idx, Block: persisted.Pack()})
	}
	return nil
}

// --- data path --------------------------------------------------------------------

// ReadBlock decrypts and verifies one data block.
func (c *SGX) ReadBlock(idx uint64) ([BlockBytes]byte, error) {
	var zero [BlockBytes]byte
	if err := c.checkAddr(idx); err != nil {
		return zero, err
	}
	c.stats.ReadRequests++
	leaf, lane := idx/counter.SGXCounters, int(idx%counter.SGXCounters)

	// The data pointer stays valid across finishOp too: a read
	// operation's atomic group only ever holds metadata writes.
	f := c.fetchData(idx)
	line, err := c.getMeta(metaRef{isLeaf: true, idx: leaf})
	if err != nil {
		c.finishOp()
		return zero, err
	}
	g := counter.UnpackSGX(line.Data)
	c.chargeData(&f)
	if err := c.finishOp(); err != nil {
		return zero, err
	}
	return c.openData(&f, g.Ctr[lane])
}

// WriteBlock encrypts and persists one data block plus the metadata
// updates of the configured scheme, atomically.
func (c *SGX) WriteBlock(idx uint64, data [BlockBytes]byte) error {
	if err := c.checkAddr(idx); err != nil {
		return err
	}
	c.stats.WriteRequests++
	leaf, lane := idx/counter.SGXCounters, int(idx%counter.SGXCounters)

	r := metaRef{isLeaf: true, idx: leaf}
	line, err := c.getMeta(r)
	if err != nil {
		c.finishOp()
		return err
	}
	g := counter.UnpackSGX(line.Data)
	if g.Increment(lane) {
		return fmt.Errorf("memctrl: 56-bit encryption counter wraparound")
	}
	line.Data = g.Pack()

	switch c.cfg.Scheme {
	case SchemeStrict:
		if err := c.strictPropagate(r, line, &g); err != nil {
			c.finishOp()
			return err
		}
	case SchemeOsiris:
		c.mCache.MarkDirty(c.keyOf(r))
		if line.Unpersisted++; int(line.Unpersisted) >= c.cfg.StopLoss {
			line.Unpersisted = 0
			c.stats.StopLossWrites++
			c.mCache.Pin(c.keyOf(r))
			pc, err := c.parentCounterOf(r)
			c.mCache.Unpin(c.keyOf(r))
			if err != nil {
				c.finishOp()
				return err
			}
			persisted := g
			persisted.MAC = c.eng.SGXMAC(c.addrOf(r), g.Ctr[:], pc)
			c.pending = append(c.pending, nvm.PendingWrite{Region: nvm.RegionCounter, Index: leaf, Block: persisted.Pack()})
		}
	case SchemeASIT:
		c.mCache.MarkDirty(c.keyOf(r))
		// Pin the leaf: shadowMeta fetches the parent, and the eviction
		// chain that fetch can trigger must not displace the line whose
		// slot the shadow entry is being written for.
		c.mCache.Pin(c.keyOf(r))
		err := c.shadowMeta(r, line, &g)
		c.mCache.Unpin(c.keyOf(r))
		if err != nil {
			c.finishOp()
			return err
		}
	default: // WriteBack
		c.mCache.MarkDirty(c.keyOf(r))
	}

	c.seal(idx, g.Ctr[lane], &data)

	c.now += HashNS
	c.dev.Attr().Add(obs.CompCrypto, HashNS)
	if err := c.finishOp(); err != nil {
		return err
	}
	c.now = c.wl.recordWrite(c.now)
	return nil
}

// strictPropagate implements strict persistence on the SGX tree: the
// write propagates to the root eagerly — every ancestor nonce is
// incremented, every node on the path has its MAC rebound and is
// persisted immediately (≥ levels+1 NVM writes per memory write).
// The current node stays pinned while its parent is fetched so eviction
// chains triggered by the fetch cannot displace it.
func (c *SGX) strictPropagate(r metaRef, line *cache.Line, g *counter.SGX) error {
	cur := r
	curLine := line
	curG := *g
	c.mCache.Pin(c.keyOf(cur))
	defer func() { c.mCache.Unpin(c.keyOf(cur)) }()
	for {
		parent, slot, isRoot := c.parentOf(cur)
		if isRoot {
			if c.rootNode.Increment(slot) {
				return fmt.Errorf("memctrl: root nonce wraparound")
			}
			curG.MAC = c.eng.SGXMAC(c.addrOf(cur), curG.Ctr[:], c.rootNode.Ctr[slot])
			curLine.Data = curG.Pack()
			region, idx := c.regionIdx(cur)
			c.stats.StrictWrites++
			c.pending = append(c.pending, nvm.PendingWrite{Region: region, Index: idx, Block: curLine.Data})
			c.pending = append(c.pending, nvm.PendingWrite{RegName: regSGXRoot, Block: toBlock(packSGX(&c.rootNode))})
			return nil
		}
		pline, err := c.getMeta(parent)
		if err != nil {
			return err
		}
		c.mCache.Pin(c.keyOf(parent))
		pg := counter.UnpackSGX(pline.Data)
		if pg.Increment(slot) {
			c.mCache.Unpin(c.keyOf(parent))
			return fmt.Errorf("memctrl: nonce wraparound at level %d", parent.level)
		}
		pline.Data = pg.Pack()
		curG.MAC = c.eng.SGXMAC(c.addrOf(cur), curG.Ctr[:], pg.Ctr[slot])
		curLine.Data = curG.Pack()
		region, idx := c.regionIdx(cur)
		c.stats.StrictWrites++
		c.pending = append(c.pending, nvm.PendingWrite{Region: region, Index: idx, Block: curLine.Data})
		c.mCache.Unpin(c.keyOf(cur))
		cur, curLine, curG = parent, pline, pg
		// cur (the old parent) is already pinned; the deferred unpin
		// releases whichever node is current when the loop exits.
	}
}

// drainWBQ writes back every victim parked in the writeback buffer.
// Draining can fetch ancestors, whose fills may park further victims;
// the loop runs until the buffer is empty. A drained victim's block can
// also be pulled back into the cache by a fetch mid-drain, in which
// case its queue entry has been removed and the writeback is cancelled.
func (c *SGX) drainWBQ() error {
	for len(c.wbq) > 0 {
		v := c.wbq[0]
		c.wbq = c.wbq[1:]
		if err := c.writeBackVictim(&v); err != nil {
			return err
		}
	}
	return nil
}

// finishOp completes an operation: drain pending writebacks, then
// commit the atomic group.
func (c *SGX) finishOp() error {
	err := c.drainWBQ()
	c.commitPending()
	return err
}

// --- lifecycle ----------------------------------------------------------------------

// FlushCaches writes back all dirty metadata through the regular
// eviction path (parent nonces are bumped and MACs rebound), leaving
// NVM fully consistent. It stops at the first integrity error a
// writeback's parent fetch reports.
func (c *SGX) FlushCaches() error {
	// Iterate until stable: writing a block back dirties its parent.
	for {
		var dirty []uint64
		c.mCache.Iterate(func(l *cache.Line) {
			if l.Dirty {
				dirty = append(dirty, l.Key)
			}
		})
		if len(dirty) == 0 {
			break
		}
		for _, key := range dirty {
			l, ok := c.mCache.Peek(key)
			if !ok || !l.Dirty {
				continue
			}
			v := &cache.Victim{Key: key, Data: l.Data, Dirty: true, Slot: l.Slot()}
			l.Dirty, l.Unpersisted = false, 0
			err := c.writeBackVictim(v)
			if err == nil {
				err = c.drainWBQ()
			}
			if err != nil {
				c.finishOp()
				return err
			}
		}
		c.commitPending()
	}
	return nil
}

// Crash models a power failure.
func (c *SGX) Crash() { c.CrashWith(nvm.CrashFullADR, nil) }

// CrashWith is Crash under an injectable persistence model (see
// nvm.CrashModel). Volatile controller state is lost identically under
// every model.
func (c *SGX) CrashWith(model nvm.CrashModel, rng *rand.Rand) {
	c.crash(model, rng)
	c.mCache.DropAll()
	c.wbq = c.wbq[:0]
	c.rootNode = counter.SGX{}
	if c.cfg.Scheme == SchemeASIT {
		// The mirror and its protection tree are lost; recovery
		// rebuilds both from NVM.
		c.st.Drop()
		c.stRoot = 0
	}
}

// Stats returns run-time statistics.
func (c *SGX) Stats() RunStats {
	s := c.baseStats()
	s.TreeCache = c.mCache.Stats()
	return s
}
