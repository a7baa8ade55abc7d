package memctrl

import (
	"fmt"
	"math/rand"

	"anubis/internal/cache"
	"anubis/internal/counter"
	"anubis/internal/cryptoeng"
	"anubis/internal/ecc"
	"anubis/internal/merkle"
	"anubis/internal/nvm"
	"anubis/internal/obs"
	"anubis/internal/shadow"
)

// regBonsaiRoot is the on-chip persistent register holding the general
// Merkle tree's root hash. With the eager update policy it always
// reflects the most recent counter state, including not-yet-persisted
// cache content (§2.6), which is what makes AGIT recovery verifiable.
const regBonsaiRoot = "bonsai_mt_root"

// Bonsai is the general-integrity-tree controller family: split-counter
// encryption, Bonsai Merkle tree (counters as leaves, data protected by
// a MAC over data+counter), eager tree updates. Supports the schemes of
// Figure 10: WriteBack, Strict, Osiris, AGIT-Read, AGIT-Plus.
type Bonsai struct {
	cfg  Config
	dev  *nvm.Device
	eng  *cryptoeng.Engine
	geom merkle.Geometry

	numBlocks uint64 // data blocks
	numPages  uint64 // counter blocks / tree leaves

	cCache *cache.Cache // counter cache
	tCache *cache.Cache // Merkle tree cache

	sct *shadow.AddrTable // AGIT schemes only
	smt *shadow.AddrTable

	// updateCount tracks un-persisted updates per cached counter block
	// for the Osiris stop-loss rule. Paged (see nvm.Counters): the write
	// hot path pays two slice indexations instead of a map hash.
	updateCount nvm.Counters

	// Volatile mirror of the on-chip root register.
	rootHash uint64

	// Zero-initialization support: the hash of an all-zero leaf and the
	// default (all-children-default) node content and hash per level.
	defLeafHash uint64
	defNode     []merkle.GNode
	defNodeHash []uint64

	// wl is the optional Start-Gap wear leveler over the data region.
	wl *wearLeveler

	now     uint64
	stats   RunStats
	crashed bool

	// probe observes simulation events (evictions, commits, overflows,
	// recovery). Nil by default: every emission site is a single
	// predictable nil-check branch, so the disabled path costs nothing
	// and cannot perturb simulated timing.
	probe obs.Probe

	// pending accumulates the current operation's atomic write group.
	pending []nvm.PendingWrite

	// Epoch pipeline state (cfg.EpochRequests > 1 only; see
	// bonsai_epoch.go): writes since the last close, the set of counter
	// pages with deferred tree-path updates, and reusable close-time
	// scratch. All volatile — lost at crash; the device-side epoch
	// journal is the persistent record of the open window.
	epochWrites int
	epochDirty  map[uint64]struct{}
	epochPages  []uint64
	epochHash   []uint64
}

// NewBonsai constructs a Bonsai-family controller for cfg.Scheme, which
// must be one of WriteBack, Strict, Osiris, AGITRead, AGITPlus.
func NewBonsai(cfg Config) (*Bonsai, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	switch cfg.Scheme {
	case SchemeWriteBack, SchemeStrict, SchemeOsiris, SchemeAGITRead, SchemeAGITPlus, SchemeSelective, SchemeTriad:
	default:
		return nil, fmt.Errorf("memctrl: scheme %v is not a general-tree scheme", cfg.Scheme)
	}
	b := &Bonsai{
		cfg:       cfg,
		dev:       nvm.NewDevice(cfg.Timing),
		eng:       cryptoeng.NewTestEngine(),
		numBlocks: cfg.MemoryBytes / BlockBytes,
		numPages:  cfg.MemoryBytes / PageBytes,
		cCache:    cache.New(cfg.CounterCacheBlocks, cfg.CounterCacheWays),
		tCache:    cache.New(cfg.TreeCacheBlocks, cfg.TreeCacheWays),
	}
	b.geom = merkle.NewGeometry(b.numPages)
	b.wl = newWearLeveler(b.dev, b.numBlocks, cfg.WearPeriod)
	if b.agit() {
		b.sct = shadow.NewAddrTable(b.cCache.NumSlots())
		b.smt = shadow.NewAddrTable(b.tCache.NumSlots())
	}
	if cfg.EpochRequests > 1 {
		b.epochDirty = make(map[uint64]struct{}, cfg.EpochRequests)
	}
	b.reserveRegions()
	b.initTreeDefaults()
	b.dev.ResetStats()
	return b, nil
}

func (b *Bonsai) agit() bool {
	return b.cfg.Scheme == SchemeAGITRead || b.cfg.Scheme == SchemeAGITPlus
}

// reserveRegions declares every region's extent to the device so page
// directories are allocated once at final size (the +1 on the data
// region covers the Start-Gap spare line).
func (b *Bonsai) reserveRegions() {
	b.dev.Reserve(nvm.RegionData, b.numBlocks+1)
	b.dev.Reserve(nvm.RegionCounter, b.numPages)
	b.dev.Reserve(nvm.RegionTree, b.geom.TotalNodes())
	if b.sct != nil {
		b.dev.Reserve(nvm.RegionSCT, b.sct.NumBlocks())
		b.dev.Reserve(nvm.RegionSMT, b.smt.NumBlocks())
	}
	b.updateCount.Reserve(b.numPages)
}

// computeTreeDefaults derives the per-level default node contents and
// hashes of the zero-memory tree — a pure computation shared by fresh
// construction and by opening an existing image.
func (b *Bonsai) computeTreeDefaults() {
	var zero [BlockBytes]byte
	b.defLeafHash = b.eng.ContentHash(zero[:])
	b.defNode = make([]merkle.GNode, b.geom.Levels())
	b.defNodeHash = make([]uint64, b.geom.Levels())
	childDefHash := b.defLeafHash
	for l := 0; l < b.geom.Levels(); l++ {
		var def merkle.GNode
		for s := 0; s < merkle.Arity; s++ {
			def.SetHash(s, childDefHash)
		}
		b.defNode[l] = def
		b.defNodeHash[l] = b.eng.ContentHash(def[:])
		childDefHash = b.defNodeHash[l]
	}
}

// initTreeDefaults initializes a FRESH zero memory in O(depth): all
// leaves are zero counter blocks, so every full node of a level is
// identical; only the ragged right-edge nodes (fewer than 8 children)
// are materialized in NVM, and the root register is seeded.
func (b *Bonsai) initTreeDefaults() {
	b.computeTreeDefaults()
	childDefHash := b.defLeafHash
	lastChildHash := b.defLeafHash
	for l := 0; l < b.geom.Levels(); l++ {
		lastIdx := b.geom.NodesAt(l) - 1
		_, n := b.geom.ChildrenOf(l, lastIdx)
		var last merkle.GNode
		for s := 0; s < n; s++ {
			last.SetHash(s, childDefHash)
		}
		if n > 0 {
			last.SetHash(n-1, lastChildHash)
		}
		if last != b.defNode[l] {
			b.dev.WriteRaw(nvm.RegionTree, b.geom.Flat(l, lastIdx), last)
		}
		lastChildHash = b.eng.ContentHash(last[:])
		childDefHash = b.defNodeHash[l]
	}
	b.rootHash = lastChildHash
	b.dev.SetReg64(regBonsaiRoot, b.rootHash)
}

// Scheme returns the configured scheme.
func (b *Bonsai) Scheme() Scheme { return b.cfg.Scheme }

// NumBlocks returns the data block count.
func (b *Bonsai) NumBlocks() uint64 { return b.numBlocks }

// Device exposes the NVM device.
func (b *Bonsai) Device() *nvm.Device { return b.dev }

// Now returns the controller's virtual time.
func (b *Bonsai) Now() uint64 { return b.now }

// AdvanceTo moves virtual time forward (CPU think time between
// requests, attributed as cpu_gap).
func (b *Bonsai) AdvanceTo(t uint64) {
	if t > b.now {
		b.dev.Attr().Add(obs.CompCPUGap, t-b.now)
		b.now = t
	}
}

// SetProbe attaches (or detaches, with nil) an event probe.
func (b *Bonsai) SetProbe(p obs.Probe) { b.probe = p }

// Stats returns run-time statistics.
func (b *Bonsai) Stats() RunStats {
	s := b.stats
	s.NVM = b.dev.Stats()
	s.CounterCache = b.cCache.Stats()
	s.TreeCache = b.tCache.Stats()
	s.Attribution = *b.dev.Attr()
	return s
}

// --- NVM views with zero-default semantics -----------------------------------

// treeNodeNVM returns a tree node's NVM content, substituting the
// level's default for never-written nodes. Timed variants advance the
// clock; untimed variants are for recovery (which counts its own ops).
func (b *Bonsai) treeNodeNVM(flat uint64) merkle.GNode {
	blk, ok := b.dev.ReadPtr(nvm.RegionTree, flat) // costs a fetch either way
	if ok {
		return *blk
	}
	level, _ := b.geom.Unflat(flat)
	return b.defNode[level]
}

func (b *Bonsai) treeNodeNVMTimed(flat uint64) merkle.GNode {
	blk, ok, done := b.dev.ReadAtPtr(nvm.RegionTree, flat, b.now)
	b.now = done
	if ok {
		return *blk
	}
	level, _ := b.geom.Unflat(flat)
	return b.defNode[level]
}

// --- metadata fetch with verification ----------------------------------------

// getTreeNode returns a verified, cached tree node line. On a miss the
// node is fetched, verified against its parent (recursively, up to the
// first cached ancestor or the on-chip root), and inserted.
func (b *Bonsai) getTreeNode(level int, idx uint64) (*cache.Line, error) {
	flat := b.geom.Flat(level, idx)
	if line, ok := b.tCache.Lookup(flat); ok {
		return line, nil
	}
	node := b.treeNodeNVMTimed(flat)
	h := b.eng.ContentHash(node[:])
	if level == b.geom.RootLevel() {
		if h != b.rootHash {
			return nil, &IntegrityError{What: "merkle root mismatch", Addr: flat}
		}
	} else {
		pl, pi, slot := b.geom.Parent(level, idx)
		parent, err := b.getTreeNode(pl, pi)
		if err != nil {
			return nil, err
		}
		pn := merkle.GNode(parent.Data)
		if pn.Hash(slot) != h {
			return nil, &IntegrityError{What: "merkle node hash mismatch", Addr: flat}
		}
	}
	line, victim := b.tCache.Insert(flat, node)
	b.writeBackTreeVictim(victim)
	if b.cfg.Scheme == SchemeAGITRead {
		b.shadowTreeSlot(line.Slot(), flat)
	}
	return line, nil
}

// getCounterBlock returns a verified, cached counter block line.
func (b *Bonsai) getCounterBlock(page uint64) (*cache.Line, error) {
	if line, ok := b.cCache.Lookup(page); ok {
		return line, nil
	}
	// Zero-copy fetch: blk points into the device's paged store (or the
	// shared zero block). Nothing below writes the counter region before
	// the Insert copy, so the pointer stays valid.
	blk, _, done := b.dev.ReadAtPtr(nvm.RegionCounter, page, b.now)
	b.now = done
	if b.dev.JournalLen() > 0 {
		if je, ok := b.dev.JournalLookup(page); ok {
			// Mid-epoch refetch of a journaled block: the on-chip epoch
			// journal holds the authoritative content (NVM and the tree
			// still describe the epoch start). The journal lives inside
			// the persistence domain, so no tree verification applies.
			line, victim := b.cCache.Insert(page, je.New)
			b.writeBackCounterVictim(victim)
			if b.cfg.Scheme == SchemeAGITRead {
				b.shadowCounterSlot(line.Slot(), page)
			}
			return line, nil
		}
	}
	h := b.eng.ContentHash(blk[:])
	pnode, slot := b.geom.LeafParent(page)
	parent, err := b.getTreeNode(0, pnode)
	if err != nil {
		return nil, err
	}
	pn := merkle.GNode(parent.Data)
	if pn.Hash(slot) != h {
		return nil, &IntegrityError{What: "counter block hash mismatch", Addr: page}
	}
	line, victim := b.cCache.Insert(page, *blk)
	b.writeBackCounterVictim(victim)
	if b.cfg.Scheme == SchemeAGITRead {
		b.shadowCounterSlot(line.Slot(), page)
	}
	return line, nil
}

func (b *Bonsai) writeBackTreeVictim(v *cache.Victim) {
	if v == nil || !v.Dirty {
		return
	}
	start := b.now
	b.now = b.dev.Push(nvm.PendingWrite{Region: nvm.RegionTree, Index: v.Key, Block: v.Data}, b.now)
	if b.probe != nil {
		b.probe.Event(obs.EvEviction, start, b.now, v.Key)
	}
}

func (b *Bonsai) writeBackCounterVictim(v *cache.Victim) {
	if v == nil {
		return
	}
	b.updateCount.Set(v.Key, 0)
	if !v.Dirty {
		return
	}
	start := b.now
	b.now = b.dev.Push(nvm.PendingWrite{Region: nvm.RegionCounter, Index: v.Key, Block: v.Data}, b.now)
	if b.probe != nil {
		b.probe.Event(obs.EvEviction, start, b.now, v.Key)
	}
}

// shadowCounterSlot persists an SCT entry (Figure 6): slot -> page.
func (b *Bonsai) shadowCounterSlot(slot int, page uint64) {
	bi, blk := b.sct.Set(slot, page)
	b.stats.ShadowWrites++
	b.now = b.dev.Push(nvm.PendingWrite{Region: nvm.RegionSCT, Index: bi, Block: blk}, b.now)
}

// shadowTreeSlot persists an SMT entry: slot -> flat node index.
func (b *Bonsai) shadowTreeSlot(slot int, flat uint64) {
	bi, blk := b.smt.Set(slot, flat)
	b.stats.ShadowWrites++
	b.now = b.dev.Push(nvm.PendingWrite{Region: nvm.RegionSMT, Index: bi, Block: blk}, b.now)
}

// --- data path -----------------------------------------------------------------

func (b *Bonsai) checkAddr(idx uint64) error {
	if b.crashed {
		return ErrCrashed
	}
	if idx >= b.numBlocks {
		return fmt.Errorf("memctrl: block %d out of range (%d blocks)", idx, b.numBlocks)
	}
	return nil
}

// ReadBlock decrypts and verifies one data block.
func (b *Bonsai) ReadBlock(idx uint64) ([BlockBytes]byte, error) {
	var zero [BlockBytes]byte
	if err := b.checkAddr(idx); err != nil {
		return zero, err
	}
	b.stats.ReadRequests++
	page, lane := idx/counter.SplitMinors, int(idx%counter.SplitMinors)

	// Data fetch overlaps the metadata walk: both start now. The
	// zero-copy pointer stays valid across the metadata walk because
	// nothing in it writes the data region.
	start := b.now
	phys := b.wl.phys(idx)
	// Quiet read: the fetch overlaps the (attributed) metadata walk, so
	// only the visible residual below is charged, as data_read.
	ct, has, dataDone := b.dev.ReadAtPtrQuiet(nvm.RegionData, phys, start)
	line, err := b.getCounterBlock(page)
	if err != nil {
		return zero, err
	}
	if dataDone > b.now {
		b.dev.Attr().Add(obs.CompDataRead, dataDone-b.now)
		b.now = dataDone
	}
	b.now += b.cfg.HashNS // MAC verification (path verifications overlap)
	b.dev.Attr().Add(obs.CompCrypto, b.cfg.HashNS)

	if !has {
		return zero, nil // never written: logical zeros
	}
	s := counter.UnpackSplit(line.Data)
	ctr := s.Counter(lane)
	var pt [BlockBytes]byte
	b.eng.DecryptTo(pt[:], ct[:], idx, ctr)
	side := b.dev.ReadSideband(phys)
	if !ecc.CheckBlock(pt[:], side.ECC) {
		return zero, &IntegrityError{What: "data ECC mismatch", Addr: idx}
	}
	if b.eng.DataMAC(idx, ctr, pt[:]) != side.MAC {
		return zero, &IntegrityError{What: "data MAC mismatch", Addr: idx}
	}
	return pt, nil
}

// WriteBlock encrypts and persists one data block with all metadata
// updates the configured scheme requires, atomically (§2.7). With
// cfg.EpochRequests > 1 the eager tree update is deferred into the
// epoch pipeline (bonsai_epoch.go); otherwise the legacy lockstep path
// runs, byte-identical to pre-epoch builds.
func (b *Bonsai) WriteBlock(idx uint64, data [BlockBytes]byte) error {
	if b.cfg.EpochRequests > 1 {
		return b.writeBlockEpoch(idx, data)
	}
	return b.writeBlockLegacy(idx, data)
}

func (b *Bonsai) writeBlockLegacy(idx uint64, data [BlockBytes]byte) error {
	if err := b.checkAddr(idx); err != nil {
		return err
	}
	b.stats.WriteRequests++
	page, lane := idx/counter.SplitMinors, int(idx%counter.SplitMinors)

	line, err := b.getCounterBlock(page)
	if err != nil {
		return err
	}
	b.pending = b.pending[:0]

	s := counter.UnpackSplit(line.Data)
	old := s
	if s.Increment(lane) {
		// Minor overflow: the page is re-encrypted under the new major
		// counter and the counter block force-persisted, so Osiris-style
		// recovery never needs to guess across an overflow.
		if err := b.reencryptPage(page, &old, &s); err != nil {
			return err
		}
	}
	line.Data = s.Pack()
	if b.cfg.Scheme == SchemeStrict {
		// Strict persistence: the counter write goes out immediately;
		// the cached copy stays clean.
		b.stats.StrictWrites++
		b.pending = append(b.pending, nvm.PendingWrite{Region: nvm.RegionCounter, Index: page, Block: line.Data})
	} else if b.cfg.Scheme == SchemeTriad {
		// Triad-NVM: counters persist on every write (the tree path up
		// to TriadLevels is handled in updateTreePath).
		b.stats.StrictWrites++
		b.cCache.MarkDirty(page)
		b.pending = append(b.pending, nvm.PendingWrite{Region: nvm.RegionCounter, Index: page, Block: line.Data})
	} else if b.cfg.Scheme == SchemeSelective && b.inPersistentRegion(idx) {
		// Selective counter atomicity: persistent-region counters are
		// written through (the cached copy stays dirty for reuse; the
		// NVM copy is always current). Tree nodes are never persisted
		// per-write — that is exactly the scheme's recovery weakness.
		b.stats.StrictWrites++
		b.cCache.MarkDirty(page)
		b.pending = append(b.pending, nvm.PendingWrite{Region: nvm.RegionCounter, Index: page, Block: line.Data})
	} else {
		first := b.cCache.MarkDirty(page)
		if first && b.cfg.Scheme == SchemeAGITPlus {
			b.shadowCounterSlot(line.Slot(), page)
		}
	}

	// Osiris stop-loss: persist the counter block every StopLoss-th
	// un-persisted update (also applies to the AGIT schemes, which rely
	// on Osiris to fix tracked counters). Phase-based recovery carries
	// the counter's low bits with the data instead, so drift is bounded
	// without any extra counter writes.
	if b.cfg.Scheme != SchemeWriteBack && b.cfg.Scheme != SchemeStrict &&
		b.cfg.Scheme != SchemeSelective && b.cfg.Recovery != RecoveryPhase {
		if b.updateCount.Inc(page) >= b.cfg.StopLoss {
			b.updateCount.Set(page, 0)
			b.stats.StopLossWrites++
			b.pending = append(b.pending, nvm.PendingWrite{Region: nvm.RegionCounter, Index: page, Block: line.Data})
		}
	}

	// Encrypt the data under the fresh counter; ECC covers the plaintext
	// (the Osiris sanity check), the MAC binds data to counter+address.
	ctr := s.Counter(lane)
	var ctBlk [BlockBytes]byte
	b.eng.EncryptTo(ctBlk[:], data[:], idx, ctr)
	side := nvm.Sideband{ECC: ecc.EncodeBlock(data[:]), MAC: b.eng.DataMAC(idx, ctr, data[:]), Phase: uint8(ctr)}
	b.pending = append(b.pending, nvm.PendingWrite{Region: nvm.RegionData, Index: b.wl.phys(idx), Block: ctBlk, HasSide: true, Side: side})

	// Eager tree update: propagate the leaf change to the on-chip root.
	if err := b.updateTreePath(page, line.Data); err != nil {
		return err
	}

	// Root register joins the atomic group so NVM content and the root
	// can never disagree across a crash.
	var rootBlk [BlockBytes]byte
	putU64(rootBlk[:], b.rootHash)
	b.pending = append(b.pending, nvm.PendingWrite{RegName: regBonsaiRoot, Block: rootBlk})

	b.now += b.cfg.HashNS // pipelined encrypt+MAC engine occupancy
	b.dev.Attr().Add(obs.CompCrypto, b.cfg.HashNS)
	b.commitPending()
	b.now = b.wl.recordWrite(b.now)
	return nil
}

// updateTreePath applies the eager update policy: every ancestor of the
// counter block is updated in cache (strict persistence additionally
// stages each updated node for write-out and keeps the lines clean).
func (b *Bonsai) updateTreePath(page uint64, counterBlock [BlockBytes]byte) error {
	childHash := b.eng.ContentHash(counterBlock[:])
	childIdx := page
	for level := 0; level < b.geom.Levels(); level++ {
		nodeIdx := childIdx / merkle.Arity
		slot := int(childIdx % merkle.Arity)
		line, err := b.getTreeNode(level, nodeIdx)
		if err != nil {
			return err
		}
		gn := merkle.GNode(line.Data)
		gn.SetHash(slot, childHash)
		line.Data = gn
		flat := b.geom.Flat(level, nodeIdx)
		if b.cfg.Scheme == SchemeStrict || (b.cfg.Scheme == SchemeTriad && level < b.cfg.TriadLevels) {
			b.stats.StrictWrites++
			b.pending = append(b.pending, nvm.PendingWrite{Region: nvm.RegionTree, Index: flat, Block: line.Data})
			if b.cfg.Scheme == SchemeTriad {
				b.tCache.MarkDirty(flat)
			}
		} else {
			firstDirty := b.tCache.MarkDirty(flat)
			if firstDirty && b.cfg.Scheme == SchemeAGITPlus {
				b.shadowTreeSlot(line.Slot(), flat)
			}
		}
		childHash = b.eng.ContentHash(line.Data[:])
		childIdx = nodeIdx
	}
	b.rootHash = childHash
	return nil
}

// reencryptPage handles a split-counter page overflow: all lines of the
// page are decrypted under the old counters and re-encrypted under the
// new major counter, and the counter block is force-persisted.
func (b *Bonsai) reencryptPage(page uint64, old, fresh *counter.Split) error {
	b.stats.PageOverflows++
	ovStart := b.now
	base := page * counter.SplitMinors
	for lane := 0; lane < counter.SplitMinors; lane++ {
		idx := base + uint64(lane)
		phys := b.wl.phys(idx)
		if !b.dev.Has(nvm.RegionData, phys) {
			continue
		}
		ct, _, done := b.dev.ReadAtPtr(nvm.RegionData, phys, b.now)
		b.now = done
		var pt [BlockBytes]byte
		b.eng.DecryptTo(pt[:], ct[:], idx, old.Counter(lane))
		side := b.dev.ReadSideband(phys)
		if !ecc.CheckBlock(pt[:], side.ECC) {
			return &IntegrityError{What: "page re-encryption ECC mismatch", Addr: idx}
		}
		nctr := fresh.Counter(lane)
		var blk [BlockBytes]byte
		b.eng.EncryptTo(blk[:], pt[:], idx, nctr)
		nside := nvm.Sideband{ECC: side.ECC, MAC: b.eng.DataMAC(idx, nctr, pt[:]), Phase: uint8(nctr)}
		b.pending = append(b.pending, nvm.PendingWrite{Region: nvm.RegionData, Index: phys, Block: blk, HasSide: true, Side: nside})
	}
	// Force-persist the fresh counter block (drift resets to zero).
	b.updateCount.Set(page, 0)
	b.stats.StopLossWrites++
	b.pending = append(b.pending, nvm.PendingWrite{Region: nvm.RegionCounter, Index: page, Block: fresh.Pack()})
	if b.probe != nil {
		b.probe.Event(obs.EvOverflow, ovStart, b.now, page)
	}
	return nil
}

// inPersistentRegion reports whether a data block belongs to the
// selective scheme's persistent region.
func (b *Bonsai) inPersistentRegion(idx uint64) bool {
	return b.cfg.PersistentBlocks == 0 || idx < b.cfg.PersistentBlocks
}

// commitPending drains the operation's atomic group through the
// persistent registers and WPQ (two-stage commit, Figure 4).
func (b *Bonsai) commitPending() {
	if len(b.pending) == 0 {
		return
	}
	if b.dev.DoneBit() {
		// A simulated mid-drain power loss froze an earlier group in the
		// staging area (the SetPushBudget hook): the persistence domain
		// accepts nothing more, so later groups are dropped on the floor
		// — after the crash, RedoCommitted governs what lands.
		b.pending = b.pending[:0]
		return
	}
	b.dev.BeginCommit()
	for _, w := range b.pending {
		b.dev.Stage(w)
	}
	start, n := b.now, uint64(len(b.pending))
	b.now = b.dev.CommitGroup(b.now)
	b.pending = b.pending[:0]
	if b.probe != nil {
		b.probe.Event(obs.EvCommit, start, b.now, n)
	}
}

// --- lifecycle -------------------------------------------------------------------

// FlushCaches writes back all dirty metadata (orderly shutdown).
func (b *Bonsai) FlushCaches() {
	// An open epoch window drains first: flushed counter lines may carry
	// content the stale root register does not cover yet. A close
	// failure here is an integrity error that every subsequent
	// verification would also surface, so best-effort is enough.
	_ = b.FlushEpoch()
	b.cCache.FlushAll(func(page uint64, data [BlockBytes]byte) {
		b.now = b.dev.Push(nvm.PendingWrite{Region: nvm.RegionCounter, Index: page, Block: data}, b.now)
	})
	b.tCache.FlushAll(func(flat uint64, data [BlockBytes]byte) {
		b.now = b.dev.Push(nvm.PendingWrite{Region: nvm.RegionTree, Index: flat, Block: data}, b.now)
	})
	b.updateCount.Reset()
}

// Crash models a power failure: caches, shadow mirrors, and in-flight
// uncommitted groups are lost; NVM, WPQ contents, and on-chip persistent
// registers survive.
func (b *Bonsai) Crash() { b.CrashWith(nvm.CrashFullADR, nil) }

// CrashWith is Crash under an injectable persistence model: the relaxed
// models may roll back or tear writes still in flight in the WPQ (see
// nvm.CrashModel). Volatile controller state is lost identically under
// every model.
func (b *Bonsai) CrashWith(model nvm.CrashModel, rng *rand.Rand) {
	b.dev.CrashWith(model, rng)
	b.cCache.DropAll()
	b.tCache.DropAll()
	b.updateCount.Reset()
	b.pending = b.pending[:0]
	b.epochWrites = 0
	for p := range b.epochDirty {
		delete(b.epochDirty, p)
	}
	b.rootHash = 0
	b.crashed = true
}

func putU64(dst []byte, v uint64) {
	for i := 0; i < 8; i++ {
		dst[i] = byte(v >> uint(8*i))
	}
}
