package memctrl

import (
	"math/rand"

	"anubis/internal/cache"
	"anubis/internal/counter"
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
// Figure 10 (WriteBack, Strict, Osiris, AGIT-Read, AGIT-Plus) and the
// Triad and Selective baselines.
type Bonsai struct {
	core

	numPages uint64 // counter blocks / tree leaves

	cCache *cache.Cache // counter cache
	tCache *cache.Cache // Merkle tree cache

	sct *shadow.AddrTable // AGIT schemes only
	smt *shadow.AddrTable

	// Volatile mirror of the on-chip root register.
	rootHash uint64

	// Zero-initialization support: the hash of an all-zero leaf and the
	// default (all-children-default) node content and hash per level.
	defLeafHash uint64
	defNode     []merkle.GNode
	defNodeHash []uint64

	// Epoch pipeline state (see bonsai_epoch.go; epochDirty is nil
	// unless NewBonsai armed the pipeline): writes since the last close,
	// the set of counter pages with deferred tree-path updates, and
	// reusable close-time scratch. All volatile — lost at crash; the
	// device-side epoch journal is the persistent record of the open
	// window.
	epochWrites int
	epochDirty  map[uint64]struct{}
	epochPages  []uint64
	epochHash   []uint64
}

// NewBonsai constructs a Bonsai-family controller over a fresh, zeroed
// device for cfg.Scheme, which must be a FamilyBonsai row of Variants.
// The epoch pipeline is armed only for the schemes defersTreeUpdates
// names; the others ignore cfg.EpochRequests.
func NewBonsai(cfg Config) (*Bonsai, error) {
	b, err := buildBonsai(cfg, nvm.NewDevice(cfg.Timing))
	if err != nil {
		return nil, err
	}
	b.wl = newWearLeveler(b.dev, b.numBlocks, cfg.WearPeriod)
	b.initTree()
	b.dev.ResetStats()
	return b, nil
}

// OpenBonsai attaches a Bonsai controller to an existing NVM device
// (e.g. one restored with nvm.LoadDevice). The controller starts in the
// crashed state: call Recover, which reloads the wear leveler, before
// issuing I/O.
func OpenBonsai(cfg Config, dev *nvm.Device) (*Bonsai, error) {
	b, err := buildBonsai(cfg, dev)
	if err != nil {
		return nil, err
	}
	b.crashed = true
	return b, nil
}

// buildBonsai validates cfg and builds the controller state both a fresh
// device and a reopened image need: geometry, caches, shadow tables,
// the epoch buffer, and the zero-memory tree defaults.
func buildBonsai(cfg Config, dev *nvm.Device) (*Bonsai, error) {
	if err := cfg.validate(FamilyBonsai); err != nil {
		return nil, err
	}
	b := &Bonsai{
		core:     newCore(cfg, dev),
		numPages: cfg.MemoryBytes / PageBytes,
		cCache:   cache.New(cfg.CounterCacheBlocks, cfg.CounterCacheWays),
		tCache:   cache.New(cfg.TreeCacheBlocks, cfg.TreeCacheWays),
	}
	b.phased = true
	b.geom = merkle.NewGeometry(b.numPages)
	b.reserve(b.numPages)
	if b.agit() {
		b.sct = shadow.NewAddrTable(b.cCache.NumSlots())
		b.smt = shadow.NewAddrTable(b.tCache.NumSlots())
		b.dev.Reserve(nvm.RegionSCT, b.sct.NumBlocks())
		b.dev.Reserve(nvm.RegionSMT, b.smt.NumBlocks())
	}
	if cfg.EpochRequests > 1 && defersTreeUpdates(cfg.Scheme) {
		b.epochDirty = make(map[uint64]struct{}, cfg.EpochRequests)
	}
	b.computeTreeDefaults()
	return b, nil
}

func (b *Bonsai) agit() bool {
	return b.cfg.Scheme == SchemeAGITRead || b.cfg.Scheme == SchemeAGITPlus
}

// computeTreeDefaults derives the per-level default node contents and
// hashes of the zero-memory tree — a pure computation both a fresh
// device and a reopened image need.
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

// initTree initializes a FRESH zero memory in O(depth): all leaves are
// zero counter blocks, so every full node of a level is the level's
// default; only the ragged right-edge nodes (fewer than 8 children)
// are materialized in NVM, and the root register is seeded.
func (b *Bonsai) initTree() {
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

// Stats returns run-time statistics.
func (b *Bonsai) Stats() RunStats {
	s := b.baseStats()
	s.CounterCache = b.cCache.Stats()
	s.TreeCache = b.tCache.Stats()
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
	b.writeBackVictim(nvm.RegionTree, victim)
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
			b.writeBackVictim(nvm.RegionCounter, victim)
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
	b.writeBackVictim(nvm.RegionCounter, victim)
	if b.cfg.Scheme == SchemeAGITRead {
		b.shadowCounterSlot(line.Slot(), page)
	}
	return line, nil
}

// writeBackVictim persists a dirty line a fill evicted from the cache of
// region r's blocks.
func (b *Bonsai) writeBackVictim(r nvm.Region, v *cache.Victim) {
	if v == nil || !v.Dirty {
		return
	}
	start := b.now
	b.now = b.dev.Push(nvm.PendingWrite{Region: r, Index: v.Key, Block: v.Data}, b.now)
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

// ReadBlock decrypts and verifies one data block.
func (b *Bonsai) ReadBlock(idx uint64) ([BlockBytes]byte, error) {
	var zero [BlockBytes]byte
	if err := b.checkAddr(idx); err != nil {
		return zero, err
	}
	b.stats.ReadRequests++
	page, lane := idx/counter.SplitMinors, int(idx%counter.SplitMinors)

	f := b.fetchData(idx)
	line, err := b.getCounterBlock(page)
	if err != nil {
		return zero, err
	}
	b.chargeData(&f)
	return b.openData(&f, counter.SplitCounterAt(&line.Data, lane))
}

// WriteBlock encrypts and persists one data block with all metadata
// updates the configured scheme requires, atomically (§2.7). Only the
// tree update and the window's close depend on whether the epoch
// pipeline is armed: the eager path propagates the leaf change to the
// root register in this commit group, while the pipeline
// (bonsai_epoch.go) defers it to the close.
func (b *Bonsai) WriteBlock(idx uint64, data [BlockBytes]byte) error {
	if err := b.checkAddr(idx); err != nil {
		return err
	}
	b.stats.WriteRequests++
	page, lane := idx/counter.SplitMinors, int(idx%counter.SplitMinors)

	line, err := b.getCounterBlock(page)
	if err != nil {
		return err
	}
	s := counter.UnpackSplit(line.Data)
	deferTree := b.epochDirty != nil
	if deferTree && s.Minors[lane] == counter.MinorMax {
		// Page overflow ahead: the re-encryption rewrites every lane of
		// the page, which the coalescing window cannot express. Close
		// the window and update the tree eagerly for this one write.
		if err := b.closeEpoch(); err != nil {
			return err
		}
		deferTree = false
		if line, err = b.getCounterBlock(page); err != nil {
			return err
		}
		s = counter.UnpackSplit(line.Data)
	}
	b.pending = b.pending[:0]

	prev := line.Data
	old := s
	if s.Increment(lane) {
		// Minor overflow: the page is re-encrypted under the new major
		// counter and the counter block force-persisted, so Osiris-style
		// recovery never needs to guess across an overflow.
		if err := b.reencryptPage(page, &old, &s); err != nil {
			return err
		}
		line.Unpersisted = 0
	}
	line.Data = s.Pack()
	if b.cfg.Scheme == SchemeStrict {
		// Strict persistence: the counter write goes out immediately;
		// the cached copy stays clean.
		b.stats.StrictWrites++
		b.pending = append(b.pending, nvm.PendingWrite{Region: nvm.RegionCounter, Index: page, Block: line.Data})
	} else if b.cfg.Scheme == SchemeTriad {
		// Triad-NVM: counters persist on every write (the tree path up
		// to TriadLevels is handled in persistTreeNode).
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
		if line.Unpersisted++; int(line.Unpersisted) >= b.cfg.StopLoss {
			line.Unpersisted = 0
			b.stats.StopLossWrites++
			b.pending = append(b.pending, nvm.PendingWrite{Region: nvm.RegionCounter, Index: page, Block: line.Data})
		}
	}

	b.seal(idx, s.Counter(lane), &data)

	if deferTree {
		// Deferred tree update: remember the page and journal the change.
		// Old pins the epoch-start content (sticky across the window: a
		// later note for the same page refreshes only New), so the stale
		// root register plus the journal always describe a recoverable
		// state, under every crash model.
		b.epochDirty[page] = struct{}{}
		b.pending = append(b.pending, nvm.PendingWrite{JOp: nvm.JournalNote, JKey: page, JOld: prev, Block: line.Data})
	} else {
		// Eager tree update: propagate the leaf change to the on-chip
		// root. The root register joins the atomic group so NVM content
		// and the root can never disagree across a crash.
		if err := b.updateTreePath(page, line.Data); err != nil {
			return err
		}
		var rootBlk [BlockBytes]byte
		putU64(rootBlk[:], b.rootHash)
		b.pending = append(b.pending, nvm.PendingWrite{RegName: regBonsaiRoot, Block: rootBlk})
	}

	b.now += HashNS // pipelined encrypt+MAC engine occupancy
	b.dev.Attr().Add(obs.CompCrypto, HashNS)
	b.commitPending()
	b.now = b.wl.recordWrite(b.now)

	if deferTree {
		b.epochWrites++
		if b.epochWrites >= b.cfg.EpochRequests {
			return b.closeEpoch()
		}
	}
	return nil
}

// updateTreePath applies the eager update policy: every ancestor of the
// counter block is updated in cache and handed to persistTreeNode.
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
		b.persistTreeNode(level, nodeIdx, line)
		childHash = b.eng.ContentHash(line.Data[:])
		childIdx = nodeIdx
	}
	b.rootHash = childHash
	return nil
}

// persistTreeNode applies the scheme's per-node persistence policy to a
// freshly updated tree node, for the eager path and the epoch close
// alike. Strict, and Triad below TriadLevels, stage the node in the
// current commit group (Triad keeps its cached copy dirty); every other
// scheme only dirties the cached line, which AGIT-Plus tracks in the
// SMT on its first dirtying.
func (b *Bonsai) persistTreeNode(level int, nodeIdx uint64, line *cache.Line) {
	flat := b.geom.Flat(level, nodeIdx)
	if b.cfg.Scheme == SchemeStrict || (b.cfg.Scheme == SchemeTriad && level < b.cfg.TriadLevels) {
		b.stats.StrictWrites++
		b.pending = append(b.pending, nvm.PendingWrite{Region: nvm.RegionTree, Index: flat, Block: line.Data})
		if b.cfg.Scheme == SchemeTriad {
			b.tCache.MarkDirty(flat)
		}
	} else if b.tCache.MarkDirty(flat) && b.cfg.Scheme == SchemeAGITPlus {
		b.shadowTreeSlot(line.Slot(), flat)
	}
}

// reencryptPage handles a split-counter page overflow: all lines of the
// page are opened and verified under the old counters and sealed under
// the new major counter, and the counter block is force-persisted. A
// block that fails verification fails the write: sealing it afresh
// would launder a forgery into a block that verifies.
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
		ct, side, _, done := b.dev.ReadDataAt(phys, b.now, true)
		b.now = done
		var pt [BlockBytes]byte
		if fail := b.open(&pt, ct, &side, idx, old.Counter(lane)); fail != "" {
			return &IntegrityError{What: "page re-encryption " + fail + " mismatch", Addr: idx}
		}
		b.seal(idx, fresh.Counter(lane), &pt)
	}
	// Force-persist the fresh counter block (drift resets to zero).
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

// --- lifecycle -------------------------------------------------------------------

// FlushCaches writes back all dirty metadata (orderly shutdown).
func (b *Bonsai) FlushCaches() error {
	// An open epoch window drains first: flushed counter lines may carry
	// content the stale root register does not cover yet, so a close
	// that fails verification flushes nothing.
	if err := b.FlushEpoch(); err != nil {
		return err
	}
	b.cCache.FlushAll(func(page uint64, data [BlockBytes]byte) {
		b.now = b.dev.Push(nvm.PendingWrite{Region: nvm.RegionCounter, Index: page, Block: data}, b.now)
	})
	b.tCache.FlushAll(func(flat uint64, data [BlockBytes]byte) {
		b.now = b.dev.Push(nvm.PendingWrite{Region: nvm.RegionTree, Index: flat, Block: data}, b.now)
	})
	return nil
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
	b.crash(model, rng)
	b.cCache.DropAll()
	b.tCache.DropAll()
	if b.sct != nil {
		b.sct.Drop()
		b.smt.Drop()
	}
	b.epochWrites = 0
	for p := range b.epochDirty {
		delete(b.epochDirty, p)
	}
	b.rootHash = 0
}

func putU64(dst []byte, v uint64) {
	for i := 0; i < 8; i++ {
		dst[i] = byte(v >> uint(8*i))
	}
}
