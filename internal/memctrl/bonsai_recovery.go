package memctrl

import (
	"fmt"
	"math/bits"
	"slices"

	"anubis/internal/counter"
	"anubis/internal/merkle"
	"anubis/internal/nvm"
	"anubis/internal/obs"
	"anubis/internal/shadow"
)

// Recover brings the controller back to a verified state after Crash.
//
//   - WriteBack has no mechanism and returns ErrNotRecoverable.
//   - Strict is instantly consistent: only the DONE_BIT redo runs.
//   - Osiris recovers every counter in memory via ECC trials and
//     reconstructs the entire Merkle tree bottom-up — the O(memory)
//     recovery the paper's Figure 5 prices at hours for TB capacities.
//   - AGIT-Read / AGIT-Plus run Algorithm 1: scan SCT and SMT, fix only
//     tracked counters, recompute only tracked tree nodes level by
//     level, then compare the resulting root with the on-chip root.
//   - Triad rebuilds the tree levels it does not persist; Selective
//     rebuilds the whole tree and re-anchors the root to it.
func (b *Bonsai) Recover() (*RecoveryReport, error) { return b.recoverFrame(b.recoverScheme) }

func (b *Bonsai) recoverScheme(rep *RecoveryReport) error {
	if b.cfg.Scheme == SchemeWriteBack {
		// No recovery mechanism. The controller is returned to service
		// so that reads can demonstrate the resulting state: consistent
		// only if the caches happened to be clean (e.g. after an orderly
		// FlushCaches), verification failures otherwise.
		if root, ok := b.dev.GetReg64(regBonsaiRoot); ok {
			b.rootHash = root
		}
		b.crashed = false
		return fmt.Errorf("%w: write-back persists no security metadata", ErrNotRecoverable)
	}
	switch b.cfg.Scheme {
	case SchemeStrict:
		root, ok := b.dev.GetReg64(regBonsaiRoot)
		if !ok {
			return fmt.Errorf("%w: missing root register", ErrUnrecoverable)
		}
		b.rootHash = root
		b.crashed = false
		return nil
	case SchemeOsiris:
		return b.recoverOsirisFull(rep)
	case SchemeAGITRead, SchemeAGITPlus:
		return b.recoverAGIT(rep)
	case SchemeSelective:
		return b.recoverSelective(rep)
	case SchemeTriad:
		return b.recoverTriad(rep)
	}
	return fmt.Errorf("%w: no recovery for scheme %v", ErrUnrecoverable, b.cfg.Scheme)
}

// osirisFixLane recovers the encryption counter of one data block.
//
// With RecoveryECC it tries candidates stored..stored+StopLoss against
// the decrypted block's ECC and data MAC — the Osiris mechanism (§2.4).
// With RecoveryPhase the counter's low 8 bits travel with the data, so
// the candidate is reconstructed directly and verified once.
func (b *Bonsai) osirisFixLane(idx, stored uint64, rep *RecoveryReport) (uint64, bool) {
	phys := b.wl.phys(idx)
	ct, side, _ := b.dev.ReadData(phys)
	rep.FetchOps++
	var pt [BlockBytes]byte // reused across candidate trials: no per-trial alloc
	verify := func(cand uint64) bool {
		rep.CryptoOps++
		return b.open(&pt, ct, &side, idx, cand) == ""
	}
	if b.cfg.Recovery == RecoveryPhase {
		// stored never exceeds the true counter, and the drift is below
		// 2^8 (a minor overflow force-persists the block), so the phase
		// identifies the counter uniquely.
		delta := uint64(uint8(side.Phase - uint8(stored)))
		cand := stored + delta
		if verify(cand) {
			return cand, true
		}
		return 0, false
	}
	for k := uint64(0); k <= uint64(b.cfg.StopLoss); k++ {
		if cand := stored + k; verify(cand) {
			return cand, true
		}
	}
	return 0, false
}

// fixCounterBlock repairs every written lane of one counter block,
// rewriting it to NVM when anything changed. It reports failure when no
// candidate within the stop-loss window matches a lane's data. A lane
// whose data block was never written needs no repair (its counter must
// be current), so only the written lanes are visited, in lane order.
func (b *Bonsai) fixCounterBlock(page uint64, rep *RecoveryReport) error {
	blk, _ := b.dev.ReadPtr(nvm.RegionCounter, page)
	rep.FetchOps++
	lanes := b.writtenLanes(page)
	if lanes == 0 {
		return nil
	}
	s := counter.UnpackSplit(*blk)
	changed := false
	base := page * counter.SplitMinors
	for ; lanes != 0; lanes &= lanes - 1 {
		lane := bits.TrailingZeros64(lanes)
		idx := base + uint64(lane)
		stored := s.Counter(lane)
		cand, ok := b.osirisFixLane(idx, stored, rep)
		if !ok {
			return fmt.Errorf("%w: counter for block %d beyond stop-loss window", ErrUnrecoverable, idx)
		}
		if cand != stored {
			if cand>>counter.MinorBits != s.Major {
				return fmt.Errorf("%w: counter for block %d crossed a page overflow", ErrUnrecoverable, idx)
			}
			s.Minors[lane] = uint8(cand & counter.MinorMax)
			rep.CountersFixed++
			changed = true
		}
	}
	if changed {
		b.dev.WriteRaw(nvm.RegionCounter, page, s.Pack())
		rep.FetchOps++
	}
	return nil
}

// writtenLanes returns, as a bitmask, the lanes of a counter page whose
// data block is present in NVM. Without wear leveling the page's 64
// data blocks are one aligned device group; Start-Gap remaps each block
// on its own, so that case asks the device lane by lane.
func (b *Bonsai) writtenLanes(page uint64) uint64 {
	// One lane per group block: fails to compile unless SplitMinors == 64.
	const _ = uint(counter.SplitMinors-64) + uint(64-counter.SplitMinors)
	if b.wl == nil {
		return b.dev.Has64(nvm.RegionData, page)
	}
	var lanes uint64
	for lane := uint64(0); lane < counter.SplitMinors; lane++ {
		if b.dev.Has(nvm.RegionData, b.wl.phys(page*counter.SplitMinors+lane)) {
			lanes |= 1 << lane
		}
	}
	return lanes
}

// recoverOsirisFull is the no-Anubis baseline: every counter block in
// the whole memory is repaired, then the complete tree is rebuilt.
func (b *Bonsai) recoverOsirisFull(rep *RecoveryReport) error {
	// The scan's media fetches are the counter scan; the per-candidate
	// decrypt+check trials inside it are ECC verification work.
	rep.enterPhaseSplit(obs.RPCounterScan, obs.RPECCVerify)
	for page := uint64(0); page < b.numPages; page++ {
		if err := b.fixCounterBlock(page, rep); err != nil {
			return err
		}
	}
	root := b.rebuildTree(rep)
	want, _ := b.dev.GetReg64(regBonsaiRoot)
	if root != want {
		return fmt.Errorf("%w: rebuilt root %#x != stored root %#x", ErrUnrecoverable, root, want)
	}
	b.rootHash = root
	b.crashed = false
	return nil
}

// recoverTriad rebuilds only the tree levels Triad-NVM does not persist
// at run time: counters and levels < TriadLevels are fresh in NVM, so
// reconstruction starts there and works upward, then the root is
// compared with the on-chip register. Cost is O(memory / 8^TriadLevels)
// — far below a full Osiris rebuild (no data reads, no ECC trials), but
// still memory-bound, which is the contrast with Anubis the paper draws
// in §7.
func (b *Bonsai) recoverTriad(rep *RecoveryReport) error {
	rep.enterPhase(obs.RPMerkleRebuild)
	start := b.cfg.TriadLevels
	if start > b.geom.Levels() {
		start = b.geom.Levels()
	}
	for level := start; level < b.geom.Levels(); level++ {
		for idx := uint64(0); idx < b.geom.NodesAt(level); idx++ {
			b.recomputeNode(level, idx, rep)
		}
	}
	rep.enterPhase(obs.RPRootAnchor)
	root := b.rootNVM(rep)
	want, _ := b.dev.GetReg64(regBonsaiRoot)
	if root != want {
		return fmt.Errorf("%w: rebuilt root %#x != stored root %#x", ErrUnrecoverable, root, want)
	}
	b.rootHash = root
	b.crashed = false
	return nil
}

// recoverSelective implements the selective counter atomicity baseline's
// restart: the integrity tree is rebuilt from whatever counters NVM
// holds and the on-chip root is re-anchored to the result ("trust on
// boot"). Persistent-region counters are current by construction, so
// that region recovers with full freshness. Relaxed counters may be
// stale, which surfaces in two ways the paper and Osiris point out:
// recently written relaxed blocks fail verification (data newer than
// counter), and an attacker can pair a stale counter with equally stale
// data so that old values verify as current — a replay. Recovery is
// also O(memory): the whole tree must be reconstructed.
func (b *Bonsai) recoverSelective(rep *RecoveryReport) error {
	root := b.rebuildTree(rep)
	// Trust on boot: unlike every root-anchored scheme, the register is
	// overwritten with the rebuilt value instead of being compared.
	b.rootHash = root
	b.dev.SetReg64(regBonsaiRoot, root)
	b.crashed = false
	return nil
}

// recoverAGIT implements Algorithm 1 of the paper.
func (b *Bonsai) recoverAGIT(rep *RecoveryReport) error {
	// 1. Read the SCT and repair every tracked counter block. The
	// tables are restored into the controller's live mirrors: a mirror
	// that disagreed with NVM would corrupt neighbouring entries on the
	// next 64-byte shadow block write.
	rep.enterPhase(obs.RPShadowReplay)
	b.sct.Restore(func(bi uint64) [BlockBytes]byte {
		rep.FetchOps++
		return b.dev.Read(nvm.RegionSCT, bi)
	})
	// The SCT lives in NVM and can be corrupted by a torn or partial
	// crash: a key outside the counter region would otherwise panic deep
	// in the wear-leveling map during repair, so every key is checked
	// before any page is rewritten. Pages are independent, so repairing
	// them in ascending order changes no outcome.
	rep.enterPhaseSplit(obs.RPCounterScan, obs.RPECCVerify)
	pages := trackedKeys(b.sct, rep)
	if n := len(pages); n > 0 && pages[n-1] >= b.numPages {
		return fmt.Errorf("%w: SCT tracks counter page %#x beyond memory (%d pages)", ErrUnrecoverable, pages[n-1], b.numPages)
	}
	for _, page := range pages {
		if err := b.fixCounterBlock(page, rep); err != nil {
			return err
		}
	}

	// 2. Read the SMT. Its keys are flat node indices, whose ascending
	// order is bottom-up level order. Same defense as the SCT scan: a
	// corrupt key outside the tree would panic inside Geometry.Unflat.
	rep.enterPhase(obs.RPShadowReplay)
	b.smt.Restore(func(bi uint64) [BlockBytes]byte {
		rep.FetchOps++
		return b.dev.Read(nvm.RegionSMT, bi)
	})
	nodes := trackedKeys(b.smt, rep)
	if n := len(nodes); n > 0 && nodes[n-1] >= b.geom.TotalNodes() {
		return fmt.Errorf("%w: SMT tracks tree node %#x beyond the tree (%d nodes)", ErrUnrecoverable, nodes[n-1], b.geom.TotalNodes())
	}

	// 3. Recompute affected nodes bottom-up: repairing a level relies on
	// the level below being already fixed (Algorithm 1, line 9+).
	rep.enterPhase(obs.RPMerkleRebuild)
	for _, flat := range nodes {
		level, idx := b.geom.Unflat(flat)
		b.recomputeNode(level, idx, rep)
	}

	// 4. Compare the resulting root against the on-chip root register.
	rep.enterPhase(obs.RPRootAnchor)
	root := b.rootNVM(rep)
	want, _ := b.dev.GetReg64(regBonsaiRoot)
	if root != want {
		return fmt.Errorf("%w: recovered root %#x != stored root %#x", ErrUnrecoverable, root, want)
	}
	b.rootHash = root
	b.crashed = false
	return nil
}

// trackedKeys returns the keys a restored SCT or SMT tracks, ascending
// and without the stale duplicates a block refetched into another slot
// leaves behind, and counts every live entry as scanned. A radix sort
// orders them, one pass per byte up to the largest key's top bit, so
// the cost follows the table's live entries and not the key range (the
// size of memory or of the tree).
func trackedKeys(t *shadow.AddrTable, rep *RecoveryReport) []uint64 {
	keys := make([]uint64, 0, t.NumSlots())
	var bitsSet uint64
	for slot := 0; slot < t.NumSlots(); slot++ {
		if key, ok := t.Get(slot); ok {
			keys = append(keys, key)
			bitsSet |= key
		}
	}
	rep.EntriesScanned += uint64(len(keys))
	tmp := make([]uint64, len(keys))
	for shift := 0; bitsSet>>shift != 0; shift += 8 {
		var start [256]int
		for _, k := range keys {
			start[byte(k>>shift)]++
		}
		sum := 0
		for d, n := range start {
			start[d], sum = sum, sum+n
		}
		for _, k := range keys {
			d := byte(k >> shift)
			tmp[start[d]] = k
			start[d]++
		}
		keys, tmp = tmp, keys
	}
	return slices.Compact(keys)
}

// rebuildTree rebuilds the whole tree from the counters in NVM, writes
// every node back and returns the root hash.
func (b *Bonsai) rebuildTree(rep *RecoveryReport) uint64 {
	rep.enterPhase(obs.RPMerkleRebuild)
	root := merkle.BuildGeneral(b.geom, b.eng,
		func(i uint64) [BlockBytes]byte { return b.dev.Read(nvm.RegionCounter, i) },
		func(flat uint64, n merkle.GNode) {
			b.dev.WriteRaw(nvm.RegionTree, flat, n)
			rep.FetchOps++
		},
		&rep.CryptoOps)
	rep.NodesRebuilt += b.geom.TotalNodes()
	return root
}

// recomputeNode rebuilds one tree node from its (already repaired)
// children and writes it back.
func (b *Bonsai) recomputeNode(level int, idx uint64, rep *RecoveryReport) {
	first, n := b.geom.ChildrenOf(level, idx)
	var node merkle.GNode
	for s := 0; s < n; s++ {
		child := first + uint64(s)
		var h uint64
		if level == 0 {
			blk := b.dev.Read(nvm.RegionCounter, child)
			rep.FetchOps++
			h = b.eng.ContentHash(blk[:])
		} else {
			blk := b.treeNodeNVM(b.geom.Flat(level-1, child))
			rep.FetchOps++
			h = b.eng.ContentHash(blk[:])
		}
		rep.CryptoOps++
		node.SetHash(s, h)
	}
	b.dev.WriteRaw(nvm.RegionTree, b.geom.Flat(level, idx), node)
	rep.FetchOps++
	rep.NodesRebuilt++
}

// rootNVM hashes the root node currently in NVM.
func (b *Bonsai) rootNVM(rep *RecoveryReport) uint64 {
	rootNode := b.treeNodeNVM(b.geom.Flat(b.geom.RootLevel(), 0))
	rep.FetchOps++
	rep.CryptoOps++
	return b.eng.ContentHash(rootNode[:])
}
