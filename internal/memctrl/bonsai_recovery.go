package memctrl

import (
	"fmt"
	"math/bits"
	"sort"

	"anubis/internal/counter"
	"anubis/internal/ecc"
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
func (b *Bonsai) Recover() (*RecoveryReport, error) {
	rep, err := b.doRecover()
	if rep != nil {
		// Attribute any ops counted since the last phase boundary so the
		// phase ledger covers the whole pass, success or failure.
		rep.settlePhases()
	}
	if b.probe != nil && rep != nil {
		b.probe.Event(obs.EvRecovery, b.now, b.now+rep.ModeledNS(), rep.FetchOps+rep.CryptoOps)
	}
	return rep, err
}

func (b *Bonsai) doRecover() (*RecoveryReport, error) {
	rep := &RecoveryReport{Scheme: b.cfg.Scheme}
	rep.RedoneWrites = b.dev.RedoCommitted()

	// Restore the wear-leveling map before any data-region access.
	wl, err := reloadWearLeveler(b.dev, b.cfg.WearPeriod)
	if err != nil {
		return rep, fmt.Errorf("%w: %v", ErrUnrecoverable, err)
	}
	b.wl = wl

	switch b.cfg.Scheme {
	case SchemeWriteBack:
		// No recovery mechanism. The controller is returned to service
		// so that reads can demonstrate the resulting state: consistent
		// only if the caches happened to be clean (e.g. after an orderly
		// FlushCaches), verification failures otherwise.
		if root, ok := b.dev.GetReg64(regBonsaiRoot); ok {
			b.rootHash = root
		}
		b.crashed = false
		return rep, fmt.Errorf("%w: write-back persists no security metadata", ErrNotRecoverable)
	case SchemeStrict:
		root, ok := b.dev.GetReg64(regBonsaiRoot)
		if !ok {
			return rep, fmt.Errorf("%w: missing root register", ErrUnrecoverable)
		}
		if b.dev.JournalLen() > 0 {
			// The crash fell inside an open epoch window: NVM counters
			// are current (strict persistence) but the tree and register
			// still describe the epoch start. Two-pass journal recovery:
			// roll journaled counters back to Old, check the stale
			// register, then replay New and re-anchor.
			entries, _, err := b.epochJournal(rep)
			if err != nil {
				return rep, err
			}
			levels := b.epochAncestorLevels(entries)
			rep.enterPhase(obs.RPJournalPassA)
			b.epochWriteCounters(entries, true, rep)
			b.epochRecompute(levels, rep)
			rep.enterPhase(obs.RPRootAnchor)
			if got := b.epochRootNVM(rep); got != root {
				return rep, fmt.Errorf("%w: epoch-start root %#x != stored root %#x", ErrUnrecoverable, got, root)
			}
			rep.enterPhase(obs.RPJournalPassB)
			b.epochReplayAndAnchor(entries, levels, rep)
			b.crashed = false
			return rep, nil
		}
		b.rootHash = root
		b.crashed = false
		return rep, nil
	case SchemeOsiris:
		return b.recoverOsirisFull(rep)
	case SchemeAGITRead, SchemeAGITPlus:
		return b.recoverAGIT(rep)
	case SchemeSelective:
		return b.recoverSelective(rep)
	case SchemeTriad:
		return b.recoverTriad(rep)
	}
	return rep, fmt.Errorf("%w: no recovery for scheme %v", ErrUnrecoverable, b.cfg.Scheme)
}

// osirisFixLane recovers the encryption counter of one data block.
//
// With RecoveryECC it tries candidates stored..stored+StopLoss against
// the decrypted block's ECC and data MAC — the Osiris mechanism (§2.4).
// With RecoveryPhase the counter's low 8 bits travel with the data, so
// the candidate is reconstructed directly and verified once.
func (b *Bonsai) osirisFixLane(idx, stored uint64, rep *RecoveryReport) (uint64, bool) {
	phys := b.wl.phys(idx)
	ct := b.dev.Read(nvm.RegionData, phys)
	rep.FetchOps++
	side := b.dev.ReadSideband(phys)
	var pt [BlockBytes]byte // reused across candidate trials: no per-trial alloc
	verify := func(cand uint64) bool {
		rep.CryptoOps++
		b.eng.DecryptTo(pt[:], ct[:], idx, cand)
		return ecc.CheckBlock(pt[:], side.ECC) && b.eng.DataMAC(idx, cand, pt[:]) == side.MAC
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
// Counter pages tracked by the epoch journal skip the ECC trials — the
// journal records their exact content — and go through the two-pass
// rollback/replay instead.
func (b *Bonsai) recoverOsirisFull(rep *RecoveryReport) (*RecoveryReport, error) {
	entries, journaled, err := b.epochJournal(rep)
	if err != nil {
		return rep, err
	}
	rep.enterPhase(obs.RPJournalPassA)
	b.epochWriteCounters(entries, true, rep) // pass A: epoch-start content
	// The scan's media fetches are the counter scan; the per-candidate
	// decrypt+check trials inside it are ECC verification work.
	rep.enterPhaseSplit(obs.RPCounterScan, obs.RPECCVerify)
	for page := uint64(0); page < b.numPages; page++ {
		if journaled[page] {
			continue
		}
		if err := b.fixCounterBlock(page, rep); err != nil {
			return rep, err
		}
	}
	rep.enterPhase(obs.RPMerkleRebuild)
	root := merkle.BuildGeneral(b.geom, b.eng,
		func(i uint64) [BlockBytes]byte { return b.dev.Read(nvm.RegionCounter, i) },
		func(flat uint64, n merkle.GNode) {
			b.dev.WriteRaw(nvm.RegionTree, flat, n)
			rep.FetchOps++
		},
		&rep.CryptoOps)
	rep.NodesRebuilt += b.geom.TotalNodes()
	want, _ := b.dev.GetReg64(regBonsaiRoot)
	if root != want {
		return rep, fmt.Errorf("%w: rebuilt root %#x != stored root %#x", ErrUnrecoverable, root, want)
	}
	if len(entries) > 0 {
		rep.enterPhase(obs.RPJournalPassB)
		b.epochReplayAndAnchor(entries, b.epochAncestorLevels(entries), rep)
	} else {
		b.rootHash = root
	}
	b.crashed = false
	return rep, nil
}

// recoverTriad rebuilds only the tree levels Triad-NVM does not persist
// at run time: counters and levels < TriadLevels are fresh in NVM, so
// reconstruction starts there and works upward, then the root is
// compared with the on-chip register. Cost is O(memory / 8^TriadLevels)
// — far below a full Osiris rebuild (no data reads, no ECC trials), but
// still memory-bound, which is the contrast with Anubis the paper draws
// in §7.
func (b *Bonsai) recoverTriad(rep *RecoveryReport) (*RecoveryReport, error) {
	// Epoch-journal pass A: with the pipeline on, the per-write counter
	// persists are current but the coalesced lower-level node persists
	// only land at epoch close — NVM's lower tree describes the epoch
	// start. Roll journaled counters back and restore their lower paths
	// before the upper rebuild checks the (stale) register.
	entries, _, jerr := b.epochJournal(rep)
	if jerr != nil {
		return rep, jerr
	}
	jLevels := b.epochAncestorLevels(entries)
	rep.enterPhase(obs.RPJournalPassA)
	b.epochWriteCounters(entries, true, rep)
	b.epochRecompute(jLevels, rep)
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
	root := b.epochRootNVM(rep)
	want, _ := b.dev.GetReg64(regBonsaiRoot)
	if root != want {
		return rep, fmt.Errorf("%w: rebuilt root %#x != stored root %#x", ErrUnrecoverable, root, want)
	}
	if len(entries) > 0 {
		rep.enterPhase(obs.RPJournalPassB)
		b.epochReplayAndAnchor(entries, jLevels, rep)
	} else {
		b.rootHash = root
	}
	b.crashed = false
	return rep, nil
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
func (b *Bonsai) recoverSelective(rep *RecoveryReport) (*RecoveryReport, error) {
	// Trust-on-boot has no stale-root check to satisfy, so there is no
	// pass A: the journal's latest content is applied directly before
	// the rebuild re-anchors the register.
	entries, _, jerr := b.epochJournal(rep)
	if jerr != nil {
		return rep, jerr
	}
	rep.enterPhase(obs.RPJournalPassB)
	b.epochWriteCounters(entries, false, rep)
	b.dev.JournalReset()
	rep.enterPhase(obs.RPMerkleRebuild)
	root := merkle.BuildGeneral(b.geom, b.eng,
		func(i uint64) [BlockBytes]byte { return b.dev.Read(nvm.RegionCounter, i) },
		func(flat uint64, n merkle.GNode) {
			b.dev.WriteRaw(nvm.RegionTree, flat, n)
			rep.FetchOps++
		},
		&rep.CryptoOps)
	rep.NodesRebuilt += b.geom.TotalNodes()
	// Trust on boot: unlike every root-anchored scheme, the register is
	// overwritten with the rebuilt value instead of being compared.
	b.rootHash = root
	b.dev.SetReg64(regBonsaiRoot, root)
	b.crashed = false
	return rep, nil
}

// recoverAGIT implements Algorithm 1 of the paper, extended with the
// epoch journal's two-pass rollback/replay: journaled counter blocks
// have exact content on chip (no ECC trials), and their deferred root
// paths — which may have no SMT entry, since mid-epoch writes touch no
// tree nodes — join the recompute set.
func (b *Bonsai) recoverAGIT(rep *RecoveryReport) (*RecoveryReport, error) {
	// 0. Epoch-journal pass A: roll journaled counters back to their
	// epoch-start content, the state the stale root register covers.
	entries, journaled, jerr := b.epochJournal(rep)
	if jerr != nil {
		return rep, jerr
	}
	jLevels := b.epochAncestorLevels(entries)
	rep.enterPhase(obs.RPJournalPassA)
	b.epochWriteCounters(entries, true, rep)

	// 1. Read the SCT and repair every tracked counter block. The
	// restored tables also become the controller's live mirrors: a
	// mirror that disagreed with NVM would corrupt neighbouring entries
	// on the next 64-byte shadow block write.
	rep.enterPhase(obs.RPShadowReplay)
	sct := shadow.RestoreAddrTable(b.cCache.NumSlots(), func(bi uint64) [BlockBytes]byte {
		rep.FetchOps++
		return b.dev.Read(nvm.RegionSCT, bi)
	})
	b.sct = sct
	rep.enterPhaseSplit(obs.RPCounterScan, obs.RPECCVerify)
	seenPages := make(map[uint64]bool)
	for _, tr := range sct.Live() {
		rep.EntriesScanned++
		if seenPages[tr.Key] {
			continue // stale duplicate entry for the same block
		}
		seenPages[tr.Key] = true
		// The SCT lives in NVM and can be corrupted by a torn or partial
		// crash: a key outside the counter region would otherwise panic
		// deep in the wear-leveling map during repair.
		if tr.Key >= b.numPages {
			return rep, fmt.Errorf("%w: SCT tracks counter page %#x beyond memory (%d pages)", ErrUnrecoverable, tr.Key, b.numPages)
		}
		if journaled[tr.Key] {
			continue // exact content came from the epoch journal
		}
		if err := b.fixCounterBlock(tr.Key, rep); err != nil {
			return rep, err
		}
	}

	// 2. Read the SMT and classify tracked nodes by tree level.
	rep.enterPhase(obs.RPShadowReplay)
	smt := shadow.RestoreAddrTable(b.tCache.NumSlots(), func(bi uint64) [BlockBytes]byte {
		rep.FetchOps++
		return b.dev.Read(nvm.RegionSMT, bi)
	})
	b.smt = smt
	byLevel := make(map[int][]uint64)
	seenNodes := make(map[uint64]bool)
	for _, tr := range smt.Live() {
		rep.EntriesScanned++
		if seenNodes[tr.Key] {
			continue
		}
		seenNodes[tr.Key] = true
		// Same defense as the SCT scan: a corrupt SMT key outside the
		// tree would panic inside Geometry.Unflat.
		if tr.Key >= b.geom.TotalNodes() {
			return rep, fmt.Errorf("%w: SMT tracks tree node %#x beyond the tree (%d nodes)", ErrUnrecoverable, tr.Key, b.geom.TotalNodes())
		}
		level, idx := b.geom.Unflat(tr.Key)
		byLevel[level] = append(byLevel[level], idx)
	}

	// 3. Recompute affected nodes bottom-up: repairing a level relies on
	// the level below being already fixed (Algorithm 1, line 9+). The
	// journaled pages' root paths join the set: their updates were
	// deferred, so no SMT entry tracks them.
	rep.enterPhase(obs.RPMerkleRebuild)
	for level := 0; level < b.geom.Levels(); level++ {
		idxs := append(byLevel[level], jLevels[level]...)
		sort.Slice(idxs, func(i, j int) bool { return idxs[i] < idxs[j] })
		prev := uint64(0)
		for k, idx := range idxs {
			if k > 0 && idx == prev {
				continue
			}
			prev = idx
			b.recomputeNode(level, idx, rep)
		}
	}

	// 4. Compare the resulting root against the on-chip root register.
	rep.enterPhase(obs.RPRootAnchor)
	root := b.epochRootNVM(rep)
	want, _ := b.dev.GetReg64(regBonsaiRoot)
	if root != want {
		return rep, fmt.Errorf("%w: recovered root %#x != stored root %#x", ErrUnrecoverable, root, want)
	}

	// 5. Epoch-journal pass B: replay the latest content and re-anchor.
	if len(entries) > 0 {
		rep.enterPhase(obs.RPJournalPassB)
		b.epochReplayAndAnchor(entries, jLevels, rep)
	} else {
		b.rootHash = root
	}
	b.crashed = false
	return rep, nil
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

// --- epoch-journal two-pass recovery helpers --------------------------------
//
// A crash inside an open epoch window (bonsai_epoch.go) leaves the root
// register anchoring the epoch-start state while NVM may already hold
// newer journaled content. The on-chip journal records, per touched
// counter page, both the epoch-start content (Old — what the stale
// register covers) and the authoritative latest content (New). Recovery
// runs two passes over it:
//
//	pass A  write Old back, restore the journaled root paths, and
//	        verify the recomputed root against the stale register;
//	pass B  write New, recompute the same paths, anchor the fresh
//	        root, and clear the journal.

// epochJournal returns the journal's entries with their keys
// bounds-checked, plus the journaled-page set, and records the count in
// the report. Empty (not an error) when no window was open.
func (b *Bonsai) epochJournal(rep *RecoveryReport) ([]nvm.JournalEntry, map[uint64]bool, error) {
	if b.dev.JournalLen() == 0 {
		return nil, nil, nil
	}
	entries := b.dev.JournalEntries()
	pages := make(map[uint64]bool, len(entries))
	for i := range entries {
		if entries[i].Key >= b.numPages {
			return nil, nil, fmt.Errorf("%w: epoch journal tracks counter page %#x beyond memory (%d pages)",
				ErrUnrecoverable, entries[i].Key, b.numPages)
		}
		pages[entries[i].Key] = true
	}
	rep.JournalPages = uint64(len(entries))
	return entries, pages, nil
}

// epochAncestorLevels returns, per tree level, the sorted deduplicated
// node indices on the journaled pages' root paths. The outer slice
// always has geom.Levels() entries (all nil for an empty journal).
func (b *Bonsai) epochAncestorLevels(entries []nvm.JournalEntry) [][]uint64 {
	out := make([][]uint64, b.geom.Levels())
	seen := make(map[uint64]bool)
	for i := range entries {
		child := entries[i].Key
		for level := 0; level < b.geom.Levels(); level++ {
			idx := child / merkle.Arity
			flat := b.geom.Flat(level, idx)
			if !seen[flat] {
				seen[flat] = true
				out[level] = append(out[level], idx)
			}
			child = idx
		}
	}
	for _, idxs := range out {
		sort.Slice(idxs, func(i, j int) bool { return idxs[i] < idxs[j] })
	}
	return out
}

// epochWriteCounters lands each journaled page's Old (pass A) or New
// (pass B) content in the counter region.
func (b *Bonsai) epochWriteCounters(entries []nvm.JournalEntry, old bool, rep *RecoveryReport) {
	for i := range entries {
		blk := entries[i].New
		if old {
			blk = entries[i].Old
		}
		b.dev.WriteRaw(nvm.RegionCounter, entries[i].Key, blk)
		rep.FetchOps++
	}
}

// epochRecompute rebuilds the given per-level node sets bottom-up.
func (b *Bonsai) epochRecompute(levels [][]uint64, rep *RecoveryReport) {
	for level, idxs := range levels {
		for _, idx := range idxs {
			b.recomputeNode(level, idx, rep)
		}
	}
}

// epochRootNVM hashes the root node currently in NVM.
func (b *Bonsai) epochRootNVM(rep *RecoveryReport) uint64 {
	rootNode := b.treeNodeNVM(b.geom.Flat(b.geom.RootLevel(), 0))
	rep.FetchOps++
	rep.CryptoOps++
	return b.eng.ContentHash(rootNode[:])
}

// epochReplayAndAnchor is pass B: replay the journal's latest content,
// recompute the journaled root paths, install the fresh root and clear
// the journal.
func (b *Bonsai) epochReplayAndAnchor(entries []nvm.JournalEntry, levels [][]uint64, rep *RecoveryReport) {
	b.epochWriteCounters(entries, false, rep)
	b.epochRecompute(levels, rep)
	root := b.epochRootNVM(rep)
	b.rootHash = root
	b.dev.SetReg64(regBonsaiRoot, root)
	b.dev.JournalReset()
}
