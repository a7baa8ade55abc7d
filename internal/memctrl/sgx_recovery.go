package memctrl

import (
	"fmt"

	"anubis/internal/counter"
	"anubis/internal/merkle"
	"anubis/internal/nvm"
	"anubis/internal/obs"
)

// Recover brings the SGX-family controller back to a verified state.
//
//   - WriteBack and Osiris cannot recover this tree: intermediate nodes
//     lost from the cache cannot be regenerated from the leaves, because
//     each node's MAC depends on a parent nonce that is itself lost
//     (§2.3.2/§3). Both return ErrNotRecoverable after the DONE_BIT
//     redo, leaving the controller serviceable for demonstration reads.
//   - Strict is instantly consistent.
//   - ASIT runs Algorithm 2: verify the Shadow Table against
//     SHADOW_TREE_ROOT, splice each tracked node's counter LSBs and MAC
//     onto its stale NVM copy, re-insert the result dirty, and verify
//     every recovered node's MAC against its parent counter.
func (c *SGX) Recover() (*RecoveryReport, error) {
	rep, err := c.doRecover()
	if rep != nil {
		// Attribute any ops counted since the last phase boundary so the
		// phase ledger covers the whole pass, success or failure.
		rep.settlePhases()
	}
	if c.probe != nil && rep != nil {
		c.probe.Event(obs.EvRecovery, c.now, c.now+rep.ModeledNS(), rep.FetchOps+rep.CryptoOps)
	}
	return rep, err
}

func (c *SGX) doRecover() (*RecoveryReport, error) {
	rep := &RecoveryReport{Scheme: c.cfg.Scheme}
	rep.RedoneWrites = c.dev.RedoCommitted()

	// Restore the wear-leveling map before any data-region access.
	wl, err := reloadWearLeveler(c.dev, c.cfg.WearPeriod)
	if err != nil {
		return rep, fmt.Errorf("%w: %v", ErrUnrecoverable, err)
	}
	c.wl = wl

	// The on-chip root node survives in its persistent register.
	if blk, ok := c.dev.GetReg(regSGXRoot); ok {
		c.rootNode = counter.UnpackSGX(blk)
	}

	switch c.cfg.Scheme {
	case SchemeWriteBack, SchemeOsiris:
		c.crashed = false
		return rep, fmt.Errorf("%w: SGX-style tree cannot be rebuilt from encryption counters", ErrNotRecoverable)
	case SchemeStrict:
		c.crashed = false
		return rep, nil
	case SchemeASIT:
		return c.recoverASIT(rep)
	}
	return rep, fmt.Errorf("%w: no recovery for scheme %v", ErrUnrecoverable, c.cfg.Scheme)
}

// recoverASIT implements Algorithm 2 of the paper.
func (c *SGX) recoverASIT(rep *RecoveryReport) (*RecoveryReport, error) {
	// ASIT refreshes SHADOW_TREE_ROOT with every shadow-table write and
	// never writes the epoch journal. An entry there describes no ASIT
	// state the register can vouch for, so recovery fails closed.
	if n := c.dev.JournalLen(); n > 0 {
		return rep, fmt.Errorf("%w: ASIT device holds %d epoch journal entries", ErrUnrecoverable, n)
	}

	// 1. Read the Shadow Table from NVM and verify its integrity by
	// regenerating SHADOW_TREE_ROOT and comparing with the on-chip copy.
	rep.enterPhase(obs.RPShadowReplay)
	c.st.Restore(func(bi uint64) [BlockBytes]byte {
		rep.FetchOps++
		return c.dev.Read(nvm.RegionST, bi)
	})
	c.stRoot = merkle.BuildGeneral(c.stGeom, c.eng,
		func(i uint64) [BlockBytes]byte { return c.st.Block(int(i)) },
		func(flat uint64, n merkle.GNode) {
			l, i := c.stGeom.Unflat(flat)
			c.stNodes[l][i] = n
		}, &rep.CryptoOps)
	want, _ := c.dev.GetReg64(regShadowTreeRoot)
	if c.stRoot != want {
		return rep, fmt.Errorf("%w: shadow table root %#x != SHADOW_TREE_ROOT %#x", ErrUnrecoverable, c.stRoot, want)
	}

	// 2. Recover tree nodes: splice the shadow LSBs and MAC onto each
	// tracked node's stale NVM copy. A block that was evicted and later
	// re-dirtied in a different slot leaves two authenticated entries;
	// counters only ever grow, so the entry with the larger counter
	// vector is the newer one and wins.
	type candidate struct {
		g    counter.SGX
		slot int
	}
	type recovered struct {
		ref metaRef
		g   counter.SGX
	}
	rep.enterPhase(obs.RPMerkleRebuild)
	best := make(map[uint64]candidate)
	for slot := 0; slot < c.st.NumSlots(); slot++ {
		e, ok := c.st.Get(slot)
		if !ok {
			continue
		}
		rep.EntriesScanned++
		// The shadow table was authenticated against SHADOW_TREE_ROOT in
		// step 1, but defense in depth: a key outside the metadata space
		// would panic inside Geometry.Unflat below, and recovery must
		// fail typed, never crash, on any image a power failure (or a
		// tamperer racing one) can produce.
		if !c.validMetaKey(e.Key) {
			return rep, fmt.Errorf("%w: shadow table slot %d tracks invalid metadata key %#x", ErrUnrecoverable, slot, e.Key)
		}
		r := c.refOfKey(e.Key)
		region, idx := c.regionIdx(r)
		stale := counter.UnpackSGX(c.dev.Read(region, idx))
		rep.FetchOps++
		var g counter.SGX
		for i := 0; i < counter.SGXCounters; i++ {
			g.Ctr[i] = counter.SpliceLSB(stale.Ctr[i], e.LSBs[i])
		}
		g.MAC = e.MAC
		// A stale entry can describe a state *older* than the NVM copy:
		// the block was written back (NVM fresh), its newer entry's slot
		// was reused by another block, and only an outdated entry
		// survives. States of one block are totally ordered (counters
		// are monotone), so an entry is only worth recovering when it is
		// strictly newer than NVM; otherwise the NVM copy is current and
		// will be verified through the parent chain on its next fetch.
		// (A tampered "newer-looking" NVM copy only causes a skip here
		// and is then caught by that same fetch verification.)
		if ctrSum(&g) <= ctrSum(&stale) {
			continue
		}
		if prev, ok := best[e.Key]; !ok || ctrSum(&g) > ctrSum(&prev.g) {
			best[e.Key] = candidate{g: g, slot: slot}
		}
	}
	// Reinstall in ascending slot order: install order sets the cache's
	// recency, so ranging over best (random map order) would make
	// post-recovery evictions differ from run to run.
	recs := make([]recovered, 0, len(best))
	for slot := 0; slot < c.st.NumSlots(); slot++ {
		e, ok := c.st.Get(slot)
		if !ok {
			continue
		}
		key := e.Key
		cand, ok := best[key]
		if !ok || cand.slot != slot {
			continue
		}
		// Reinstall the block in exactly the slot its live entry tracks:
		// the shadow table mirrors the cache's data array slot-for-slot,
		// so a block placed in a different way would desynchronize every
		// future shadow write for this set. InsertAtSlot panics on an
		// illegal placement (its contract is programming error, not bad
		// input), so validate the untrusted placement first.
		if !c.mCache.CanInsertAtSlot(cand.slot, key) {
			return rep, fmt.Errorf("%w: shadow table places key %#x in illegal slot %d", ErrUnrecoverable, key, cand.slot)
		}
		c.mCache.InsertAtSlot(cand.slot, key, cand.g.Pack())
		c.mCache.MarkDirty(key)
		rep.NodesRebuilt++
		recs = append(recs, recovered{ref: c.refOfKey(key), g: cand.g})
	}

	// 3. Verify integrity: each recovered node's shadow MAC must match
	// the hash over its full spliced counter values. The MAC was
	// computed over the complete counters at update time, so any
	// tampering with the stale copy's MSBs (the only part not stored in
	// the shadow table) is caught here; the shadow table itself was
	// already authenticated by SHADOW_TREE_ROOT in step 1.
	rep.enterPhase(obs.RPECCVerify)
	for _, rc := range recs {
		rep.CryptoOps++
		if c.eng.STMAC(c.addrOf(rc.ref), rc.g.Ctr[:]) != rc.g.MAC {
			return rep, fmt.Errorf("%w: recovered node MAC mismatch at %#x", ErrUnrecoverable, c.addrOf(rc.ref))
		}
	}

	// Recovered nodes sit dirty in the cache and propagate to NVM
	// through natural eviction, as in the paper (§4.3.2).
	c.crashed = false
	return rep, nil
}

// validMetaKey reports whether a (possibly crash-corrupted) shadow
// table key denotes a real metadata block: a counter leaf below
// numLeaves, or a tree node whose flat index lies inside the geometry.
// refOfKey/regionIdx assume a valid key and panic otherwise.
func (c *SGX) validMetaKey(key uint64) bool {
	if key&treeKeyBase == 0 {
		return key < c.numLeaves
	}
	return key&^treeKeyBase < c.geom.TotalNodes()
}

// ctrSum totals a block's counters; counters are monotone, so the sum
// orders snapshots of the same block by freshness.
func ctrSum(g *counter.SGX) uint64 {
	var s uint64
	for _, c := range g.Ctr {
		s += c
	}
	return s
}
