package memctrl

import (
	"fmt"

	"anubis/internal/counter"
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
func (c *SGX) Recover() (*RecoveryReport, error) { return c.recoverFrame(c.recoverScheme) }

func (c *SGX) recoverScheme(rep *RecoveryReport) error {
	// The on-chip root node survives in its persistent register.
	if blk, ok := c.dev.GetReg(regSGXRoot); ok {
		c.rootNode = counter.UnpackSGX(blk)
	}

	switch c.cfg.Scheme {
	case SchemeWriteBack, SchemeOsiris:
		c.crashed = false
		return fmt.Errorf("%w: SGX-style tree cannot be rebuilt from encryption counters", ErrNotRecoverable)
	case SchemeStrict:
		c.crashed = false
		return nil
	case SchemeASIT:
		return c.recoverASIT(rep)
	}
	return fmt.Errorf("%w: no recovery for scheme %v", ErrUnrecoverable, c.cfg.Scheme)
}

// recoverASIT implements Algorithm 2 of the paper.
func (c *SGX) recoverASIT(rep *RecoveryReport) error {
	// ASIT refreshes SHADOW_TREE_ROOT with every shadow-table write and
	// never writes the epoch journal. An entry there describes no ASIT
	// state the register can vouch for, so recovery fails closed.
	if n := c.dev.JournalLen(); n > 0 {
		return fmt.Errorf("%w: ASIT device holds %d epoch journal entries", ErrUnrecoverable, n)
	}

	// 1. Read the Shadow Table from NVM and verify its integrity by
	// regenerating SHADOW_TREE_ROOT and comparing with the on-chip copy.
	rep.enterPhase(obs.RPShadowReplay)
	live := c.st.Restore(func(bi uint64) [BlockBytes]byte {
		rep.FetchOps++
		return c.dev.Read(nvm.RegionST, bi)
	})
	c.stRoot = c.buildShadowTree(&rep.CryptoOps)
	want, _ := c.dev.GetReg64(regShadowTreeRoot)
	if c.stRoot != want {
		return fmt.Errorf("%w: shadow table root %#x != SHADOW_TREE_ROOT %#x", ErrUnrecoverable, c.stRoot, want)
	}

	// 2. Recover tree nodes: splice the shadow LSBs and MAC onto each
	// tracked node's stale NVM copy. A block that was evicted and later
	// re-dirtied in a different slot leaves two authenticated entries;
	// counters only ever grow, so the entry with the larger counter
	// vector is the newer one and wins (the lower slot on a tie). The
	// shadow table mirrors the cache slot for slot, so every entry of a
	// key lies in the key's own cache set, and the newest entry is
	// chosen within that set.
	type candidate struct {
		key  uint64
		g    counter.SGX
		sum  uint64
		slot int
	}
	rep.enterPhase(obs.RPMerkleRebuild)
	ways := c.mCache.Ways()
	recs := make([]candidate, 0, live) // the winners, in slot order
	set := make([]candidate, 0, ways)  // one set's candidates, in slot order
	for base := 0; base < c.st.NumSlots(); base += ways {
		set = set[:0]
		for slot := base; slot < base+ways; slot++ {
			e, ok := c.st.Get(slot)
			if !ok {
				continue
			}
			rep.EntriesScanned++
			// The shadow table was authenticated against SHADOW_TREE_ROOT
			// in step 1, but defense in depth: a key outside the metadata
			// space would panic inside Geometry.Unflat below, and a key
			// outside its slot's set would make InsertAtSlot panic; recovery
			// must fail typed, never crash, on any image a power failure
			// (or a tamperer racing one) can produce.
			if !c.validMetaKey(e.Key) {
				return fmt.Errorf("%w: shadow table slot %d tracks invalid metadata key %#x", ErrUnrecoverable, slot, e.Key)
			}
			if !c.mCache.CanInsertAtSlot(slot, e.Key) {
				return fmt.Errorf("%w: shadow table places key %#x in illegal slot %d", ErrUnrecoverable, e.Key, slot)
			}
			region, idx := c.regionIdx(c.refOfKey(e.Key))
			stale := counter.UnpackSGX(c.dev.Read(region, idx))
			rep.FetchOps++
			cand := candidate{key: e.Key, slot: slot}
			for i := 0; i < counter.SGXCounters; i++ {
				cand.g.Ctr[i] = counter.SpliceLSB(stale.Ctr[i], e.LSBs[i])
			}
			cand.g.MAC = e.MAC
			cand.sum = ctrSum(&cand.g)
			// A stale entry can describe a state *older* than the NVM
			// copy: the block was written back (NVM fresh), its newer
			// entry's slot was reused by another block, and only an
			// outdated entry survives. States of one block are totally
			// ordered (counters are monotone), so an entry is only worth
			// recovering when it is strictly newer than NVM; otherwise the
			// NVM copy is current and will be verified through the parent
			// chain on its next fetch. (A tampered "newer-looking" NVM copy
			// only causes a skip here and is then caught by that same
			// fetch verification.)
			if cand.sum > ctrSum(&stale) {
				set = append(set, cand)
			}
		}
	winners:
		for i := range set {
			cand := &set[i]
			for j := range set {
				other := &set[j]
				if other.key == cand.key && (other.sum > cand.sum || other.sum == cand.sum && j < i) {
					continue winners
				}
			}
			recs = append(recs, *cand)
		}
	}
	// Reinstall in ascending slot order, which sets the cache's recency,
	// in exactly the slot each winning entry tracks: a block placed in a
	// different way would desynchronize every future shadow write for
	// this set. The placement is legal: the slot is in the key's set,
	// and each key and slot wins at most once.
	for i := range recs {
		rc := &recs[i]
		c.mCache.InsertAtSlot(rc.slot, rc.key, rc.g.Pack())
		c.mCache.MarkDirty(rc.key)
		rep.NodesRebuilt++
	}

	// 3. Verify integrity: each recovered node's shadow MAC must match
	// the hash over its full spliced counter values. The MAC was
	// computed over the complete counters at update time, so any
	// tampering with the stale copy's MSBs (the only part not stored in
	// the shadow table) is caught here; the shadow table itself was
	// already authenticated by SHADOW_TREE_ROOT in step 1.
	rep.enterPhase(obs.RPECCVerify)
	for i := range recs {
		rc := &recs[i]
		rep.CryptoOps++
		addr := c.addrOf(c.refOfKey(rc.key))
		if c.eng.STMAC(addr, rc.g.Ctr[:]) != rc.g.MAC {
			return fmt.Errorf("%w: recovered node MAC mismatch at %#x", ErrUnrecoverable, addr)
		}
	}

	// Recovered nodes sit dirty in the cache and propagate to NVM
	// through natural eviction, as in the paper (§4.3.2).
	c.crashed = false
	return nil
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
