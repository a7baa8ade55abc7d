package memctrl

// Bank-parallel epoch pipeline with coalesced integrity-tree updates.
//
// The eager write path updates every Merkle ancestor of the written
// counter block once per request, and Strict (every level) and Triad
// (the lowest TriadLevels) persist each updated node, even though
// consecutive writes share almost all of their root path. With
// cfg.EpochRequests > 1 those two schemes (defersTreeUpdates) instead
// add the page to a per-epoch dirty set in WriteBlock, and closeEpoch
// drains it in one coalesced commit group every cfg.EpochRequests
// writes: each dirty ancestor is recomputed and persisted once per
// epoch, however many child updates it absorbed.
//
// Crash safety ("coalescing buffer persistence contract"): while a
// window is open, the on-chip root register still anchors the
// epoch-start state. Every epoch write therefore stages a journal note
// inside its atomic commit group (see nvm.Device's epoch journal): the
// note's Old pins the epoch-start content of the block — the value the
// stale register covers — and its New tracks the authoritative current
// content. Recovery from a mid-epoch crash runs two passes: pass A
// rolls journaled blocks back to Old and verifies the stale register,
// pass B replays New, recomputes the journaled root paths and anchors
// the fresh root (see bonsai_recovery.go). The close itself retires the
// window atomically: the coalesced node writes, the fresh root register
// and the journal clear ride one commit group.
//
// Every other scheme, and the whole SGX family, ignores
// cfg.EpochRequests and runs eager: they persist no tree node per
// write, so a window has nothing to coalesce (see DESIGN.md §12).

import (
	"sort"

	"anubis/internal/merkle"
	"anubis/internal/nvm"
	"anubis/internal/obs"
)

// defersTreeUpdates reports whether scheme s runs the epoch pipeline
// when cfg.EpochRequests > 1: Strict and Triad, the schemes that
// persist tree nodes on every write and so gain from coalescing them
// (Triad keeps it at TriadLevels 0 too, where it loses). Every other
// scheme's recovery fails closed on a journal entry.
func defersTreeUpdates(s Scheme) bool {
	return s == SchemeStrict || s == SchemeTriad
}

// closeEpoch drains the coalescing buffer: every dirty ancestor of the
// window's written pages is recomputed exactly once, persisted per the
// scheme's policy, and the fresh root register plus the journal clear
// retire the window in one atomic commit group. Safe to call with an
// empty window.
//
// The walk keeps cache pressure bounded: dirty children are processed
// in sorted order, so each parent's dirty children are contiguous and
// only one parent line is held at a time.
func (b *Bonsai) closeEpoch() error {
	b.epochWrites = 0
	if len(b.epochDirty) == 0 {
		return nil
	}
	start := b.now

	pages := b.epochPages[:0]
	for p := range b.epochDirty {
		pages = append(pages, p)
	}
	sort.Slice(pages, func(i, j int) bool { return pages[i] < pages[j] })
	b.epochPages = pages

	hashes := b.epochHash[:0]
	for _, p := range pages {
		line, err := b.getCounterBlock(p)
		if err != nil {
			return err
		}
		hashes = append(hashes, b.eng.ContentHash(line.Data[:]))
	}
	b.epochHash = hashes

	b.pending = b.pending[:0]
	nodes := 0
	idxs := pages
	for level := 0; level < b.geom.Levels(); level++ {
		b.now += b.cfg.HashNS // one pipelined hash pass per level
		b.dev.Attr().Add(obs.CompCrypto, b.cfg.HashNS)
		var parents []uint64
		var parentHashes []uint64
		for i := 0; i < len(idxs); {
			nodeIdx := idxs[i] / merkle.Arity
			line, err := b.getTreeNode(level, nodeIdx)
			if err != nil {
				return err
			}
			gn := merkle.GNode(line.Data)
			for ; i < len(idxs) && idxs[i]/merkle.Arity == nodeIdx; i++ {
				gn.SetHash(int(idxs[i]%merkle.Arity), hashes[i])
			}
			line.Data = gn
			nodes++
			b.persistTreeNode(level, nodeIdx, line)
			parents = append(parents, nodeIdx)
			parentHashes = append(parentHashes, b.eng.ContentHash(line.Data[:]))
		}
		idxs, hashes = parents, parentHashes
	}
	b.rootHash = hashes[0]

	// Drain-window placement: order the coalesced node writes (all of
	// b.pending so far) so the banks that free up earliest drain first
	// (nvm.Device.EarliestBankFree over singleton bank sets;
	// deterministic, ties broken by bank then node index).
	if treeWrites := b.pending; len(treeWrites) > 1 {
		banks := b.dev.Timing().Banks
		free := make([]uint64, banks)
		order := make([]int, banks)
		for i := 0; i < banks; i++ {
			bank := i
			free[i] = b.dev.EarliestBankFree(func(x int) bool { return x == bank })
			order[i] = i
		}
		sort.SliceStable(order, func(i, j int) bool {
			if free[order[i]] != free[order[j]] {
				return free[order[i]] < free[order[j]]
			}
			return order[i] < order[j]
		})
		rank := make([]int, banks)
		for r, bank := range order {
			rank[bank] = r
		}
		sort.SliceStable(treeWrites, func(i, j int) bool {
			bi := b.dev.BankOf(nvm.RegionTree, treeWrites[i].Index)
			bj := b.dev.BankOf(nvm.RegionTree, treeWrites[j].Index)
			if bi != bj {
				return rank[bi] < rank[bj]
			}
			return treeWrites[i].Index < treeWrites[j].Index
		})
	}

	var rootBlk [BlockBytes]byte
	putU64(rootBlk[:], b.rootHash)
	b.pending = append(b.pending, nvm.PendingWrite{RegName: regBonsaiRoot, Block: rootBlk})
	b.pending = append(b.pending, nvm.PendingWrite{JOp: nvm.JournalClear})
	b.commitPending()

	for p := range b.epochDirty {
		delete(b.epochDirty, p)
	}
	if b.probe != nil {
		b.probe.Event(obs.EvEpochClose, start, b.now, uint64(nodes))
	}
	return nil
}

// FlushEpoch closes any open epoch window, draining the deferred tree
// updates. A no-op for eager controllers, empty windows, and crashed
// controllers. The harness calls it at end-of-run so the reported
// state and timings cover the whole workload.
func (b *Bonsai) FlushEpoch() error {
	if b.crashed || b.epochDirty == nil {
		return nil
	}
	return b.closeEpoch()
}
