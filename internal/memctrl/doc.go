package memctrl

// This file documents the correctness invariants the controllers
// maintain. The torture, soak, and model-based tests check these
// end-to-end; the notes here are the catalog of *why* the design is
// safe, kept next to the code because several of them were earned by
// failures the test suite found (see DESIGN.md §6).
//
// Shared invariants (both families)
//
//  I1. Persistence atomicity. Every logical operation's NVM effects are
//      staged into one commit group drained through the persistent
//      registers (DONE_BIT) by core.commitPending, the one commit path
//      of both families. A crash observes either none of the group or —
//      after the recovery redo, which core.recoverFrame runs before any
//      scheme's recovery — all of it. On-chip root registers join the
//      group, so a root can never disagree with the NVM state it
//      authenticates across a crash.
//
//  I2. Single-block side effects (shadow-table fills, eviction
//      writebacks in the Bonsai family) may bypass the group: each is
//      individually atomic at the WPQ and self-consistent with respect
//      to recovery.
//
//  I3. Stable shadow slots. A cached block's slot never changes during
//      its residency, and recovery reinstalls recovered blocks at the
//      exact slot their shadow entry names — otherwise later shadow
//      writes would desynchronize from the table (found by soak).
//
// Bonsai (eager general tree)
//
//  B1. Root freshness. Every counter bump updates the full ancestor
//      path in cache and the on-chip root in the same operation. The
//      root therefore authenticates the *logical* state, including
//      dirty cache content — which is what lets AGIT recovery verify a
//      rebuilt tree against it.
//
//  B2. Counter drift bound. With ECC recovery, a counter block's NVM
//      copy lags its cache copy by at most StopLoss updates, so Osiris
//      trials terminate. The count of updates since the last persist is
//      the counter line's cache.Line.Unpersisted: a stop-loss persist or
//      page overflow zeroes it, and so does every eviction (a dirty line
//      is written back), flush and crash. With phase recovery, the drift
//      is bounded by a page overflow (which force-persists), and the 8
//      phase bits pin the counter exactly.
//
//  B3. Overflow barrier. A minor-counter overflow re-encrypts the page
//      and persists the fresh counter block in the same group, so no
//      recovery path ever has to guess across a major-counter change.
//
// SGX (lazy parallelizable tree)
//
//  S1. Binding invariant. A block's NVM MAC always binds the parent
//      counter value the parent currently holds for it, because the
//      parent bump and the child writeback commit in one group. This is
//      the property the consistency checker validates globally.
//
//  S2. Writeback-buffer visibility. A block is always observable from
//      exactly one place: the cache, the writeback buffer, or NVM.
//      Fetches consult the buffer before NVM, so a mid-writeback block
//      can never be re-fetched stale (found by soak: the stale re-fetch
//      previously resurrected zero-state nodes).
//
//  S3. Shadow-entry dominance. For every dirty metadata block, the
//      newest shadow entry describes its exact cache state, because
//      every modification (data write, parent bump, buffer pull-back)
//      rewrites the entry at the block's current slot.
//
//  S4. Stale-entry safety. Entries left behind by evictions or slot
//      reuse are either (a) equal to the NVM copy — recovery skips them
//      via the counter-monotonicity order — or (b) older than another
//      surviving entry — recovery dedupes to the maximum. Both rules
//      rely on counters being strictly monotone per block.
//
//  S5. ST MAC coverage. A shadow entry's MAC covers the node's full
//      counter values (MSBs included), so splicing onto a tampered NVM
//      copy is detected even though the shadow table stores only the
//      low 49 bits; entry freshness is separately guaranteed by
//      SHADOW_TREE_ROOT.
//
// Wear leveling
//
//  W1. Copy-then-advance. A gap move's line copy reaches the
//      persistence domain before the mapping register advances, so the
//      mapping observed after any crash addresses a line holding valid
//      content.
