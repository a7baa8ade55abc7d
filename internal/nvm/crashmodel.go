package nvm

// Relaxed-persistence crash models.
//
// CrashWith(CrashFullADR, nil) implements the paper's idealized
// power-failure model: full ADR — every write that entered the WPQ is
// durable, whole 64-byte blocks persist atomically, and nothing between
// "pushed" and "drained" can be lost. That is the envelope Anubis (and
// Osiris, and strict persistence) are specified against. But the
// crash-consistency literature the paper argues with (Triad-NVM,
// SuperMem) is explicit that real platforms can fail *outside* that
// envelope: the residual energy budget may drain only part of the WPQ,
// and PCM media writes are performed in 8-byte atoms, so a write
// interrupted mid-drain can tear — a prefix of the block's atoms lands,
// the rest keeps the old content.
//
// CrashWith makes that failure envelope injectable. Under a relaxed
// model, the writes still "in flight" (pushed into the WPQ but not yet
// drained to media at the moment of power loss) may be rolled back or
// torn. On-chip persistent registers and the two-stage commit staging
// area are genuinely persistent (they are inside the processor, not
// behind the WPQ), so they stay atomic under every model — which is
// exactly what lets the DONE_BIT REDO protocol keep committed groups
// whole even when the WPQ loses their already-pushed entries.
//
// Tracking which writes are in flight requires an undo log on Push,
// which is not free; it is armed explicitly with TrackInflight so the
// default (full-ADR) hot path stays allocation-free and byte-identical
// to the untracked device.

import "math/rand"

// CrashModel selects the persistence semantics a power failure applies
// to writes that entered the WPQ but had not drained to media.
type CrashModel uint8

const (
	// CrashFullADR is the paper's model and the default: ADR drains the
	// whole WPQ, every pushed write is durable and block-atomic.
	CrashFullADR CrashModel = iota
	// CrashPartialDrain models an under-provisioned residual-energy
	// budget: only the k oldest in-flight WPQ entries drain (k chosen by
	// the injected rng); newer in-flight writes are lost entirely, as if
	// they had never been pushed.
	CrashPartialDrain
	// CrashTornBlock models non-atomic media writes: each in-flight
	// write persists as a random prefix of its eight 8-byte atoms over
	// the block's previous content (a full 8-atom prefix lands the write
	// whole, sideband included; shorter prefixes leave a torn block with
	// the old sideband). On-chip registers stay atomic.
	CrashTornBlock

	numCrashModels = iota
)

func (m CrashModel) String() string {
	switch m {
	case CrashFullADR:
		return "full-adr"
	case CrashPartialDrain:
		return "partial-drain"
	case CrashTornBlock:
		return "torn-block"
	}
	return "crash-model(?)"
}

// CrashModels lists every model, in declaration order.
func CrashModels() []CrashModel {
	out := make([]CrashModel, numCrashModels)
	for i := range out {
		out[i] = CrashModel(i)
	}
	return out
}

// ParseCrashModel inverts CrashModel.String.
func ParseCrashModel(s string) (CrashModel, bool) {
	for _, m := range CrashModels() {
		if m.String() == s {
			return m, true
		}
	}
	return 0, false
}

// BlockAtoms is the number of 8-byte media write atoms per block: the
// tearing granularity of CrashTornBlock.
const BlockAtoms = BlockBytes / 8

// inflightWrite is one undo-log entry: a pushed write that may still be
// in flight, together with the media state it replaced.
type inflightWrite struct {
	region  Region
	idx     uint64
	blk     [BlockBytes]byte // the new content (replayed by tearing)
	side    Sideband
	hasSide bool

	prevBlk     [BlockBytes]byte
	prevSide    Sideband
	prevPresent bool

	done uint64 // drain completion time; <= now means drained for sure
}

// TrackInflight arms (or disarms) the in-flight undo log CrashWith's
// relaxed models need. While armed, every Push records the overwritten
// media state; entries are pruned as their drains complete. Tracking
// starts empty: writes pushed before arming are treated as drained.
// The default is off, which keeps Push allocation-free.
func (d *Device) TrackInflight(on bool) {
	d.trackInflight = on
	d.inflight = d.inflight[:0]
}

// recordInflight snapshots the pre-write media state of w before it is
// applied. Called from Push with the caller's current time, which also
// prunes entries whose drains have certainly completed.
func (d *Device) recordInflight(w *PendingWrite, now, done uint64) {
	// Prune drained entries from the front (done times are monotone:
	// drains are issued to the earliest-free port, so each successive
	// completion time is >= the previous one).
	i := 0
	for i < len(d.inflight) && d.inflight[i].done <= now {
		i++
	}
	if i > 0 {
		d.inflight = d.inflight[:copy(d.inflight, d.inflight[i:])]
	}
	e := inflightWrite{region: w.Region, idx: w.Index, blk: w.Block, side: w.Side, hasSide: w.HasSide, done: done}
	s := &d.store[w.Region]
	if p := s.pageAt(w.Index); p != nil {
		o := w.Index & pageMask
		if p.present[o>>6]&(1<<(o&63)) != 0 {
			e.prevPresent = true
			e.prevBlk = p.data[o]
		}
		if w.Region == RegionData && p.side != nil {
			e.prevSide = p.side[o]
		}
	}
	d.inflight = append(d.inflight, e)
}

// revertInflight restores the media state an in-flight write replaced.
// Mutation goes through slot(), the COW chokepoint, so reverting a
// forked child never reaches a page shared with its warm parent. Wear
// is deliberately kept: the interrupted drain still stressed the cells.
func (d *Device) revertInflight(e *inflightWrite) {
	s := &d.store[e.region]
	p, o := s.slot(e.idx)
	s.mark(p, o, e.prevPresent)
	p.data[o] = e.prevBlk // zero when the block was absent
	if e.region == RegionData && (p.side != nil || e.prevSide != (Sideband{})) {
		p.setSide(o, e.prevSide)
	}
}

// tearInflight lands the first `atoms` 8-byte atoms of an in-flight
// write over the current media content. atoms == BlockAtoms lands the
// write whole (sideband included); 0 lands nothing.
func (d *Device) tearInflight(e *inflightWrite, atoms int) {
	if atoms <= 0 {
		return
	}
	s := &d.store[e.region]
	p, o := s.slot(e.idx)
	// A partial write still marks the cell as written: the media now
	// holds (garbage) content, not the pristine erased state.
	s.mark(p, o, true)
	copy(p.data[o][:atoms*8], e.blk[:atoms*8])
	if atoms >= BlockAtoms && e.hasSide && e.region == RegionData {
		p.setSide(o, e.side)
	}
}

// CrashWith models a power failure under the given crash model.
//
// Every model shares the full-ADR semantics: staged-but-
// uncommitted groups are lost, committed groups and the persistent
// registers survive, timing state resets, and the pushBudget test hook
// disarms (a budgeted power-loss experiment must not throttle the
// recovered run). The relaxed models additionally mutate the media
// image using the in-flight undo log (see TrackInflight):
//
//   - CrashPartialDrain: rng chooses k in [0, inflight]; the k oldest
//     in-flight writes land whole, the rest are rolled back.
//   - CrashTornBlock: each in-flight write lands a rng-chosen prefix of
//     its 8 atoms (8 = whole write, 0 = nothing).
//
// rng may be nil for CrashFullADR; the relaxed models require it.
// Multiple in-flight writes to the same block are rolled back newest
// to oldest and re-torn oldest to newest, reproducing media order.
func (d *Device) CrashWith(model CrashModel, rng *rand.Rand) {
	switch model {
	case CrashFullADR:
		// Everything pushed is durable: nothing to do.
	case CrashPartialDrain:
		n := len(d.inflight)
		k := 0
		if n > 0 {
			k = rng.Intn(n + 1)
		}
		lost := d.inflight[k:]
		for i := len(lost) - 1; i >= 0; i-- {
			d.revertInflight(&lost[i])
		}
	case CrashTornBlock:
		// Roll everything in flight back, then replay each write's torn
		// prefix in media order.
		for i := len(d.inflight) - 1; i >= 0; i-- {
			d.revertInflight(&d.inflight[i])
		}
		for i := range d.inflight {
			d.tearInflight(&d.inflight[i], rng.Intn(BlockAtoms+1))
		}
	}
	d.inflight = d.inflight[:0]
	if !d.doneBit {
		d.staged = d.staged[:0]
	}
	for i := range d.bankFree {
		d.bankFree[i] = 0
	}
	d.ports.reset()
	d.wpq.reset()
	// A budgeted power-loss trial must not leak its throttle into the
	// recovered run: commit groups after the crash drain in full.
	d.pushBudget = -1
}
