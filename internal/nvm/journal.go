package nvm

// Epoch journal: a small persistent redo/undo log inside the
// controller's persistence domain (on-chip SRAM next to the persistent
// register file, per the integrity-tree write-coalescing literature —
// Freij et al., "Streamlining Integrity Tree Updates").
//
// When the memory controller coalesces integrity-tree updates over an
// epoch, the on-chip root register is only refreshed at epoch close:
// between closes the register covers the *epoch-start* state, while
// the metadata blocks touched this epoch have moved on. The journal is
// what keeps that window recoverable: for every metadata block the
// epoch has touched, it holds the block's epoch-start content (Old,
// the value the stale root register still authenticates) and its
// latest content (New). After a crash, recovery authenticates the
// untouched state against the stale register using Old, then replays
// New and installs the fresh root — see the two-pass recovery in
// internal/memctrl.
//
// Journal updates ride inside two-stage commit groups as PendingWrite
// entries with a JOp set, so a journal note becomes durable atomically
// with the data write it describes (DONE_BIT REDO replays it if the
// drain was interrupted; replay is idempotent). Like register writes,
// journal operations are on-chip: they consume no WPQ slot, no media
// bandwidth, and survive every crash model — including the relaxed
// partial-drain and torn-block models, which only mutate media blocks
// behind the WPQ.

// JournalOp discriminates the epoch-journal operations a PendingWrite
// can carry.
type JournalOp uint8

const (
	// JournalNone marks an ordinary NVM/register write.
	JournalNone JournalOp = iota
	// JournalNote upserts an entry: first note for a key records
	// {Key, JOld, Block}; later notes for the same key refresh only the
	// New content (the epoch-start Old is sticky until the journal is
	// cleared). Replaying a note is idempotent.
	JournalNote
	// JournalClear empties the journal (epoch close: the refreshed root
	// register now covers everything, so the window is gone).
	JournalClear
)

// JournalEntry is one journaled metadata block. Key is an opaque
// controller-chosen identifier: a counter-page index, since the Bonsai
// family is the only one that journals. The device never interprets it.
type JournalEntry struct {
	Key uint64
	Old [BlockBytes]byte // content at first epoch touch (covered by the stale root register)
	New [BlockBytes]byte // latest content (replayed by recovery)
}

// applyJournal is the functional effect of a journal-op PendingWrite
// reaching the persistence domain. Idempotent, as RedoCommitted needs.
func (d *Device) applyJournal(w *PendingWrite) {
	switch w.JOp {
	case JournalNote:
		if d.journalIdx == nil {
			d.journalIdx = make(map[uint64]int)
		}
		if i, ok := d.journalIdx[w.JKey]; ok {
			d.journal[i].New = w.Block
			return
		}
		d.journalIdx[w.JKey] = len(d.journal)
		d.journal = append(d.journal, JournalEntry{Key: w.JKey, Old: w.JOld, New: w.Block})
	case JournalClear:
		d.journal = d.journal[:0]
		for k := range d.journalIdx {
			delete(d.journalIdx, k)
		}
	}
}

// JournalLen returns the number of live journal entries.
func (d *Device) JournalLen() int { return len(d.journal) }

// JournalLookup returns the entry for a key, if journaled.
func (d *Device) JournalLookup(key uint64) (JournalEntry, bool) {
	if i, ok := d.journalIdx[key]; ok {
		return d.journal[i], true
	}
	return JournalEntry{}, false
}

// JournalEntries returns a copy of the live entries in note order
// (note order is deterministic for a deterministic workload, so
// recovery iteration over it is reproducible).
func (d *Device) JournalEntries() []JournalEntry {
	return append([]JournalEntry(nil), d.journal...)
}

// JournalReset empties the journal outside a commit group. Recovery
// calls it after replaying New content and installing the fresh root;
// the in-band path is a staged JournalClear op.
func (d *Device) JournalReset() {
	d.journal = d.journal[:0]
	for k := range d.journalIdx {
		delete(d.journalIdx, k)
	}
}

// cloneJournal copies journal state into a forked device.
func (d *Device) cloneJournal(n *Device) {
	n.journal = append([]JournalEntry(nil), d.journal...)
	if d.journalIdx != nil {
		n.journalIdx = make(map[uint64]int, len(d.journalIdx))
		for k, v := range d.journalIdx {
			n.journalIdx[k] = v
		}
	}
}
