package obs

// RecPhase names one phase of a crash-recovery pass. Recovery cost in
// the simulator is fully modeled — every NVM fetch and crypto operation
// a recovery performs is counted and priced at a fixed per-op latency
// (memctrl.RecoveryReport.ModeledNS) — so attributing each counted op
// to exactly one phase makes the phase ledger sum-exact by
// construction: phase total == modeled recovery time, the same contract
// the run-stall Ledger has with execution time (DESIGN.md §16).
//
// The taxonomy follows the recovery pipelines of both controller
// families. Not every scheme visits every phase; a phase a scheme never
// enters simply stays zero.
type RecPhase uint8

const (
	// RPImageLoad is pre-recovery image work: DONE_BIT redo of
	// committed-but-undrained WPQ groups, wear-table reload, and root
	// register restore. The op model prices these at zero (they are
	// accounted in the crash path, not the recovery pass), so this
	// phase also serves as the catch-all for any op counted before the
	// first explicit phase mark.
	RPImageLoad RecPhase = iota
	// RPCounterScan is the Osiris-style counter reconstruction scan:
	// reading counter blocks (or SGX metadata leaves) and their data
	// lines to find and fix stale counters.
	RPCounterScan
	// RPShadowReplay is shadow-table reads: SCT/SMT/ST region fetches
	// that tell recovery which lanes/nodes were in flight at the crash.
	RPShadowReplay
	// RPMerkleRebuild is integrity-tree reconstruction: node fetches
	// and hash recomputation to rebuild (or splice and verify) the
	// tree bottom-up.
	RPMerkleRebuild
	// RPJournalPassA and RPJournalPassB were the two passes of the
	// retired epoch pipeline's journal recovery. No recovery enters
	// them, so they are always zero. They keep their slots and names
	// because every recovery_phase_ns object lists all phases (golden
	// rows, anubis-recover -json, perfbench's recovery digest), and
	// perfbench builds its per-layer metric list from RecPhases and
	// checks it against BENCHMARK.json; they go when that list does.
	RPJournalPassA
	RPJournalPassB
	// RPECCVerify is ECC-trial and MAC verification work: the crypto
	// trials Osiris-style correction runs per candidate counter, and
	// the per-tree MAC checks ASIT recovery ends with.
	RPECCVerify
	// RPRootAnchor is final root reconstruction and anchoring: the
	// bottom-up NVM walk to the root and the compare against the
	// tamper-proof register.
	RPRootAnchor

	// NumRecPhases is the number of recovery phases.
	NumRecPhases = iota
)

var recPhaseNames = [NumRecPhases]string{
	"image_load", "counter_osiris_scan", "shadow_table_replay",
	"merkle_rebuild", "epoch_journal_passA", "epoch_journal_passB",
	"ecc_verify", "root_anchor",
}

// String returns the phase's stable snake_case name (part of the JSON
// report schema).
func (p RecPhase) String() string { return nameOf(recPhaseNames[:], int(p), "rec_phase") }

// RecPhaseByName inverts String.
func RecPhaseByName(name string) (RecPhase, bool) {
	i, ok := indexOf(recPhaseNames[:], name)
	return RecPhase(i), ok
}

// RecPhases lists every phase in declaration (and report) order.
func RecPhases() []RecPhase { return seq[RecPhase](NumRecPhases) }

// RecLedger accumulates modeled recovery nanoseconds per phase. Like
// Ledger it is a plain value type: copying snapshots it, Merge reduces
// across trials, and the zero value is an empty ledger.
type RecLedger [NumRecPhases]uint64

// Add charges ns to phase p.
func (l *RecLedger) Add(p RecPhase, ns uint64) { l[p] += ns }

// Get returns the accumulated time of phase p.
func (l *RecLedger) Get(p RecPhase) uint64 { return l[p] }

// Total returns the sum over all phases (== modeled recovery time when
// the ledger covers a whole recovery pass).
func (l *RecLedger) Total() uint64 { return total(l[:]) }

// Merge adds another ledger phase-wise (cross-trial reduction).
func (l *RecLedger) Merge(other *RecLedger) { merge(l[:], other[:]) }

// Map returns the ledger as a name → ns map (JSON-report shape).
func (l *RecLedger) Map() map[string]uint64 {
	m := make(map[string]uint64, NumRecPhases)
	for i, v := range l {
		m[recPhaseNames[i]] = v
	}
	return m
}

// MarshalJSON renders the ledger as an object with stable, named keys
// in phase order, e.g. {"image_load":0,"counter_osiris_scan":800,...}.
func (l RecLedger) MarshalJSON() ([]byte, error) { return marshalNamed(recPhaseNames[:], l[:]) }

// UnmarshalJSON accepts the object form produced by MarshalJSON.
// Unknown keys are ignored so older tools can read newer reports.
func (l *RecLedger) UnmarshalJSON(data []byte) error {
	return unmarshalNamed(data, recPhaseNames[:], l[:])
}
