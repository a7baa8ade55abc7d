// Package anubis is a from-scratch implementation of Anubis (Zubair &
// Awad, ISCA 2019): a secure non-volatile main-memory controller with
// ultra-low overhead crash recovery of its security metadata.
//
// A System encrypts every 64-byte block with counter-mode encryption,
// protects the encryption counters with an integrity tree (general
// Bonsai Merkle tree or SGX-style parallelizable tree), persists data
// and metadata atomically through a Write Pending Queue, and — with the
// Anubis schemes — shadow-tracks the on-chip metadata caches in NVM so
// that after a power failure the system recovers in time proportional
// to the cache size instead of the memory size.
//
// Quick start:
//
//	sys, _ := anubis.New(anubis.Config{Scheme: anubis.AGITPlus, MemoryBytes: 1 << 24})
//	sys.WriteBlock(0, data)     // encrypted, integrity-protected, persistent
//	sys.Crash()                 // power failure: caches and queues are lost
//	rep, _ := sys.Recover()     // milliseconds-equivalent metadata repair
//	got, _ := sys.ReadBlock(0)  // verified against the on-chip root
//
// Eight schemes are available. Six match the paper's evaluation: the
// WriteBack baseline (unrecoverable), Strict persistence, Osiris
// (counters recoverable; tree rebuild is O(memory) on general trees and
// impossible on SGX trees), and the Anubis schemes AGITRead, AGITPlus
// (general tree) and ASIT (SGX tree). Two are related-work baselines on
// the general tree: Triad (Triad-NVM) and Selective (selective counter
// atomicity). WriteBack, Strict and Osiris run on either tree, which
// makes eleven (scheme, tree) pairs; SchemeNames lists their names and
// ParseScheme resolves one.
package anubis

import (
	"errors"
	"fmt"
	"io"
	"strings"

	"anubis/internal/memctrl"
	"anubis/internal/nvm"
	"anubis/internal/obs"
	"anubis/internal/recmodel"
)

// BlockSize is the protected access granularity in bytes.
const BlockSize = memctrl.BlockBytes

// Scheme selects the persistence/recovery mechanism. It aliases the
// controllers' enum, so it JSON-encodes as its name ("agit-plus").
type Scheme = memctrl.Scheme

const (
	// WriteBack is the unprotected-against-crashes baseline.
	WriteBack = memctrl.SchemeWriteBack
	// Strict persists every metadata update immediately (recoverable,
	// highest overhead).
	Strict = memctrl.SchemeStrict
	// Osiris adds stop-loss counter persistence; recovery is
	// whole-memory (hours at TB scale) and only works on general trees.
	Osiris = memctrl.SchemeOsiris
	// AGITRead is Anubis for general integrity trees, tracking metadata
	// cache fills in shadow tables.
	AGITRead = memctrl.SchemeAGITRead
	// AGITPlus tracks only first modifications (the paper's best
	// general-tree scheme: ~3.4% overhead).
	AGITPlus = memctrl.SchemeAGITPlus
	// ASIT is Anubis for SGX-style parallelizable trees: the only
	// practical scheme that makes them recoverable.
	ASIT = memctrl.SchemeASIT
	// Triad is a Triad-NVM-style baseline (§7's concurrent work):
	// counters plus the first TriadLevels tree levels persist on every
	// write; recovery rebuilds only the levels above. The knob trades
	// run-time overhead for recovery time — but recovery stays
	// memory-bound, unlike Anubis.
	Triad = memctrl.SchemeTriad
	// Selective is the selective counter atomicity baseline (HPCA'18):
	// only a designated persistent region's counters are written
	// through, recovery rebuilds the whole tree and re-anchors the root.
	// Relaxed counters open a post-crash replay window (see the tests) —
	// the weakness that motivated Osiris and Anubis.
	Selective = memctrl.SchemeSelective
)

// TreeKind selects the integrity tree family for the baseline schemes
// (WriteBack, Strict, Osiris exist in both of the paper's evaluations).
// A scheme that exists on one tree only runs there whatever
// Config.Tree says: AGIT, Triad and Selective on GeneralTree, ASIT on
// SGXTree.
type TreeKind = memctrl.Family

const (
	// GeneralTree is the non-parallelizable Bonsai Merkle tree.
	GeneralTree = memctrl.FamilyBonsai
	// SGXTree is the parallelizable SGX-style nonce tree.
	SGXTree = memctrl.FamilySGX
)

// ParseScheme resolves one of SchemeNames() to its scheme and tree:
// "strict" is Strict on GeneralTree, "strict-sgx" Strict on SGXTree.
func ParseScheme(name string) (Scheme, TreeKind, error) {
	v, ok := memctrl.VariantByName(name)
	if !ok {
		return 0, 0, fmt.Errorf("anubis: unknown scheme %q (want one of: %s)", name, strings.Join(SchemeNames(), ", "))
	}
	return v.Scheme, v.Family, nil
}

// SchemeNames lists every (scheme, tree) pair by the name ParseScheme
// accepts — the eleven names every tool's -scheme flag takes.
func SchemeNames() []string {
	names := make([]string, len(memctrl.Variants))
	for i, v := range memctrl.Variants {
		names[i] = v.Name
	}
	return names
}

// Config parameterizes a System. Zero values take the paper's Table 1
// defaults (except MemoryBytes, which defaults to 1 GB to keep casual
// use light; the geometry scales to any multiple of 4 KB).
type Config struct {
	Scheme Scheme
	Tree   TreeKind

	// MemoryBytes is the protected capacity (multiple of 4096).
	MemoryBytes uint64

	// Cache sizes in bytes (0 = Table 1 defaults: 256 KB counter,
	// 256 KB tree, 512 KB combined metadata cache).
	CounterCacheBytes int
	TreeCacheBytes    int
	MetaCacheBytes    int

	// StopLoss is the Osiris stop-loss limit (0 = 4).
	StopLoss int

	// PhaseRecovery selects phase-bit counter recovery (§2.4's data-bus
	// extension) instead of Osiris ECC trials for the general-tree
	// schemes: no stop-loss writes at run time, single-trial recovery.
	PhaseRecovery bool

	// WearLevelingPeriod enables Start-Gap wear leveling of the data
	// region when positive: the gap line rotates every N data writes,
	// spreading hot-block wear across the medium. Zero disables it.
	WearLevelingPeriod int

	// TriadLevels is the Triad scheme's resilience knob: tree levels
	// persisted on every write.
	TriadLevels int

	// PersistentBytes bounds the Selective scheme's persistent region
	// (rounded down to blocks). Zero treats the whole memory as
	// persistent.
	PersistentBytes uint64
}

// System is a secure NVM memory: encrypted, integrity-protected,
// crash-recoverable per the configured scheme. Not safe for concurrent
// use: goroutines that share one serialize their calls, as
// internal/serve does with one mutex per tenant.
type System struct {
	ctrl memctrl.Controller
}

// ErrUnrecoverable reports that recovery failed verification.
var ErrUnrecoverable = memctrl.ErrUnrecoverable

// ErrNotRecoverable reports that the scheme has no recovery mechanism.
var ErrNotRecoverable = memctrl.ErrNotRecoverable

// ErrCrashed reports I/O issued between Crash and Recover. Match with
// errors.Is to distinguish a mid-crash tenant from a real failure.
var ErrCrashed = memctrl.ErrCrashed

// IsIntegrityViolation reports whether an error came from a failed
// integrity check (tampering, replay, or inconsistent crash state).
func IsIntegrityViolation(err error) bool {
	var ie *memctrl.IntegrityError
	return errors.As(err, &ie)
}

// toInternal converts the public configuration to the controller's and
// resolves the effective tree kind.
func (cfg Config) toInternal() (memctrl.Config, TreeKind) {
	mc := memctrl.DefaultConfig(cfg.Scheme)
	if cfg.MemoryBytes == 0 {
		cfg.MemoryBytes = 1 << 30
	}
	mc.MemoryBytes = cfg.MemoryBytes
	if cfg.CounterCacheBytes > 0 {
		mc.CounterCacheBlocks = cfg.CounterCacheBytes / BlockSize
	}
	if cfg.TreeCacheBytes > 0 {
		mc.TreeCacheBlocks = cfg.TreeCacheBytes / BlockSize
	}
	if cfg.MetaCacheBytes > 0 {
		mc.MetaCacheBlocks = cfg.MetaCacheBytes / BlockSize
	}
	if cfg.StopLoss > 0 {
		mc.StopLoss = cfg.StopLoss
	}
	if cfg.PhaseRecovery {
		mc.Recovery = memctrl.RecoveryPhase
	}
	mc.WearPeriod = cfg.WearLevelingPeriod
	mc.PersistentBlocks = cfg.PersistentBytes / BlockSize
	mc.TriadLevels = cfg.TriadLevels

	tree := cfg.Tree
	if !memctrl.Supports(tree, cfg.Scheme) {
		for _, v := range memctrl.Variants {
			if v.Scheme == cfg.Scheme {
				tree = v.Family
				break
			}
		}
	}
	return mc, tree
}

// New constructs a System over a fresh, zeroed NVM.
func New(cfg Config) (*System, error) {
	mc, tree := cfg.toInternal()
	ctrl, err := memctrl.New(tree, mc)
	if err != nil {
		return nil, err
	}
	return &System{ctrl: ctrl}, nil
}

// Scheme returns the configured scheme.
func (s *System) Scheme() Scheme { return s.ctrl.Scheme() }

// NumBlocks returns the number of 64-byte blocks.
func (s *System) NumBlocks() uint64 { return s.ctrl.NumBlocks() }

// Size returns the protected capacity in bytes.
func (s *System) Size() uint64 { return s.ctrl.NumBlocks() * BlockSize }

// ReadBlock returns the verified plaintext of block i.
func (s *System) ReadBlock(i uint64) ([]byte, error) {
	blk, err := s.ctrl.ReadBlock(i)
	if err != nil {
		return nil, err
	}
	out := make([]byte, BlockSize)
	copy(out, blk[:])
	return out, nil
}

// ReadBlockInto reads the verified plaintext of block i into dst,
// avoiding ReadBlock's per-call allocation — the right call in batch
// and hot-path code.
func (s *System) ReadBlockInto(i uint64, dst *[BlockSize]byte) error {
	blk, err := s.ctrl.ReadBlock(i)
	if err != nil {
		return err
	}
	*dst = blk
	return nil
}

// WriteBlock encrypts and persists block i. data must be at most
// BlockSize bytes; shorter slices are zero-padded.
func (s *System) WriteBlock(i uint64, data []byte) error {
	if len(data) > BlockSize {
		return fmt.Errorf("anubis: block write of %d bytes exceeds BlockSize", len(data))
	}
	var blk [BlockSize]byte
	copy(blk[:], data)
	return s.ctrl.WriteBlock(i, blk)
}

// BlockWrite names one block update in a WriteBlocks batch.
type BlockWrite struct {
	Block uint64
	Data  [BlockSize]byte
}

// WriteBlocks applies the batch in order, stopping at the first error
// (earlier writes remain applied — identical semantics to issuing the
// WriteBlock calls one by one). Batching exists for callers that want
// one round trip, and one lock acquisition, per group of writes.
func (s *System) WriteBlocks(writes []BlockWrite) error {
	for _, w := range writes {
		if err := s.ctrl.WriteBlock(w.Block, w.Data); err != nil {
			return fmt.Errorf("anubis: batched write of block %d: %w", w.Block, err)
		}
	}
	return nil
}

// ReadRange reads n bytes starting at byte offset off, spanning blocks.
func (s *System) ReadRange(off uint64, n int) ([]byte, error) {
	if n < 0 {
		return nil, fmt.Errorf("anubis: negative length %d", n)
	}
	out := make([]byte, 0, n)
	for n > 0 {
		blk := off / BlockSize
		inOff := int(off % BlockSize)
		take := BlockSize - inOff
		if take > n {
			take = n
		}
		b, err := s.ReadBlock(blk)
		if err != nil {
			return nil, err
		}
		out = append(out, b[inOff:inOff+take]...)
		off += uint64(take)
		n -= take
	}
	return out, nil
}

// WriteRange writes data at byte offset off, spanning blocks; partial
// blocks are read-modify-written.
func (s *System) WriteRange(off uint64, data []byte) error {
	for len(data) > 0 {
		blk := off / BlockSize
		inOff := int(off % BlockSize)
		take := BlockSize - inOff
		if take > len(data) {
			take = len(data)
		}
		var buf []byte
		if inOff == 0 && take == BlockSize {
			buf = data[:BlockSize]
		} else {
			cur, err := s.ReadBlock(blk)
			if err != nil {
				return err
			}
			copy(cur[inOff:], data[:take])
			buf = cur
		}
		if err := s.WriteBlock(blk, buf); err != nil {
			return err
		}
		off += uint64(take)
		data = data[take:]
	}
	return nil
}

// Flush writes back all dirty metadata (orderly shutdown). An error is
// an integrity violation met on the way: the memory image is damaged.
func (s *System) Flush() error { return s.ctrl.FlushCaches() }

// PushBudget reports how many block writes the Write Pending Queue can
// absorb at the controller's current virtual clock without stalling:
// the number of free WPQ slots. Zero means the next write would block
// on a drain — the back-pressure signal a serving layer feeds into
// admission control (shed with retry-after instead of queueing). It is
// a pure probe: sampling it never perturbs the timing model. (Distinct
// from the device-level SetPushBudget crash-test hook, which truncates
// commit drains to simulate mid-commit power loss.)
func (s *System) PushBudget() int {
	d := s.ctrl.Device()
	free := d.Timing().WPQEntries - d.WPQOccupancy(s.ctrl.Now())
	if free < 0 {
		free = 0
	}
	return free
}

// WPQDrainNS reports how much virtual time must pass before the Write
// Pending Queue is fully drained (0 when it is already empty). A caller
// shedding on PushBudget()==0 pairs it with AdvanceClock to model the
// client's back-off interval actually elapsing.
func (s *System) WPQDrainNS() uint64 {
	now := s.ctrl.Now()
	if t := s.ctrl.Device().WPQDrainTime(); t > now {
		return t - now
	}
	return 0
}

// AdvanceClock advances the controller's virtual clock by ns of CPU
// think time: queued writes keep draining while the caller is away.
// A long-running service uses it to map real-world idle gaps (request
// spacing, back-off sleeps) into the simulated timeline.
func (s *System) AdvanceClock(ns uint64) { s.ctrl.AdvanceTo(s.ctrl.Now() + ns) }

// StateDigest returns a deterministic digest of the device's entire
// persistent and staged state (NVM regions, sideband, registers,
// journal, commit staging). Two systems with equal digests hold
// byte-identical persistence domains — the equality oracle behind the
// fork/crash isolation tests.
func (s *System) StateDigest() uint64 { return s.ctrl.Device().StateDigest() }

// Fork returns an independent copy-on-write clone of the system: the
// NVM image is shared until either side writes to a page, and all
// volatile controller state is duplicated, so the child behaves exactly
// like a system that lived through the parent's history. Useful for
// checkpoint/what-if exploration — e.g. crash-injecting many trials
// against one warmed-up state. Parent and child may each be forked
// again; a single Fork call must not race with operations on the
// parent (clone first, then run the two on separate goroutines).
func (s *System) Fork() *System {
	return &System{ctrl: s.ctrl.Clone()}
}

// Crash simulates a power failure: all volatile state (metadata caches,
// uncommitted writes) is lost; NVM, the WPQ, and on-chip persistent
// registers survive. The System refuses I/O until Recover is called.
func (s *System) Crash() { s.ctrl.Crash() }

// RecoveryReport describes a completed recovery.
type RecoveryReport struct {
	// FetchOps and CryptoOps count the NVM block fetches and hash/
	// decrypt operations recovery performed.
	FetchOps  uint64
	CryptoOps uint64
	// CountersFixed, NodesRebuilt, EntriesScanned detail the repair.
	CountersFixed  uint64
	NodesRebuilt   uint64
	EntriesScanned uint64
	// ModeledNS prices the recovery at the paper's 100 ns/op.
	ModeledNS uint64
	// Phases decomposes ModeledNS into named recovery phases
	// ("counter_osiris_scan", "merkle_rebuild", ...; DESIGN.md §16).
	// The values always sum exactly to ModeledNS.
	Phases map[string]uint64
}

// RecoveryPhases returns the canonical recovery-phase names in display
// order — the key order tools should use when rendering
// RecoveryReport.Phases as a table.
func RecoveryPhases() []string {
	ps := obs.RecPhases()
	names := make([]string, len(ps))
	for i, p := range ps {
		names[i] = p.String()
	}
	return names
}

// Recover runs the scheme's recovery algorithm after a Crash.
func (s *System) Recover() (RecoveryReport, error) {
	rep, err := s.ctrl.Recover()
	out := RecoveryReport{}
	if rep != nil {
		out = RecoveryReport{
			FetchOps:       rep.FetchOps,
			CryptoOps:      rep.CryptoOps,
			CountersFixed:  rep.CountersFixed,
			NodesRebuilt:   rep.NodesRebuilt,
			EntriesScanned: rep.EntriesScanned,
			ModeledNS:      rep.ModeledNS(),
			Phases:         rep.Phases.Map(),
		}
	}
	return out, err
}

// Stats summarizes run-time activity.
type Stats struct {
	ReadRequests   uint64
	WriteRequests  uint64
	NVMReads       uint64
	NVMWrites      uint64
	ShadowWrites   uint64
	StopLossWrites uint64
	ElapsedNS      uint64 // modeled execution time
}

// Stats returns accumulated statistics.
func (s *System) Stats() Stats {
	st := s.ctrl.Stats()
	return Stats{
		ReadRequests:   st.ReadRequests,
		WriteRequests:  st.WriteRequests,
		NVMReads:       st.NVM.Reads,
		NVMWrites:      st.NVM.Writes,
		ShadowWrites:   st.ShadowWrites,
		StopLossWrites: st.StopLossWrites,
		ElapsedNS:      s.ctrl.Now(),
	}
}

// SaveImage serializes the NVM contents (everything in the persistence
// domain: data, metadata, shadow tables, on-chip registers, and any
// committed-but-undrained write group) to w. Call Flush first for a
// clean image, or save mid-crash to capture a recovery scenario.
func (s *System) SaveImage(w io.Writer) error {
	return s.ctrl.Device().Save(w)
}

// OpenImage restores a System from an image written by SaveImage. The
// configuration must match the one the image was created with. Recovery
// runs automatically (the image is by definition post-power-cycle); the
// report describes the repair work performed.
func OpenImage(cfg Config, r io.Reader) (*System, RecoveryReport, error) {
	dev, err := nvm.LoadDevice(r)
	if err != nil {
		return nil, RecoveryReport{}, err
	}
	mc, tree := cfg.toInternal()
	ctrl, err := memctrl.Open(tree, mc, dev)
	if err != nil {
		return nil, RecoveryReport{}, err
	}
	sys := &System{ctrl: ctrl}
	rep, err := sys.Recover()
	if err != nil {
		return nil, rep, err
	}
	return sys, rep, nil
}

// AuditReport summarizes a whole-memory integrity audit.
type AuditReport struct {
	DataBlocks    uint64
	CounterBlocks uint64
	TreeNodes     uint64
	Violations    []string
}

// OK reports a fully consistent image.
func (r AuditReport) OK() bool { return len(r.Violations) == 0 }

// Audit runs a whole-memory integrity check (fsck for secure memory):
// dirty metadata is flushed, then every data block, counter block, and
// tree node in NVM is verified against the on-chip roots.
func (s *System) Audit() (AuditReport, error) {
	rep, err := s.ctrl.AuditNVM()
	if err != nil {
		return AuditReport{}, err
	}
	return AuditReport{
		DataBlocks:    rep.DataBlocks,
		CounterBlocks: rep.CounterBlocks,
		TreeNodes:     rep.TreeNodes,
		Violations:    rep.Violations,
	}, nil
}

// TamperData flips bits in the stored ciphertext of a data block,
// simulating an attacker with physical access to the DIMM. A subsequent
// ReadBlock must fail with an integrity violation. It reports whether
// the block existed in NVM.
func (s *System) TamperData(block uint64, byteIdx int, mask byte) bool {
	return s.ctrl.Device().CorruptBlock(nvm.RegionData, block, byteIdx, mask)
}

// TamperCounter flips bits in a stored encryption counter block,
// simulating metadata tampering. Reads depending on that counter must
// fail verification once the cached copy is gone.
func (s *System) TamperCounter(counterBlock uint64, byteIdx int, mask byte) bool {
	return s.ctrl.Device().CorruptBlock(nvm.RegionCounter, counterBlock, byteIdx, mask)
}

// ReplayCounter overwrites a counter block in NVM with an earlier
// snapshot, simulating a replay attack. Use SnapshotCounter to capture
// the old value.
func (s *System) ReplayCounter(counterBlock uint64, snapshot [BlockSize]byte) {
	s.ctrl.Device().WriteRaw(nvm.RegionCounter, counterBlock, snapshot)
}

// SnapshotCounter captures the current NVM image of a counter block for
// a later ReplayCounter.
func (s *System) SnapshotCounter(counterBlock uint64) [BlockSize]byte {
	return s.ctrl.Device().Read(nvm.RegionCounter, counterBlock)
}

// CountersPerBlock returns how many data blocks one counter block
// covers (64 for the general split-counter layout, 8 for SGX-style).
func (s *System) CountersPerBlock() uint64 {
	if memctrl.FamilyOf(s.ctrl) == SGXTree {
		return 8
	}
	return 64
}

// EstimateRecoveryNS returns the analytic recovery-time model for a
// given scheme, memory size, and cache sizes — the numbers behind the
// paper's Figures 5 and 12 (see internal/recmodel).
func EstimateRecoveryNS(scheme Scheme, memBytes uint64, counterCacheBytes, treeCacheBytes uint64) uint64 {
	switch scheme {
	case Osiris:
		return recmodel.OsirisFullNS(memBytes, 1.05)
	case AGITRead, AGITPlus:
		return recmodel.AGITNS(counterCacheBytes, treeCacheBytes)
	case ASIT:
		return recmodel.ASITNS(counterCacheBytes + treeCacheBytes)
	case Strict:
		return 0
	}
	return 0
}

// EstimateTriadRecoveryNS returns the analytic recovery time of a
// Triad-NVM-style scheme that persists `levels` tree levels at run
// time, for comparison with EstimateRecoveryNS.
func EstimateTriadRecoveryNS(memBytes uint64, levels int) uint64 {
	return recmodel.TriadNS(memBytes, levels)
}

// FormatDuration renders nanoseconds human-readably ("7.8 h", "0.03 s").
func FormatDuration(ns uint64) string { return recmodel.FormatDuration(ns) }
