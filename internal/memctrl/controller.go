// Package memctrl implements the secure NVM memory controllers the
// paper evaluates: counter-mode encryption, integrity trees, metadata
// caching, crash persistence, and post-crash recovery.
//
// Two controller families exist, matching §6.1 and §6.2 of the paper:
//
//   - Bonsai (NewBonsai): split counters + general non-parallelizable
//     8-ary Merkle tree with an eager (root-always-fresh) update policy.
//     Schemes: WriteBack (baseline, unrecoverable), Strict, Osiris,
//     AGIT-Read, AGIT-Plus, and the Triad and Selective baselines.
//   - SGX (NewSGX): SGX-style counter blocks + parallelizable nonce tree
//     with a lazy (Vault/Synergy) update policy and a combined metadata
//     cache. Schemes: WriteBack, Strict, Osiris (unrecoverable on this
//     tree — the paper's motivating observation), ASIT.
//
// Everything else the two share is one unexported core (core.go) both
// embed: counter-mode encryption and the data-block format with its
// ECC + data-MAC sideband, the DONE_BIT two-stage commit, Start-Gap
// wear leveling, the virtual clock and the recovery frame.
//
// Variants is the one table of those eleven (family, scheme) pairs and
// their names; every constructor checks it and every tool parses
// through it. Both families expose the same Controller interface,
// built by New or, over an existing image, Open; the trace-driven
// simulator (internal/sim) and the recovery experiments drive them
// through it.
package memctrl

import (
	"errors"
	"fmt"
	"math/rand"

	"anubis/internal/cache"
	"anubis/internal/nvm"
	"anubis/internal/obs"
	"anubis/internal/recmodel"
)

// BlockBytes is the data access granularity (one cache line).
const BlockBytes = 64

// PageBytes is the page size one split-counter block covers.
const PageBytes = 4096

// Scheme selects the persistence/recovery mechanism of a controller.
type Scheme int

const (
	// SchemeWriteBack is the plain write-back baseline: lowest overhead,
	// no crash recoverability (figures 10 and 11, scheme ①).
	SchemeWriteBack Scheme = iota
	// SchemeStrict persists every counter and tree update up to the root
	// on each write (scheme ②): recoverable, ~63% overhead.
	SchemeStrict
	// SchemeOsiris adds the stop-loss counter persistence of Osiris
	// (Ye et al., MICRO 2018) to the write-back baseline (scheme ③).
	// Counters are recoverable; general-tree recovery takes O(memory),
	// SGX-tree recovery is impossible.
	SchemeOsiris
	// SchemeAGITRead is Anubis for general integrity trees, tracking
	// metadata cache fills in the SCT/SMT (scheme ④, §4.2.1).
	SchemeAGITRead
	// SchemeAGITPlus tracks only first modifications (scheme ⑤, §4.2.2).
	SchemeAGITPlus
	// SchemeASIT is Anubis for SGX-style integrity trees: the shadow
	// table holds an exact integrity-protected snapshot of the metadata
	// cache (§4.3).
	SchemeASIT
	// SchemeTriad is a Triad-NVM-style baseline (Awad et al., ISCA 2019;
	// the paper's reference [24], discussed in §7): encryption counters
	// and the first TriadLevels tree levels persist on every write, so
	// recovery only rebuilds the levels above — a knob trading run-time
	// overhead against recovery time. Unlike Anubis, recovery still
	// scales with memory size (O(memory/8^k)), and SGX-style trees
	// remain unrecoverable.
	SchemeTriad
	// SchemeSelective is the selective counter atomicity baseline (Liu
	// et al., HPCA 2018; the paper's reference [8]): counters of a
	// designated persistent region are written through on every update,
	// all other counters are relaxed, and recovery rebuilds the tree
	// from whatever counters NVM holds and re-anchors the root to it
	// ("trust on boot"). As the paper and Osiris observe, the relaxed
	// counters open a replay window after a crash — demonstrated in the
	// tests — and recovery still costs a whole-memory tree rebuild.
	SchemeSelective
)

// MarshalText renders the scheme name, so JSON reports and scheme-keyed
// maps say "agit-plus" instead of enum ordinals.
func (s Scheme) MarshalText() ([]byte, error) { return []byte(s.String()), nil }

// UnmarshalText parses a scheme name produced by String.
func (s *Scheme) UnmarshalText(b []byte) error {
	for c := SchemeWriteBack; c <= SchemeSelective; c++ {
		if c.String() == string(b) {
			*s = c
			return nil
		}
	}
	return fmt.Errorf("memctrl: unknown scheme %q", b)
}

func (s Scheme) String() string {
	switch s {
	case SchemeWriteBack:
		return "writeback"
	case SchemeStrict:
		return "strict"
	case SchemeOsiris:
		return "osiris"
	case SchemeAGITRead:
		return "agit-read"
	case SchemeAGITPlus:
		return "agit-plus"
	case SchemeASIT:
		return "asit"
	case SchemeSelective:
		return "selective"
	case SchemeTriad:
		return "triad"
	}
	return fmt.Sprintf("scheme(%d)", int(s))
}

// Family selects a controller family: the counter layout and integrity
// tree a scheme runs on.
type Family int

const (
	// FamilyBonsai selects split counters + general Merkle tree (§6.1).
	FamilyBonsai Family = iota
	// FamilySGX selects SGX-style counters + parallelizable tree (§6.2).
	FamilySGX
)

func (f Family) String() string {
	if f == FamilySGX {
		return "sgx"
	}
	return "bonsai"
}

// MarshalText renders the family name, so JSON reports say "bonsai"
// and "sgx" instead of enum ordinals.
func (f Family) MarshalText() ([]byte, error) { return []byte(f.String()), nil }

// UnmarshalText parses a family name.
func (f *Family) UnmarshalText(b []byte) error {
	switch string(b) {
	case "bonsai":
		*f = FamilyBonsai
	case "sgx":
		*f = FamilySGX
	default:
		return fmt.Errorf("memctrl: unknown family %q", b)
	}
	return nil
}

// Variant is one (family, scheme) pair a controller implements, under
// the name every tool's -scheme flag and serve's scheme field accept.
type Variant struct {
	Name   string
	Family Family
	Scheme Scheme
}

// Variants is the scheme table: every (family, scheme) pair that
// exists, and nothing else. A name is Scheme.String(), plus "-sgx" for
// the three baselines both families run. crashfuzz draws its schedules
// in this order.
var Variants = []Variant{
	{"writeback", FamilyBonsai, SchemeWriteBack},
	{"strict", FamilyBonsai, SchemeStrict},
	{"osiris", FamilyBonsai, SchemeOsiris},
	{"agit-read", FamilyBonsai, SchemeAGITRead},
	{"agit-plus", FamilyBonsai, SchemeAGITPlus},
	{"triad", FamilyBonsai, SchemeTriad},
	{"selective", FamilyBonsai, SchemeSelective},
	{"writeback-sgx", FamilySGX, SchemeWriteBack},
	{"strict-sgx", FamilySGX, SchemeStrict},
	{"osiris-sgx", FamilySGX, SchemeOsiris},
	{"asit", FamilySGX, SchemeASIT},
}

// VariantByName returns the Variants row called name.
func VariantByName(name string) (Variant, bool) {
	for _, v := range Variants {
		if v.Name == name {
			return v, true
		}
	}
	return Variant{}, false
}

// Supports reports whether (f, s) is a row of Variants.
func Supports(f Family, s Scheme) bool {
	for _, v := range Variants {
		if v.Family == f && v.Scheme == s {
			return true
		}
	}
	return false
}

// New builds a controller of family f over a fresh, zeroed device.
func New(f Family, cfg Config) (Controller, error) {
	switch f {
	case FamilyBonsai:
		return asController(NewBonsai(cfg))
	case FamilySGX:
		return asController(NewSGX(cfg))
	}
	return nil, fmt.Errorf("memctrl: unknown family %d", f)
}

// Open attaches a controller of family f to an existing device (e.g.
// one restored with nvm.LoadDevice). The controller starts crashed:
// call Recover before issuing I/O.
func Open(f Family, cfg Config, dev *nvm.Device) (Controller, error) {
	switch f {
	case FamilyBonsai:
		return asController(OpenBonsai(cfg, dev))
	case FamilySGX:
		return asController(OpenSGX(cfg, dev))
	}
	return nil, fmt.Errorf("memctrl: unknown family %d", f)
}

// asController returns a nil interface, not a typed nil, on error.
func asController[C Controller](c C, err error) (Controller, error) {
	if err != nil {
		return nil, err
	}
	return c, nil
}

// FamilyOf reports which controller family a controller belongs to.
func FamilyOf(ctrl Controller) Family {
	if _, ok := ctrl.(*SGX); ok {
		return FamilySGX
	}
	return FamilyBonsai
}

// Config parameterizes a controller. DefaultConfig matches Table 1 of
// the paper.
type Config struct {
	// MemoryBytes is the protected data capacity. Geometry (tree depth,
	// counter count) follows from it; storage is sparse, so large
	// capacities cost only for the blocks actually touched.
	MemoryBytes uint64

	// CounterCacheBlocks/Ways size the Bonsai counter cache.
	CounterCacheBlocks int
	CounterCacheWays   int
	// TreeCacheBlocks/Ways size the Bonsai Merkle tree cache.
	TreeCacheBlocks int
	TreeCacheWays   int
	// MetaCacheBlocks/Ways size the SGX combined metadata cache.
	MetaCacheBlocks int
	MetaCacheWays   int

	// StopLoss is the Osiris stop-loss limit: a counter block is force-
	// persisted after this many un-persisted updates (paper uses 4).
	StopLoss int

	// Recovery selects the counter-recovery backend used by the Osiris
	// and AGIT schemes on the general tree (§2.4 discusses both).
	Recovery CounterRecovery

	// WearPeriod enables Start-Gap wear leveling of the data region when
	// positive: the gap moves every WearPeriod data writes. Zero
	// disables leveling.
	WearPeriod int

	// TriadLevels is SchemeTriad's resilience knob: the number of tree
	// levels (above the counters) persisted on every write.
	TriadLevels int

	// PersistentBlocks bounds the persistent region for SchemeSelective:
	// writes to data blocks below this index persist their counter
	// block immediately; all others are relaxed. Zero means the whole
	// memory is treated as persistent.
	PersistentBlocks uint64

	// HashNS is the hash/MAC engine latency charged on the critical path.
	HashNS uint64

	// EpochRequests enables the bank-parallel epoch pipeline of Bonsai
	// Strict and Triad when > 1: eager tree-path updates are deferred
	// into a coalescing buffer and drained as one commit group every
	// EpochRequests data writes — one persisted ancestor per epoch
	// instead of one per request. The window between drains is covered
	// by the persistent epoch journal (nvm.JournalEntry), which keeps
	// recovery exact. 0 or 1 selects the eager per-request path. Every
	// other scheme, and the whole SGX family (Fig 11), ignores it and
	// always runs eager: they persist no tree node per write, so there
	// is nothing to coalesce (DESIGN.md §12).
	EpochRequests int

	// Timing parameterizes the NVM device.
	Timing nvm.Timing

	Scheme Scheme
}

// DefaultConfig returns the paper's Table 1 configuration: 16 GB PCM,
// 256 KB 8-way counter cache, 256 KB 16-way tree cache, 512 KB combined
// metadata cache, stop-loss 4.
func DefaultConfig(s Scheme) Config {
	return Config{
		MemoryBytes:        16 << 30,
		CounterCacheBlocks: 256 * 1024 / BlockBytes,
		CounterCacheWays:   8,
		TreeCacheBlocks:    256 * 1024 / BlockBytes,
		TreeCacheWays:      16,
		MetaCacheBlocks:    512 * 1024 / BlockBytes,
		MetaCacheWays:      8,
		StopLoss:           4,
		HashNS:             40,
		Timing:             nvm.DefaultTiming(),
		Scheme:             s,
	}
}

// TestConfig returns a small configuration suitable for unit tests:
// 1 MB of memory and tiny caches, so recovery paths and evictions are
// exercised quickly.
func TestConfig(s Scheme) Config {
	c := DefaultConfig(s)
	c.MemoryBytes = 1 << 20
	c.CounterCacheBlocks = 32
	c.CounterCacheWays = 4
	c.TreeCacheBlocks = 32
	c.TreeCacheWays = 4
	c.MetaCacheBlocks = 64
	c.MetaCacheWays = 8
	return c
}

// validate checks c for a controller of family f, whose scheme must be
// one f runs.
func (c *Config) validate(f Family) error {
	if c.MemoryBytes == 0 || c.MemoryBytes%PageBytes != 0 {
		return fmt.Errorf("memctrl: memory size %d must be a positive multiple of %d", c.MemoryBytes, PageBytes)
	}
	if c.StopLoss <= 0 {
		return errors.New("memctrl: stop-loss must be positive")
	}
	if !Supports(f, c.Scheme) {
		return fmt.Errorf("memctrl: the %v family does not run scheme %v", f, c.Scheme)
	}
	return nil
}

// CounterRecovery selects how lost encryption counters are identified
// after a crash.
type CounterRecovery int

const (
	// RecoveryECC is Osiris proper: decrypt with candidate counters
	// stored..stored+StopLoss and accept the one whose ECC (and data
	// MAC) checks out. Needs stop-loss persistence at run time.
	RecoveryECC CounterRecovery = iota
	// RecoveryPhase stores the low 8 bits of the encryption counter in
	// the data block's sideband ("extending the data bus", §2.4):
	// recovery reads the phase directly — one operation per counter, no
	// trials — and no stop-loss persistence is needed at run time
	// because the phase bounds counter drift by 2^8 (minor counters
	// overflow, and force a persist, long before that).
	RecoveryPhase
)

func (r CounterRecovery) String() string {
	if r == RecoveryPhase {
		return "phase"
	}
	return "ecc"
}

// IntegrityError reports a failed integrity verification: either an
// attack (tampered NVM) or irrecoverable post-crash state.
type IntegrityError struct {
	What string // which check failed
	Addr uint64 // offending block address/index
}

func (e *IntegrityError) Error() string {
	return fmt.Sprintf("memctrl: integrity violation: %s at %#x", e.What, e.Addr)
}

// ErrUnrecoverable is wrapped by Recover when the post-crash state
// cannot be brought back to a verified condition.
var ErrUnrecoverable = errors.New("memctrl: system unrecoverable")

// ErrNotRecoverable is returned by Recover for schemes that provide no
// recovery mechanism at all (write-back baselines, Osiris on SGX trees).
var ErrNotRecoverable = errors.New("memctrl: scheme does not support recovery")

// ErrCrashed is returned (possibly wrapped) by every I/O or audit call
// issued against a crashed controller before Recover has run. A serving
// layer matches it with errors.Is to distinguish "tenant is mid-crash,
// retry after recovery" from real failures.
var ErrCrashed = errors.New("memctrl: controller is crashed; call Recover first")

// RunStats aggregates a controller's run-time activity.
type RunStats struct {
	ReadRequests  uint64 `json:"read_requests"`
	WriteRequests uint64 `json:"write_requests"`

	// ShadowWrites counts NVM writes into SCT/SMT/ST regions.
	ShadowWrites uint64 `json:"shadow_writes"`
	// StopLossWrites counts counter blocks persisted by the stop-loss rule.
	StopLossWrites uint64 `json:"stop_loss_writes"`
	// StrictWrites counts metadata blocks persisted by strict persistence.
	StrictWrites uint64 `json:"strict_writes"`
	// PageOverflows counts split-counter page re-encryptions.
	PageOverflows uint64 `json:"page_overflows"`

	NVM nvm.Stats `json:"nvm"`

	CounterCache cache.Stats `json:"counter_cache"`
	TreeCache    cache.Stats `json:"tree_cache"` // combined metadata cache for SGX family

	// Attribution decomposes every nanosecond of controller virtual time
	// into named stall components (cpu gap, bank busy, WPQ stall, counter
	// and tree fills, crypto, shadow writes). The components sum exactly
	// to the controller clock — the sum-exact invariant the attribution
	// tests assert.
	Attribution obs.Ledger `json:"attribution_ns"`
}

// RecoveryReport describes a completed (or failed) recovery.
type RecoveryReport struct {
	Scheme Scheme `json:"scheme"`

	// FetchOps counts 64-byte blocks fetched from NVM during recovery;
	// CryptoOps counts hash/decrypt+check operations. The paper's model
	// prices recovery at 100 ns per op (footnote 1 / §6.3.1).
	FetchOps  uint64 `json:"fetch_ops"`
	CryptoOps uint64 `json:"crypto_ops"`

	CountersFixed  uint64 `json:"counters_fixed"`  // encryption counters repaired (Osiris trials)
	NodesRebuilt   uint64 `json:"nodes_rebuilt"`   // tree nodes recomputed (AGIT) or spliced (ASIT)
	EntriesScanned uint64 `json:"entries_scanned"` // shadow table entries visited

	RedoneWrites int `json:"redone_writes"` // commit-group writes replayed via DONE_BIT

	// JournalPages counts epoch-journal entries replayed by Bonsai
	// Strict's and Triad's two-pass mid-epoch recovery (0 when the crash
	// fell between epoch windows or the epoch pipeline was off).
	JournalPages uint64 `json:"journal_pages,omitempty"`

	// Phases decomposes the modeled recovery time into the recovery
	// phase taxonomy (DESIGN.md §16). Every counted op is attributed to
	// exactly one phase via delta accounting at phase boundaries, so
	// Phases.Total() == ModeledNS() holds by construction — the
	// sum-exact contract TestRecoveryAttributionSumExact asserts.
	Phases obs.RecLedger `json:"recovery_phase_ns"`

	// Delta-accounting state: the phase ops counted since the last
	// boundary belong to, and how many fetch/crypto ops have already
	// been settled into Phases. Crypto ops can be routed to a different
	// phase than fetches (cryptoPhase) so interleaved work — e.g. ECC
	// trials inside the counter scan — lands in its own phase without
	// touching every charge site.
	phase       obs.RecPhase
	cryptoPhase obs.RecPhase
	seenFetch   uint64
	seenCrypto  uint64
}

// enterPhase settles all ops counted since the previous boundary into
// the current phase(s), then makes p the current phase for both fetch
// and crypto ops.
func (r *RecoveryReport) enterPhase(p obs.RecPhase) { r.enterPhaseSplit(p, p) }

// enterPhaseSplit is enterPhase with separate sinks: subsequent fetch
// ops accrue to fetchP, crypto ops to cryptoP.
func (r *RecoveryReport) enterPhaseSplit(fetchP, cryptoP obs.RecPhase) {
	r.settlePhases()
	r.phase, r.cryptoPhase = fetchP, cryptoP
}

// settlePhases attributes every op counted since the last settlement to
// the current phase(s). Recover wrappers call it once more on exit (on
// success and failure alike) so the ledger always covers the full pass.
func (r *RecoveryReport) settlePhases() {
	if d := r.FetchOps - r.seenFetch; d > 0 {
		r.Phases.Add(r.phase, d*recmodel.OpNS)
	}
	if d := r.CryptoOps - r.seenCrypto; d > 0 {
		r.Phases.Add(r.cryptoPhase, d*recmodel.OpNS)
	}
	r.seenFetch, r.seenCrypto = r.FetchOps, r.CryptoOps
}

// ModeledNS returns the modeled recovery time in nanoseconds, priced
// with the paper's per-operation cost (recmodel.OpNS).
func (r *RecoveryReport) ModeledNS() uint64 {
	return (r.FetchOps + r.CryptoOps) * recmodel.OpNS
}

// Controller is the common interface of both controller families.
type Controller interface {
	// ReadBlock returns the plaintext of a 64-byte data block after
	// decryption and integrity verification.
	ReadBlock(idx uint64) ([BlockBytes]byte, error)
	// WriteBlock encrypts and persists a 64-byte data block together
	// with its security metadata updates, per the configured scheme.
	WriteBlock(idx uint64, data [BlockBytes]byte) error

	// Now returns the controller's virtual clock (ns).
	Now() uint64
	// AdvanceTo moves the virtual clock forward (CPU think time).
	AdvanceTo(t uint64)

	// FlushCaches writes back all dirty metadata (orderly shutdown). An
	// error is an integrity violation met on the way: a damaged image.
	FlushCaches() error
	// Crash models a power failure: all volatile state is lost.
	Crash()
	// CrashWith models a power failure under a relaxed-persistence
	// crash model (see nvm.CrashModel): in-flight WPQ entries may be
	// rolled back (partial drain) or torn at 8-byte-atom granularity
	// (torn block). CrashWith(nvm.CrashFullADR, nil) ≡ Crash. The
	// relaxed models need the device's in-flight undo log armed
	// (Device().TrackInflight(true)) and a non-nil rng.
	CrashWith(model nvm.CrashModel, rng *rand.Rand)
	// Recover executes the scheme's recovery algorithm and returns its
	// report. An error means the memory image could not be verified.
	Recover() (*RecoveryReport, error)

	// AuditNVM runs a whole-memory integrity audit (fsck) after
	// flushing dirty metadata.
	AuditNVM() (*AuditReport, error)
	// Stats returns accumulated run-time statistics.
	Stats() RunStats
	// NumBlocks returns the number of data blocks in the address space.
	NumBlocks() uint64
	// Device exposes the NVM device (tests, tampering experiments).
	Device() *nvm.Device
	// Scheme returns the configured scheme.
	Scheme() Scheme
	// Clone forks the controller: the child shares the parent's NVM
	// image copy-on-write and value-clones all volatile state (caches,
	// shadow mirrors, wear state, clocks, stats), so it behaves
	// byte-for-byte like a controller that lived through the parent's
	// entire history. Crash/recovery sweeps fork each crash point off
	// one advancing warm controller instead of re-filling each trial
	// from cold.
	Clone() Controller
}
