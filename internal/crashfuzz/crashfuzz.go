// Package crashfuzz is a differential crash-injection fuzzer for the
// secure-NVM controllers.
//
// Anubis's value proposition is correct recovery after an adversarial
// power failure, so recovery correctness must be a continuously searched
// property, not a handful of golden tests. A fuzz trial is a seeded
// random schedule: workload profile × controller scheme × crash point ×
// crash model × epoch coalescing-window size × optional post-crash ECC
// faults, optionally landing the crash inside a two-stage commit group
// (the SetPushBudget mid-drain hook — which, with a Bonsai epoch window
// armed, can tear the close's coalesced commit group half-drained). The trial forks a warmed controller copy-on-write (PR 3), runs
// the schedule, and checks a differential oracle against a golden
// shadow copy of every value the workload wrote:
//
//	(a) recovery never panics and never silently returns corrupt data:
//	    every post-recovery read either matches the golden copy or
//	    fails with a typed error;
//	(b) schemes recover — or refuse — exactly per their guarantee
//	    envelope: Strict/AGIT-Read/AGIT-Plus/ASIT must fully recover
//	    under full-ADR with committed groups; WriteBack (both families)
//	    and Osiris on the SGX tree must report ErrNotRecoverable
//	    (§2.3.2/§3 of the paper).
//
// Failing schedules auto-shrink (drop crash-model features, then bisect
// the crash point) to a minimal repro printed as a single-line replay
// token; see Shrink.
package crashfuzz

import (
	"errors"
	"fmt"
	"math/rand"
	"runtime/debug"
	"sort"
	"strconv"
	"strings"

	"anubis/internal/memctrl"
	"anubis/internal/nvm"
	"anubis/internal/sim"
	"anubis/internal/trace"
)

// BlockBytes is the data access granularity.
const BlockBytes = memctrl.BlockBytes

// MaxExtra bounds the crash point: how many requests a trial may run
// past the warm point before the power failure.
const MaxExtra = 96

// PostRunRequests is the length of the post-recovery workload phase
// that checks the recovered controller is actually serviceable (this is
// the phase that catches state leaking across the crash, e.g. the
// pushBudget throttle bug).
const PostRunRequests = 24

// Profiles is the workload subset the fuzzer draws from: a read-heavy
// pointer chaser, a streaming writer, and the rewrite-heavy stop-loss
// stresser.
var Profiles = []string{"mcf", "lbm", "libquantum"}

// Combo is a (family, scheme) pair under test.
type Combo struct {
	Family sim.Family
	Scheme memctrl.Scheme
}

func (c Combo) String() string { return c.Family.String() + "/" + c.Scheme.String() }

// Combos lists every controller configuration the fuzzer exercises:
// one per memctrl.Variants row, in the table's order.
func Combos() []Combo {
	combos := make([]Combo, len(memctrl.Variants))
	for i, v := range memctrl.Variants {
		combos[i] = Combo{v.Family, v.Scheme}
	}
	return combos
}

// ComboByName inverts Combo.String ("bonsai/agit-plus", "sgx/asit", …).
func ComboByName(name string) (Combo, bool) {
	for _, c := range Combos() {
		if c.String() == name {
			return c, true
		}
	}
	return Combo{}, false
}

// Policy classifies what Recover must report for a combo.
type Policy uint8

const (
	// MustRecover schemes guarantee full recovery inside their envelope
	// (full-ADR, committed groups, no injected faults): Strict,
	// AGIT-Read, AGIT-Plus, ASIT.
	MustRecover Policy = iota
	// MustNotRecover schemes have no recovery mechanism and must report
	// ErrNotRecoverable under every model: WriteBack (both families)
	// and Osiris on the SGX tree (§2.3.2).
	MustNotRecover
	// MayRecover schemes recover best-effort (Osiris on the general
	// tree, Triad, Selective): success or a typed failure are both
	// acceptable; panics and silent corruption never are.
	MayRecover
)

func (p Policy) String() string {
	switch p {
	case MustRecover:
		return "must-recover"
	case MustNotRecover:
		return "must-not-recover"
	}
	return "may-recover"
}

// PolicyOf returns the recovery guarantee class of a combo.
func PolicyOf(c Combo) Policy {
	switch c.Scheme {
	case memctrl.SchemeWriteBack:
		return MustNotRecover
	case memctrl.SchemeOsiris:
		if c.Family == sim.FamilySGX {
			return MustNotRecover
		}
		return MayRecover
	case memctrl.SchemeStrict, memctrl.SchemeAGITRead, memctrl.SchemeAGITPlus, memctrl.SchemeASIT:
		return MustRecover
	}
	return MayRecover // Triad, Selective
}

// Schedule is one fully deterministic fuzz trial.
type Schedule struct {
	Profile string // workload profile name (trace.ByName)
	Combo   Combo
	Model   nvm.CrashModel

	// Epoch is the controller's coalescing-window size
	// (memctrl.Config.EpochRequests): 0 (or 1) runs the eager path;
	// larger values arm the epoch pipeline of bonsai/strict and
	// bonsai/triad, so crashes can land mid-window with deferred tree
	// updates only in the epoch journal, or inside a half-drained close
	// commit group. Every other combo ignores it and runs eager; it is
	// drawn for every combo anyway so the seeded schedule stream stays
	// the same.
	Epoch int

	Warm  int // requests the shared warm parent executes before forking
	Extra int // requests the forked child executes before the crash

	// MidCommit, when >= 0, arms Device.SetPushBudget(MidCommit) before
	// the final pre-crash request, so the power failure lands inside
	// that request's two-stage commit group.
	MidCommit int
	// Faults is the number of post-crash CorruptBlock injections.
	Faults int

	TraceSeed int64 // workload stream seed (shared across trials → warm reuse)
	CrashSeed int64 // crash-model + fault-injection rng seed
}

// strictEnvelope reports whether the schedule stays inside the paper's
// guarantee envelope: full ADR, no injected faults. (Mid-commit crashes
// are inside the envelope — DONE_BIT REDO covers them.)
func (s Schedule) strictEnvelope() bool {
	return s.Model == nvm.CrashFullADR && s.Faults == 0
}

// String renders the single-line replay token ParseSchedule inverts.
// epoch is emitted only when armed, so pre-epoch tokens and their
// replays stay byte-identical.
func (s Schedule) String() string {
	tok := fmt.Sprintf("v1 profile=%s combo=%s model=%s warm=%d extra=%d mid=%d faults=%d tseed=%d cseed=%d",
		s.Profile, s.Combo, s.Model, s.Warm, s.Extra, s.MidCommit, s.Faults, s.TraceSeed, s.CrashSeed)
	if s.Epoch != 0 {
		tok += fmt.Sprintf(" epoch=%d", s.Epoch)
	}
	return tok
}

// ParseSchedule parses a replay token produced by Schedule.String.
// Tokens from builds that still had the sharded warm fill or the
// hit-burst fast lane may carry shard=N and fastpath=N; both engines
// were byte-identical to the one warm fill that remains, so the keys
// are accepted and ignored and those repros keep replaying.
func ParseSchedule(tok string) (Schedule, error) {
	fields := strings.Fields(strings.TrimSpace(tok))
	if len(fields) == 0 || fields[0] != "v1" {
		return Schedule{}, fmt.Errorf("crashfuzz: replay token must start with %q", "v1")
	}
	var s Schedule
	s.MidCommit = -1
	for _, f := range fields[1:] {
		k, v, ok := strings.Cut(f, "=")
		if !ok {
			return Schedule{}, fmt.Errorf("crashfuzz: malformed token field %q", f)
		}
		switch k {
		case "profile":
			if _, ok := trace.ByName(v); !ok {
				return Schedule{}, fmt.Errorf("crashfuzz: unknown profile %q", v)
			}
			s.Profile = v
		case "combo":
			c, ok := ComboByName(v)
			if !ok {
				return Schedule{}, fmt.Errorf("crashfuzz: unknown combo %q", v)
			}
			s.Combo = c
		case "model":
			m, ok := nvm.ParseCrashModel(v)
			if !ok {
				return Schedule{}, fmt.Errorf("crashfuzz: unknown crash model %q", v)
			}
			s.Model = m
		case "warm", "extra", "mid", "faults", "tseed", "cseed", "epoch", "shard", "fastpath":
			n, err := strconv.ParseInt(v, 10, 64)
			if err != nil {
				return Schedule{}, fmt.Errorf("crashfuzz: field %s: %v", k, err)
			}
			switch k {
			case "warm":
				s.Warm = int(n)
			case "extra":
				s.Extra = int(n)
			case "mid":
				s.MidCommit = int(n)
			case "faults":
				s.Faults = int(n)
			case "tseed":
				s.TraceSeed = n
			case "cseed":
				s.CrashSeed = n
			case "epoch":
				s.Epoch = int(n)
			}
		default:
			return Schedule{}, fmt.Errorf("crashfuzz: unknown token field %q", k)
		}
	}
	if err := s.validate(); err != nil {
		return Schedule{}, err
	}
	return s, nil
}

func (s *Schedule) validate() error {
	if s.Profile == "" {
		return errors.New("crashfuzz: schedule has no profile")
	}
	if s.Warm < 0 || s.Faults < 0 || s.Epoch < 0 {
		return errors.New("crashfuzz: negative schedule dimension")
	}
	if s.Extra < 1 || s.Extra > MaxExtra {
		return fmt.Errorf("crashfuzz: extra must be in [1, %d]", MaxExtra)
	}
	return nil
}

// RandomSchedule draws a schedule from the full trial space. traceSeed
// is shared across a whole fuzzing run so warm parents are reused.
func RandomSchedule(rng *rand.Rand, traceSeed int64) Schedule {
	combos := Combos()
	warms := []int{64, 256}
	epochs := []int{0, 4, 16} // legacy eager path plus two coalescing-window sizes
	s := Schedule{
		Profile:   Profiles[rng.Intn(len(Profiles))],
		Combo:     combos[rng.Intn(len(combos))],
		Model:     nvm.CrashModel(rng.Intn(len(nvm.CrashModels()))),
		Epoch:     epochs[rng.Intn(len(epochs))],
		Warm:      warms[rng.Intn(len(warms))],
		Extra:     1 + rng.Intn(MaxExtra),
		MidCommit: -1,
		TraceSeed: traceSeed,
		CrashSeed: rng.Int63(),
	}
	if rng.Intn(2) == 0 {
		s.MidCommit = rng.Intn(6)
	}
	if rng.Intn(5) < 2 {
		s.Faults = 1 + rng.Intn(3)
	}
	return s
}

// Violation is a failed oracle check: the replay token plus what went
// wrong in which phase.
type Violation struct {
	Phase    string // workload | crash | recover | oracle | post-run
	Msg      string
	Schedule Schedule
}

func (v *Violation) Error() string {
	return fmt.Sprintf("crashfuzz: %s violation: %s\n  replay: %s", v.Phase, v.Msg, v.Schedule)
}

// faultRegions lists every NVM region a post-crash fault may target.
var faultRegions = []nvm.Region{
	nvm.RegionData, nvm.RegionCounter, nvm.RegionTree,
	nvm.RegionSCT, nvm.RegionSMT, nvm.RegionST,
}

// parent is one warmed controller shared (via COW forking) by every
// trial with the same (profile, combo, warm, traceSeed).
type parent struct {
	ctrl  memctrl.Controller
	arena *trace.Arena
	// hist is the golden shadow copy of the warm phase: every value
	// written to each address, in program order.
	hist map[uint64][][BlockBytes]byte
}

type parentKey struct {
	profile string
	combo   Combo
	epoch   int
	warm    int
	tseed   int64
}

// Runner executes trials, caching warm parents between them. Not safe
// for concurrent use; fuzz workers each own a Runner.
type Runner struct {
	// Config overrides the controller configuration (default:
	// memctrl.TestConfig — 1 MB memory, small caches, fast trials).
	Config func(memctrl.Scheme) memctrl.Config
	// NewController overrides controller construction (default:
	// sim.NewController). Tests wrap controllers with deliberately
	// reintroduced bugs here to prove the oracle catches them.
	NewController func(f sim.Family, cfg memctrl.Config) (memctrl.Controller, error)

	arenas  *trace.ArenaCache
	parents map[parentKey]*parent
}

// NewRunner returns a Runner with the default (TestConfig) controller
// configuration.
func NewRunner() *Runner {
	return &Runner{
		Config:        memctrl.TestConfig,
		NewController: sim.NewController,
		arenas:        trace.NewArenaCache(),
		parents:       make(map[parentKey]*parent),
	}
}

// arenaLen is the request-stream length a schedule needs: warm fill,
// the largest crash window, the optional mid-commit request, and the
// post-recovery phase.
func arenaLen(warm int) int { return warm + MaxExtra + 1 + PostRunRequests }

func (r *Runner) parent(s Schedule) (*parent, error) {
	key := parentKey{profile: s.Profile, combo: s.Combo, epoch: s.Epoch, warm: s.Warm, tseed: s.TraceSeed}
	if p, ok := r.parents[key]; ok {
		return p, nil
	}
	prof, ok := trace.ByName(s.Profile)
	if !ok {
		return nil, fmt.Errorf("crashfuzz: unknown profile %q", s.Profile)
	}
	cfg := r.Config(s.Combo.Scheme)
	cfg.EpochRequests = s.Epoch
	ctrl, err := r.NewController(s.Combo.Family, cfg)
	if err != nil {
		return nil, fmt.Errorf("crashfuzz: %s: %w", s.Combo, err)
	}
	arena := r.arenas.Get(prof, s.TraceSeed, arenaLen(s.Warm))
	if s.Warm > 0 {
		if _, err := sim.Run(ctrl, arena.Source(), s.Warm); err != nil {
			return nil, fmt.Errorf("crashfuzz: warm fill (%s): %w", s.Combo, err)
		}
	}
	// Rebuild the warm phase's golden shadow copy without touching the
	// controller: sim.Run's writes are a pure function of the request
	// stream (sim.FillBlock), so replaying the stream reproduces them.
	p := &parent{ctrl: ctrl, arena: arena, hist: make(map[uint64][][BlockBytes]byte)}
	nBlocks := ctrl.NumBlocks()
	var data [BlockBytes]byte
	for i, req := range arena.Requests()[:s.Warm] {
		if req.Op != trace.OpWrite {
			continue
		}
		sim.FillBlock(&data, req.Block, uint64(i))
		addr := req.Block % nBlocks
		p.hist[addr] = append(p.hist[addr], data)
	}
	r.parents[key] = p
	return p, nil
}

// panicError marks an error that was a recovered panic (with stack).
type panicError struct{ msg string }

func (e *panicError) Error() string { return e.msg }

// guard runs f, converting a panic into a *panicError recording the stack.
func guard(f func() error) (err error) {
	defer func() {
		if rec := recover(); rec != nil {
			err = &panicError{msg: fmt.Sprintf("panic: %v\n%s", rec, debug.Stack())}
		}
	}()
	return f()
}

func isPanic(err error) bool {
	var pe *panicError
	return errors.As(err, &pe)
}

// typedRecoveryError reports whether a Recover error is part of the
// documented taxonomy (callers can handle it); anything else escaping
// Recover is a hardening bug the fuzzer must flag.
func typedRecoveryError(err error) bool {
	return errors.Is(err, memctrl.ErrUnrecoverable) || errors.Is(err, memctrl.ErrNotRecoverable)
}

// RunTrial executes one schedule and returns the violation it found,
// or nil when every oracle check passed.
func (r *Runner) RunTrial(s Schedule) *Violation {
	if err := s.validate(); err != nil {
		return &Violation{Phase: "setup", Msg: err.Error(), Schedule: s}
	}
	p, err := r.parent(s)
	if err != nil {
		return &Violation{Phase: "setup", Msg: err.Error(), Schedule: s}
	}
	child := p.ctrl.Clone()
	dev := child.Device()
	dev.TrackInflight(true)
	rng := rand.New(rand.NewSource(s.CrashSeed))
	nBlocks := child.NumBlocks()
	policy := PolicyOf(s.Combo)
	strict := policy == MustRecover && s.strictEnvelope()

	// Overlay golden history for the trial's own writes; lookups fall
	// back to the shared warm history.
	overlay := make(map[uint64][][BlockBytes]byte)
	record := func(addr uint64, d [BlockBytes]byte) {
		overlay[addr] = append(overlay[addr], d)
	}
	latest := func(addr uint64) ([BlockBytes]byte, bool) {
		if h := overlay[addr]; len(h) > 0 {
			return h[len(h)-1], true
		}
		if h := p.hist[addr]; len(h) > 0 {
			return h[len(h)-1], true
		}
		return [BlockBytes]byte{}, false
	}
	inHistory := func(addr uint64, d [BlockBytes]byte) bool {
		if d == ([BlockBytes]byte{}) {
			return true // never-written / rolled-back-to-absent state
		}
		for _, h := range overlay[addr] {
			if h == d {
				return true
			}
		}
		for _, h := range p.hist[addr] {
			if h == d {
				return true
			}
		}
		return false
	}
	goldenAddrs := func() []uint64 {
		out := make([]uint64, 0, len(p.hist)+len(overlay))
		for a := range p.hist {
			out = append(out, a)
		}
		for a := range overlay {
			if _, shared := p.hist[a]; !shared {
				out = append(out, a)
			}
		}
		sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
		return out
	}

	// --- phase 1: pre-crash workload window --------------------------------
	// Mirrors sim.Run request-for-request so the golden copy matches the
	// bytes the controller saw; the final request optionally runs with
	// the mid-drain power-loss budget armed.
	total := s.Extra
	if s.MidCommit >= 0 {
		total++
	}
	cur := p.arena.SourceAt(s.Warm)
	werr := guard(func() error {
		var data [BlockBytes]byte
		for i := 0; i < total; i++ {
			if s.MidCommit >= 0 && i == total-1 {
				dev.SetPushBudget(s.MidCommit)
			}
			req := cur.Next()
			child.AdvanceTo(child.Now() + req.GapNS)
			addr := req.Block % nBlocks
			if req.Op == trace.OpWrite {
				sim.FillBlock(&data, req.Block, uint64(i))
				if err := child.WriteBlock(addr, data); err != nil {
					return fmt.Errorf("write %d: %w", addr, err)
				}
				record(addr, data)
			} else if _, err := child.ReadBlock(addr); err != nil {
				return fmt.Errorf("read %d: %w", addr, err)
			}
		}
		return nil
	})
	if werr != nil {
		// Nothing has been corrupted yet: the pre-crash workload must
		// run clean on a forked warm controller.
		return &Violation{Phase: "workload", Msg: werr.Error(), Schedule: s}
	}

	// --- phase 2: power failure + optional media faults --------------------
	if cerr := guard(func() error { child.CrashWith(s.Model, rng); return nil }); cerr != nil {
		return &Violation{Phase: "crash", Msg: cerr.Error(), Schedule: s}
	}
	for j := 0; j < s.Faults; j++ {
		reg := faultRegions[rng.Intn(len(faultRegions))]
		blocks := dev.BlocksIn(reg)
		if len(blocks) == 0 {
			continue
		}
		dev.CorruptBlock(reg, blocks[rng.Intn(len(blocks))], rng.Intn(BlockBytes), byte(1+rng.Intn(255)))
	}

	// --- phase 3: recovery --------------------------------------------------
	var rerr error
	if gerr := guard(func() error { _, rerr = child.Recover(); return nil }); gerr != nil {
		return &Violation{Phase: "recover", Msg: gerr.Error(), Schedule: s}
	}
	switch policy {
	case MustNotRecover:
		if !errors.Is(rerr, memctrl.ErrNotRecoverable) {
			return &Violation{Phase: "recover",
				Msg:      fmt.Sprintf("%s must report ErrNotRecoverable under every model; got %v", s.Combo, rerr),
				Schedule: s}
		}
	case MustRecover:
		if strict && rerr != nil {
			return &Violation{Phase: "recover",
				Msg:      fmt.Sprintf("%s must fully recover inside its envelope (full-ADR, no faults); got %v", s.Combo, rerr),
				Schedule: s}
		}
		fallthrough
	case MayRecover:
		if rerr != nil && !typedRecoveryError(rerr) {
			return &Violation{Phase: "recover",
				Msg:      fmt.Sprintf("untyped recovery error (want ErrUnrecoverable/ErrNotRecoverable wrapping): %v", rerr),
				Schedule: s}
		}
	}

	// --- phase 4: differential read-back oracle ----------------------------
	// A controller that failed recovery hard (ErrUnrecoverable) refuses
	// service; the oracle only audits serviceable states. WriteBack's
	// ErrNotRecoverable leaves it serviceable by design (demonstration
	// reads), so it is audited too.
	serviceable := rerr == nil || errors.Is(rerr, memctrl.ErrNotRecoverable)
	oracle := func(phase string) *Violation {
		var v *Violation
		oerr := guard(func() error {
			for _, addr := range goldenAddrs() {
				got, err := child.ReadBlock(addr)
				if err != nil {
					if strict {
						v = &Violation{Phase: phase,
							Msg:      fmt.Sprintf("block %d must verify after in-envelope recovery; got %v", addr, err),
							Schedule: s}
						return nil
					}
					continue // typed verification failure: never silent
				}
				if strict {
					if want, ok := latest(addr); ok && got != want {
						v = &Violation{Phase: phase,
							Msg:      fmt.Sprintf("block %d lost committed data: got % x…, want % x…", addr, got[:8], want[:8]),
							Schedule: s}
						return nil
					}
				} else if !inHistory(addr, got) {
					v = &Violation{Phase: phase,
						Msg:      fmt.Sprintf("block %d silently returned corrupt data % x… (matches no golden value)", addr, got[:8]),
						Schedule: s}
					return nil
				}
			}
			return nil
		})
		if oerr != nil {
			return &Violation{Phase: phase, Msg: oerr.Error(), Schedule: s}
		}
		return v
	}
	if serviceable {
		if v := oracle("oracle"); v != nil {
			return v
		}
	}

	// --- phase 5: post-recovery workload -----------------------------------
	// A recovered controller must be genuinely serviceable: run more of
	// the trace and re-check the strict oracle, which is what catches
	// crash state leaking into the recovered run (e.g. a still-armed
	// pushBudget silently throttling commit groups).
	if rerr == nil {
		post := p.arena.SourceAt(s.Warm + total)
		perr := guard(func() error {
			var data [BlockBytes]byte
			for i := 0; i < PostRunRequests; i++ {
				req := post.Next()
				child.AdvanceTo(child.Now() + req.GapNS)
				addr := req.Block % nBlocks
				if req.Op == trace.OpWrite {
					sim.FillBlock(&data, req.Block, uint64(total+i))
					if err := child.WriteBlock(addr, data); err != nil {
						return fmt.Errorf("write %d: %w", addr, err)
					}
					record(addr, data)
				} else if _, err := child.ReadBlock(addr); err != nil {
					return fmt.Errorf("read %d: %w", addr, err)
				}
			}
			return nil
		})
		if isPanic(perr) {
			return &Violation{Phase: "post-run", Msg: perr.Error(), Schedule: s}
		}
		if strict {
			if perr != nil {
				return &Violation{Phase: "post-run",
					Msg:      fmt.Sprintf("recovered controller rejected in-envelope workload: %v", perr),
					Schedule: s}
			}
			if v := oracle("post-run"); v != nil {
				return v
			}
		}
	}
	return nil
}
