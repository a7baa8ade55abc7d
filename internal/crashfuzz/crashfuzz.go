// Package crashfuzz is a differential crash-injection fuzzer for the
// secure-NVM controllers.
//
// Anubis's value proposition is correct recovery after an adversarial
// power failure, so recovery correctness must be a continuously searched
// property, not a handful of golden tests. A fuzz trial is a seeded
// random schedule: workload profile × controller scheme × crash point ×
// crash model × optional post-crash ECC faults, optionally landing the
// crash inside a two-stage commit group (the SetPushBudget mid-drain
// hook). The trial forks a warmed controller copy-on-write, runs the
// schedule, and checks a differential oracle against a golden
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
	"slices"
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

// comboName spells a variant the way replay tokens name it,
// family/scheme: "bonsai/agit-plus", "sgx/asit", …
func comboName(v memctrl.Variant) string { return v.Family.String() + "/" + v.Scheme.String() }

// Policy classifies what Recover must report for a variant.
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

// PolicyOf returns the recovery guarantee class of a variant.
func PolicyOf(v memctrl.Variant) Policy {
	switch v.Scheme {
	case memctrl.SchemeWriteBack:
		return MustNotRecover
	case memctrl.SchemeOsiris:
		if v.Family == memctrl.FamilySGX {
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
	Profile string          // workload profile name (trace.ByName)
	Variant memctrl.Variant // the controller under test: a memctrl.Variants row
	Model   nvm.CrashModel

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
func (s Schedule) String() string {
	return fmt.Sprintf("v1 profile=%s combo=%s model=%s warm=%d extra=%d mid=%d faults=%d tseed=%d cseed=%d",
		s.Profile, comboName(s.Variant), s.Model, s.Warm, s.Extra, s.MidCommit, s.Faults, s.TraceSeed, s.CrashSeed)
}

// ParseSchedule parses a replay token produced by Schedule.String.
// Tokens from builds that still had the sharded warm fill, the
// hit-burst fast lane or the epoch pipeline may carry shard=N,
// fastpath=N and epoch=N. The keys are accepted and ignored, so those
// repros keep replaying on the one write path that remains: the first
// two engines were byte-identical to it, and an epoch=N trial replays
// as the eager trial of the same schedule.
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
			i := slices.IndexFunc(memctrl.Variants, func(c memctrl.Variant) bool { return comboName(c) == v })
			if i < 0 {
				return Schedule{}, fmt.Errorf("crashfuzz: unknown combo %q", v)
			}
			s.Variant = memctrl.Variants[i]
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
	if s.Warm < 0 || s.Faults < 0 {
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
	warms := []int{64, 256}
	s := Schedule{
		Profile: Profiles[rng.Intn(len(Profiles))],
		Variant: memctrl.Variants[rng.Intn(len(memctrl.Variants))],
		Model:   nvm.CrashModel(rng.Intn(len(nvm.CrashModels()))),
	}
	// The retired epoch window's draw (one of three sizes) stays, so
	// every seed keeps drawing the schedules it drew before.
	rng.Intn(3)
	s.Warm = warms[rng.Intn(len(warms))]
	s.Extra = 1 + rng.Intn(MaxExtra)
	s.MidCommit = -1
	s.TraceSeed = traceSeed
	s.CrashSeed = rng.Int63()
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
// trial with the same (profile, variant, warm, traceSeed).
type parent struct {
	ctrl  memctrl.Controller
	arena *trace.Arena
	// hist is the golden shadow copy of the warm phase: every value
	// written to each address, in program order.
	hist map[uint64][][BlockBytes]byte
}

type parentKey struct {
	profile string
	variant memctrl.Variant
	warm    int
	tseed   int64
}

// Runner executes trials, caching warm parents between them. Every
// controller is built at memctrl.TestConfig (1 MB memory, small caches:
// fast trials). Not safe for concurrent use; fuzz workers each own a
// Runner.
type Runner struct {
	// NewController overrides controller construction (default:
	// memctrl.New). Tests wrap controllers with deliberately
	// reintroduced bugs here to prove the oracle catches them.
	NewController func(f memctrl.Family, cfg memctrl.Config) (memctrl.Controller, error)

	arenas  *trace.ArenaCache
	parents map[parentKey]*parent
}

// NewRunner returns a Runner that builds controllers with memctrl.New.
func NewRunner() *Runner {
	return &Runner{
		NewController: memctrl.New,
		arenas:        trace.NewArenaCache(),
		parents:       make(map[parentKey]*parent),
	}
}

// arenaLen is the request-stream length a schedule needs: warm fill,
// the largest crash window, the optional mid-commit request, and the
// post-recovery phase.
func arenaLen(warm int) int { return warm + MaxExtra + 1 + PostRunRequests }

func (r *Runner) parent(s Schedule) (*parent, error) {
	key := parentKey{profile: s.Profile, variant: s.Variant, warm: s.Warm, tseed: s.TraceSeed}
	if p, ok := r.parents[key]; ok {
		return p, nil
	}
	prof, ok := trace.ByName(s.Profile)
	if !ok {
		return nil, fmt.Errorf("crashfuzz: unknown profile %q", s.Profile)
	}
	ctrl, err := r.NewController(s.Variant.Family, memctrl.TestConfig(s.Variant.Scheme))
	if err != nil {
		return nil, fmt.Errorf("crashfuzz: %s: %w", comboName(s.Variant), err)
	}
	arena := r.arenas.Get(prof, s.TraceSeed, arenaLen(s.Warm))
	if s.Warm > 0 {
		if _, err := sim.Run(ctrl, arena.Source(), s.Warm); err != nil {
			return nil, fmt.Errorf("crashfuzz: warm fill (%s): %w", comboName(s.Variant), err)
		}
	}
	p := &parent{ctrl: ctrl, arena: arena, hist: make(map[uint64][][BlockBytes]byte)}
	history(p.hist, arena.Requests()[:s.Warm], 0, ctrl.NumBlocks())
	r.parents[key] = p
	return p, nil
}

// history appends to hist, in program order, the value each write of
// reqs stored at its address, without touching the controller: a
// sim.Runner's writes are a pure function of the request stream
// (sim.FillBlock of the block and the run's request counter, which is
// first at reqs[0]), so replaying the stream reproduces them.
func history(hist map[uint64][][BlockBytes]byte, reqs []trace.Request, first, nBlocks uint64) {
	var data [BlockBytes]byte
	for i, req := range reqs {
		if req.Op != trace.OpWrite {
			continue
		}
		sim.FillBlock(&data, req.Block, first+uint64(i))
		addr := req.Block % nBlocks
		hist[addr] = append(hist[addr], data)
	}
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
	policy := PolicyOf(s.Variant)
	strict := policy == MustRecover && s.strictEnvelope()

	// Overlay golden history for the trial's own writes; lookups fall
	// back to the shared warm history.
	overlay := make(map[uint64][][BlockBytes]byte)
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
	// One sim.Runner drives the child from the warm point through the
	// window and, after recovery, the post-run; its request counter
	// starts at zero here and continues, and the final window request
	// optionally runs with the mid-drain power-loss budget armed.
	total := s.Extra
	if s.MidCommit >= 0 {
		total++
	}
	run := sim.NewRunner(child, p.arena.SourceAt(s.Warm))
	werr := guard(func() error {
		if err := run.Step(s.Extra); err != nil || s.MidCommit < 0 {
			return err
		}
		dev.SetPushBudget(s.MidCommit)
		return run.Step(1)
	})
	if werr != nil {
		// Nothing has been corrupted yet: the pre-crash workload must
		// run clean on a forked warm controller.
		return &Violation{Phase: "workload", Msg: werr.Error(), Schedule: s}
	}
	history(overlay, p.arena.Requests()[s.Warm:s.Warm+total], 0, nBlocks)

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
				Msg:      fmt.Sprintf("%s must report ErrNotRecoverable under every model; got %v", comboName(s.Variant), rerr),
				Schedule: s}
		}
	case MustRecover:
		if strict && rerr != nil {
			return &Violation{Phase: "recover",
				Msg:      fmt.Sprintf("%s must fully recover inside its envelope (full-ADR, no faults); got %v", comboName(s.Variant), rerr),
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
		perr := guard(func() error { return run.Step(PostRunRequests) })
		if isPanic(perr) {
			return &Violation{Phase: "post-run", Msg: perr.Error(), Schedule: s}
		}
		if strict {
			if perr != nil {
				return &Violation{Phase: "post-run",
					Msg:      fmt.Sprintf("recovered controller rejected in-envelope workload: %v", perr),
					Schedule: s}
			}
			start := s.Warm + total
			history(overlay, p.arena.Requests()[start:start+PostRunRequests], uint64(total), nBlocks)
			if v := oracle("post-run"); v != nil {
				return v
			}
		}
	}
	return nil
}
