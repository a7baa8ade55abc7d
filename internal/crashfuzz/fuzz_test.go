package crashfuzz

import (
	"fmt"
	"hash"
	"hash/fnv"
	"math/rand"
	"strings"
	"testing"

	"anubis/internal/memctrl"
	"anubis/internal/nvm"
	"anubis/internal/obs"
)

func TestReplayTokenRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for i := 0; i < 50; i++ {
		s := RandomSchedule(rng, 99)
		got, err := ParseSchedule(s.String())
		if err != nil {
			t.Fatalf("ParseSchedule(%q): %v", s.String(), err)
		}
		if got != s {
			t.Fatalf("round trip mismatch:\n in: %+v\nout: %+v", s, got)
		}
	}
	if _, err := ParseSchedule("v0 nope"); err == nil {
		t.Fatal("bad version accepted")
	}
	if _, err := ParseSchedule("v1 combo=bogus/zap extra=1 profile=mcf"); err == nil {
		t.Fatal("bad combo accepted")
	}
	// String would print the zero Variant as combo=bonsai/writeback, which
	// is not that Variants row, so the token could not round-trip.
	if _, err := ParseSchedule("v1 profile=lbm extra=1"); err == nil {
		t.Fatal("token without a combo accepted")
	}
}

// TestScheduleStreamPinned pins the seed-99 schedule stream that
// anubis-fuzz draws by default: 500 RandomSchedules from one
// rand.NewSource(99), trace seed 99. Its tokens hash to the value
// below. A change to RandomSchedule's draws, or to the token format,
// changes the campaign every earlier fuzz result was found with, so it
// must be deliberate.
func TestScheduleStreamPinned(t *testing.T) {
	const want = 0x73d2c580600130d7 // FNV-1a 64 of the newline-joined tokens
	rng := rand.New(rand.NewSource(99))
	toks := make([]string, 500)
	for i := range toks {
		toks[i] = RandomSchedule(rng, 99).String()
	}
	h := fnv.New64a()
	h.Write([]byte(strings.Join(toks, "\n")))
	if got := h.Sum64(); got != want {
		t.Fatalf("seed-99 schedule stream hashes to %#016x, want %#016x", got, want)
	}
}

// TestTrialOutcomesPinned pins what the first 300 seed-99 fuzz trials
// do, not only which trials are drawn: every controller they build is
// wrapped in a digestCtrl, and every ReadBlock value or error,
// WriteBlock error and Recover outcome, then each trial's final device
// StateDigest, fold into one FNV-1a 64 value. A change to how a trial
// drives its controller (or to any controller) moves it.
func TestTrialOutcomesPinned(t *testing.T) {
	const want uint64 = 0x43ab20a60ebc874d // FNV-1a 64 of the folded trial outcomes
	d := &trialDigest{h: fnv.New64a()}
	r := NewRunner()
	r.NewController = func(f memctrl.Family, cfg memctrl.Config) (memctrl.Controller, error) {
		c, err := memctrl.New(f, cfg)
		if err != nil {
			return nil, err
		}
		return &digestCtrl{Controller: c, d: d}, nil
	}
	rng := rand.New(rand.NewSource(99))
	for i := 0; i < 300; i++ {
		s := RandomSchedule(rng, 99)
		d.last = nil
		if v := r.RunTrial(s); v != nil {
			t.Fatalf("trial %d: %v", i, v)
		}
		if d.last == nil {
			t.Fatalf("trial %d forked no controller", i)
		}
		fmt.Fprintf(d.h, "digest %x\n", d.last.Device().StateDigest())
	}
	if got := d.h.Sum64(); got != want {
		t.Fatalf("seed-99 trial outcomes hash to %#016x, want %#016x", got, want)
	}
}

// trialDigest is the hash every digestCtrl of one run folds into, and
// the latest clone: a trial's child.
type trialDigest struct {
	h    hash.Hash64
	last *digestCtrl
}

// digestCtrl records what a trial observes from the controller it
// wraps. Clones stay wrapped, and SetProbe is forwarded so that sim's
// type assertion still finds it.
type digestCtrl struct {
	memctrl.Controller
	d *trialDigest
}

func (c *digestCtrl) ReadBlock(idx uint64) ([BlockBytes]byte, error) {
	v, err := c.Controller.ReadBlock(idx)
	if err != nil {
		fmt.Fprintf(c.d.h, "read %d: %v\n", idx, err)
	} else {
		fmt.Fprintf(c.d.h, "read %d: %x\n", idx, v)
	}
	return v, err
}

func (c *digestCtrl) WriteBlock(idx uint64, data [BlockBytes]byte) error {
	err := c.Controller.WriteBlock(idx, data)
	fmt.Fprintf(c.d.h, "write %d: %v\n", idx, err)
	return err
}

func (c *digestCtrl) Recover() (*memctrl.RecoveryReport, error) {
	rep, err := c.Controller.Recover()
	if rep != nil {
		fmt.Fprintf(c.d.h, "recover %+v: %v\n", *rep, err)
	} else {
		fmt.Fprintf(c.d.h, "recover: %v\n", err)
	}
	return rep, err
}

func (c *digestCtrl) Clone() memctrl.Controller {
	child := &digestCtrl{Controller: c.Controller.Clone(), d: c.d}
	c.d.last = child
	return child
}

func (c *digestCtrl) SetProbe(p obs.Probe) {
	if ps, ok := c.Controller.(interface{ SetProbe(obs.Probe) }); ok {
		ps.SetProbe(p)
	}
}

// variant returns the memctrl.Variants row called name.
func variant(name string) memctrl.Variant {
	v, ok := memctrl.VariantByName(name)
	if !ok {
		panic("crashfuzz test: unknown variant " + name)
	}
	return v
}

func TestPolicyTable(t *testing.T) {
	want := map[string]Policy{
		"bonsai/writeback": MustNotRecover,
		"sgx/writeback":    MustNotRecover,
		"sgx/osiris":       MustNotRecover,
		"bonsai/osiris":    MayRecover,
		"bonsai/strict":    MustRecover,
		"sgx/strict":       MustRecover,
		"bonsai/agit-read": MustRecover,
		"bonsai/agit-plus": MustRecover,
		"sgx/asit":         MustRecover,
		"bonsai/triad":     MayRecover,
		"bonsai/selective": MayRecover,
	}
	for _, v := range memctrl.Variants {
		if got := PolicyOf(v); got != want[comboName(v)] {
			t.Fatalf("PolicyOf(%s) = %v, want %v", comboName(v), got, want[comboName(v)])
		}
	}
}

// TestTrialMatrixSmoke runs every variant × crash model × mid-commit
// setting once: the oracle must report zero violations on the real
// (unbroken) controllers.
func TestTrialMatrixSmoke(t *testing.T) {
	r := NewRunner()
	cseed := int64(1)
	for _, v := range memctrl.Variants {
		for _, model := range nvm.CrashModels() {
			for _, mid := range []int{-1, 2} {
				s := Schedule{
					Profile: "libquantum", Variant: v, Model: model,
					Warm: 64, Extra: 12, MidCommit: mid, Faults: 0,
					TraceSeed: 99, CrashSeed: cseed,
				}
				cseed++
				if v := r.RunTrial(s); v != nil {
					t.Fatalf("%v", v)
				}
			}
		}
	}
}

// TestTrialWithFaultsSmoke injects media faults on top of each crash
// model: recovery must degrade to typed errors, never violations.
func TestTrialWithFaultsSmoke(t *testing.T) {
	r := NewRunner()
	rng := rand.New(rand.NewSource(17))
	for i := 0; i < 60; i++ {
		s := RandomSchedule(rng, 99)
		s.Faults = 1 + rng.Intn(3)
		if v := r.RunTrial(s); v != nil {
			t.Fatalf("%v", v)
		}
	}
}

func TestTrialDeterminism(t *testing.T) {
	s := Schedule{
		Profile: "mcf", Variant: variant("agit-plus"),
		Model: nvm.CrashTornBlock, Warm: 64, Extra: 20, MidCommit: 3, Faults: 2,
		TraceSeed: 99, CrashSeed: 12345,
	}
	a := NewRunner().RunTrial(s)
	b := NewRunner().RunTrial(s)
	if (a == nil) != (b == nil) {
		t.Fatalf("trial not deterministic: %v vs %v", a, b)
	}
	if a != nil && (a.Phase != b.Phase || a.Msg != b.Msg) {
		t.Fatalf("violation not deterministic:\n%v\n%v", a, b)
	}
}

// TestEpochMidDrainRegressionSeeds sweeps the mid-commit budget hook
// over small budgets and two crash points, so the power failure lands
// inside a half-drained commit group that DONE_BIT redo must retire.
// Strict persists the most per write; AGIT-Plus and ASIT are the two
// Anubis schemes. Every variant must satisfy the oracle under all three
// crash models. The seeds are the ones that caught torn commit groups
// in the retired epoch pipeline's close, kept as a deterministic
// regression net for the one eager write path.
func TestEpochMidDrainRegressionSeeds(t *testing.T) {
	r := NewRunner()
	cseed := int64(4242)
	for _, name := range []string{"strict", "agit-plus", "asit"} {
		for _, model := range nvm.CrashModels() {
			for _, mid := range []int{0, 1, 2, 3, 4, 5} {
				for _, extra := range []int{4, 9} {
					s := Schedule{
						Profile: "libquantum", Variant: variant(name), Model: model,
						Warm: 64, Extra: extra, MidCommit: mid,
						TraceSeed: 99, CrashSeed: cseed,
					}
					cseed++
					if v := r.RunTrial(s); v != nil {
						t.Fatalf("%v", v)
					}
				}
			}
		}
	}
}

// TestEpochReplayTokens replays the epoch pipeline's checked-in repro
// tokens exactly as they were stored, epoch=N included: each parses,
// re-encodes without the retired key, and runs clean as an eager trial.
// Two of them crash inside a half-drained commit group that DONE_BIT
// redo must retire.
func TestEpochReplayTokens(t *testing.T) {
	r := NewRunner()
	for _, tok := range []string{
		"v1 profile=libquantum combo=sgx/asit model=full-adr warm=64 extra=13 mid=-1 faults=0 tseed=99 cseed=11 epoch=16",
		"v1 profile=mcf combo=bonsai/agit-plus model=torn-block warm=64 extra=21 mid=-1 faults=0 tseed=99 cseed=12 epoch=16",
		"v1 profile=libquantum combo=bonsai/strict model=full-adr warm=64 extra=8 mid=1 faults=0 tseed=99 cseed=13 epoch=4",
		"v1 profile=libquantum combo=sgx/asit model=partial-drain warm=64 extra=8 mid=1 faults=0 tseed=99 cseed=14 epoch=4",
	} {
		s, err := ParseSchedule(tok)
		if err != nil {
			t.Fatalf("token %q: %v", tok, err)
		}
		if want := tok[:strings.LastIndex(tok, " epoch=")]; s.String() != want {
			t.Fatalf("token %q re-encoded as %q, want %q", tok, s.String(), want)
		}
		if v := r.RunTrial(s); v != nil {
			t.Fatalf("%v", v)
		}
	}
}

// TestRetiredEngineKeysReplay pins replay-token compatibility with
// builds that had the sharded warm fill, the hit-burst fast lane or the
// epoch pipeline: a token carrying shard=N, fastpath=N and epoch=N
// parses to the same Schedule as the token without them, and both
// replay to the same verdict — a clean pass, an expected refusal, or a
// violation from a broken controller. The last four tokens were the
// epoch pipeline's checked-in repros, among them half-drained commit
// groups; they replay as eager trials.
func TestRetiredEngineKeysReplay(t *testing.T) {
	tokens := []string{
		"v1 profile=libquantum combo=bonsai/agit-plus model=full-adr warm=256 extra=16 mid=-1 faults=0 tseed=99 cseed=9000",
		"v1 profile=libquantum combo=sgx/asit model=full-adr warm=256 extra=16 mid=-1 faults=0 tseed=99 cseed=9001",
		"v1 profile=mcf combo=bonsai/writeback model=torn-block warm=64 extra=9 mid=2 faults=1 tseed=99 cseed=9002",
		"v1 profile=libquantum combo=sgx/asit model=full-adr warm=64 extra=13 mid=-1 faults=0 tseed=99 cseed=11",
		"v1 profile=mcf combo=bonsai/agit-plus model=torn-block warm=64 extra=21 mid=-1 faults=0 tseed=99 cseed=12",
		"v1 profile=libquantum combo=bonsai/strict model=full-adr warm=64 extra=8 mid=1 faults=0 tseed=99 cseed=13",
		"v1 profile=libquantum combo=sgx/asit model=partial-drain warm=64 extra=8 mid=1 faults=0 tseed=99 cseed=14",
	}
	broken := NewRunner()
	broken.NewController = func(f memctrl.Family, cfg memctrl.Config) (memctrl.Controller, error) {
		c, err := memctrl.New(f, cfg)
		if err != nil {
			return nil, err
		}
		return &panickyRecover{Controller: c}, nil
	}
	for _, r := range []*Runner{NewRunner(), broken} {
		for _, tok := range tokens {
			plain, err := ParseSchedule(tok)
			if err != nil {
				t.Fatal(err)
			}
			for _, extra := range []string{" shard=4 fastpath=1 epoch=4", " shard=0 fastpath=0 epoch=0", " epoch=16 fastpath=1 shard=8"} {
				old, err := ParseSchedule(tok + extra)
				if err != nil {
					t.Fatalf("token with%s rejected: %v", extra, err)
				}
				if old != plain {
					t.Fatalf("token with%s parsed to %+v, want %+v", extra, old, plain)
				}
				if old.String() != tok {
					t.Fatalf("re-encoded token %q, want %q", old.String(), tok)
				}
			}
			old, _ := ParseSchedule(tok + " shard=4 fastpath=1 epoch=16")
			want, got := r.RunTrial(plain), r.RunTrial(old)
			if (want == nil) == (r == broken) {
				t.Fatalf("%s: unexpected verdict %v", tok, want)
			}
			if (want == nil) != (got == nil) || (want != nil && (want.Phase != got.Phase || want.Schedule != got.Schedule)) {
				t.Fatalf("%s: verdicts differ: %v vs %v", tok, want, got)
			}
		}
	}
}

// --- deliberately broken controllers: the fuzzer must catch them -----------

// panickyRecover wraps a controller whose Recover panics, simulating an
// unhardened recovery path hitting corrupt-image input.
type panickyRecover struct{ memctrl.Controller }

func (p *panickyRecover) Recover() (*memctrl.RecoveryReport, error) {
	panic("index out of range [1099511627775] with length 256")
}
func (p *panickyRecover) Clone() memctrl.Controller {
	return &panickyRecover{Controller: p.Controller.Clone()}
}

func TestFuzzerCatchesRecoveryPanicAndShrinks(t *testing.T) {
	r := NewRunner()
	r.NewController = func(f memctrl.Family, cfg memctrl.Config) (memctrl.Controller, error) {
		c, err := memctrl.New(f, cfg)
		if err != nil {
			return nil, err
		}
		return &panickyRecover{Controller: c}, nil
	}
	s := Schedule{
		Profile: "libquantum", Variant: variant("strict"),
		Model: nvm.CrashTornBlock, Warm: 256, Extra: 77, MidCommit: 4, Faults: 3,
		TraceSeed: 99, CrashSeed: 7,
	}
	v := r.RunTrial(s)
	if v == nil || v.Phase != "recover" {
		t.Fatalf("panicking Recover not caught: %v", v)
	}
	if !strings.Contains(v.Msg, "panic:") {
		t.Fatalf("violation does not identify the panic: %s", v.Msg)
	}
	min, mv := r.Shrink(s)
	if mv == nil {
		t.Fatal("shrink lost the failure")
	}
	if min.Faults != 0 || min.MidCommit != -1 || min.Model != nvm.CrashFullADR {
		t.Fatalf("shrink kept irrelevant features: %+v", min)
	}
	if min.Extra != 1 || min.Warm != 0 {
		t.Fatalf("shrink did not bisect to the minimal crash point: %+v", min)
	}
	// The minimal repro replays from its single-line token.
	rt, err := ParseSchedule(min.String())
	if err != nil {
		t.Fatalf("minimal repro token does not parse: %v", err)
	}
	if v := r.RunTrial(rt); v == nil {
		t.Fatal("replayed minimal repro does not fail")
	}
}

// leakyBudget wraps a controller that re-arms the pre-fix pushBudget
// bug: Crash "forgets" to disarm the mid-drain throttle, so the
// recovered run's commit groups silently stop draining.
type leakyBudget struct {
	memctrl.Controller
	armed int
}

func (l *leakyBudget) CrashWith(m nvm.CrashModel, rng *rand.Rand) {
	l.Controller.CrashWith(m, rng)
	if l.armed >= 0 {
		// Pre-fix behaviour: the budget armed before the crash survives
		// into the recovered run.
		l.Controller.Device().SetPushBudget(l.armed)
	}
}
func (l *leakyBudget) Crash() { l.CrashWith(nvm.CrashFullADR, nil) }
func (l *leakyBudget) Clone() memctrl.Controller {
	return &leakyBudget{Controller: l.Controller.Clone(), armed: l.armed}
}

func TestFuzzerCatchesPushBudgetLeak(t *testing.T) {
	r := NewRunner()
	r.NewController = func(f memctrl.Family, cfg memctrl.Config) (memctrl.Controller, error) {
		c, err := memctrl.New(f, cfg)
		if err != nil {
			return nil, err
		}
		return &leakyBudget{Controller: c, armed: 0}, nil
	}
	s := Schedule{
		Profile: "libquantum", Variant: variant("strict"),
		Model: nvm.CrashFullADR, Warm: 64, Extra: 8, MidCommit: 2,
		TraceSeed: 99, CrashSeed: 3,
	}
	v := r.RunTrial(s)
	if v == nil {
		t.Fatal("leaked pushBudget not caught")
	}
	if v.Phase != "post-run" {
		t.Fatalf("leak caught in phase %q, want post-run: %v", v.Phase, v)
	}
	min, mv := r.Shrink(s)
	if mv == nil {
		t.Fatal("shrink lost the failure")
	}
	if _, err := ParseSchedule(min.String()); err != nil {
		t.Fatalf("minimal repro token does not parse: %v", err)
	}
}

// --- native fuzz targets ----------------------------------------------------

// fuzzRunner is shared across fuzz iterations of one worker process so
// warm parents are reused (each worker owns its own process).
var fuzzRunner = NewRunner()

// FuzzTrial is the native crash-injection fuzz target: the engine
// mutates the schedule dimensions and every execution must satisfy the
// differential oracle.
func FuzzTrial(f *testing.F) {
	f.Add(int64(1), uint8(0), uint8(0), uint8(0), uint16(10), int8(-1), uint8(0))
	f.Add(int64(99), uint8(4), uint8(1), uint8(2), uint16(33), int8(3), uint8(1))
	f.Add(int64(7), uint8(10), uint8(2), uint8(1), uint16(80), int8(0), uint8(2))
	f.Fuzz(func(t *testing.T, cseed int64, combo, model, profile uint8, extra uint16, mid int8, faults uint8) {
		s := Schedule{
			Profile:   Profiles[int(profile)%len(Profiles)],
			Variant:   memctrl.Variants[int(combo)%len(memctrl.Variants)],
			Model:     nvm.CrashModel(int(model) % len(nvm.CrashModels())),
			Warm:      64,
			Extra:     1 + int(extra)%MaxExtra,
			MidCommit: -1,
			Faults:    int(faults) % 4,
			TraceSeed: 99,
			CrashSeed: cseed,
		}
		if mid >= 0 {
			s.MidCommit = int(mid) % 8
		}
		if v := fuzzRunner.RunTrial(s); v != nil {
			t.Fatalf("%v", v)
		}
	})
}

// FuzzParseSchedule hardens the replay-token parser: it must never
// panic, and accepted tokens must re-encode to an equivalent schedule.
func FuzzParseSchedule(f *testing.F) {
	f.Add("v1 profile=mcf combo=bonsai/strict model=full-adr warm=64 extra=10 mid=-1 faults=0 tseed=99 cseed=1")
	f.Add("v1 profile=lbm combo=sgx/asit model=torn-block warm=0 extra=96 mid=5 faults=3 tseed=-4 cseed=-9")
	f.Add("v1 profile=lbm combo=sgx/asit model=partial-drain warm=64 extra=7 mid=1 faults=0 tseed=99 cseed=8 epoch=4")
	f.Add("v1 profile=mcf combo=bonsai/agit-plus model=full-adr warm=64 extra=9 mid=-1 faults=0 tseed=99 cseed=21 shard=4 fastpath=1")
	f.Add("v1 garbage")
	f.Add("v1 profile=lbm extra=1")
	f.Fuzz(func(t *testing.T, tok string) {
		s, err := ParseSchedule(tok)
		if err != nil {
			return
		}
		rt, err := ParseSchedule(s.String())
		if err != nil || rt != s {
			t.Fatalf("accepted token %q did not round-trip: %+v vs %+v (%v)", tok, s, rt, err)
		}
	})
}
