package memctrl

import (
	"errors"
	"math/rand"
	"testing"

	"anubis/internal/nvm"
	"anubis/internal/obs"
)

// TestRecoveryAttributionSumExact is the recovery-phase twin of the run
// ledger's sum-exact contract (DESIGN.md §16): for every scheme × crash
// model cell, the phase ledger must decompose the modeled
// recovery time exactly — Phases.Total() == ModeledNS() — whether the
// recovery succeeds or fails typed.
func TestRecoveryAttributionSumExact(t *testing.T) {
	type cell struct {
		name  string
		ctor  func(Config) (Controller, error)
		sch   Scheme
		recov bool // scheme has a recovery mechanism
	}
	bonsai := func(c Config) (Controller, error) { return NewBonsai(c) }
	sgx := func(c Config) (Controller, error) { return NewSGX(c) }
	cells := []cell{
		{"bonsai/write-back", bonsai, SchemeWriteBack, false},
		{"bonsai/strict", bonsai, SchemeStrict, true},
		{"bonsai/osiris", bonsai, SchemeOsiris, true},
		{"bonsai/agit-read", bonsai, SchemeAGITRead, true},
		{"bonsai/agit-plus", bonsai, SchemeAGITPlus, true},
		{"bonsai/selective", bonsai, SchemeSelective, true},
		{"bonsai/triad", bonsai, SchemeTriad, true},
		{"sgx/write-back", sgx, SchemeWriteBack, false},
		{"sgx/strict", sgx, SchemeStrict, true},
		{"sgx/osiris", sgx, SchemeOsiris, false},
		{"sgx/asit", sgx, SchemeASIT, true},
	}
	for _, tc := range cells {
		for _, model := range nvm.CrashModels() {
			t.Run(tc.name+"/"+model.String(), func(t *testing.T) {
				cfg := TestConfig(tc.sch)
				if tc.sch == SchemeTriad {
					cfg.TriadLevels = 2
				}
				ctrl, err := tc.ctor(cfg)
				if err != nil {
					t.Fatal(err)
				}
				var rng *rand.Rand
				if model != nvm.CrashFullADR {
					ctrl.Device().TrackInflight(true)
					rng = rand.New(rand.NewSource(99))
				}
				wrng := rand.New(rand.NewSource(42))
				for i := 0; i < 300; i++ {
					addr := uint64(wrng.Intn(int(ctrl.NumBlocks())))
					var d [BlockBytes]byte
					wrng.Read(d[:])
					if err := ctrl.WriteBlock(addr, d); err != nil {
						t.Fatal(err)
					}
				}
				ctrl.CrashWith(model, rng)
				rep, rerr := ctrl.Recover()
				if rep == nil {
					t.Fatalf("Recover returned nil report (err=%v)", rerr)
				}
				if tc.recov && rerr != nil &&
					!errors.Is(rerr, ErrUnrecoverable) && !errors.Is(rerr, ErrNotRecoverable) {
					t.Fatalf("Recover: %v", rerr)
				}
				if got, want := rep.Phases.Total(), rep.ModeledNS(); got != want {
					t.Fatalf("phase total %d != modeled recovery %d (phases %v)",
						got, want, rep.Phases.Map())
				}
				// Spot-check the wiring, not just the sum: schemes with
				// real work must attribute it to their signature phases.
				switch tc.sch {
				case SchemeOsiris:
					if tc.name == "bonsai/osiris" && rerr == nil {
						if rep.Phases.Get(obs.RPCounterScan) == 0 || rep.Phases.Get(obs.RPMerkleRebuild) == 0 {
							t.Fatalf("osiris missing scan/rebuild phases: %v", rep.Phases.Map())
						}
						if rep.Phases.Get(obs.RPECCVerify) == 0 {
							t.Fatalf("osiris ECC trials not attributed: %v", rep.Phases.Map())
						}
					}
				case SchemeAGITRead, SchemeAGITPlus:
					if rerr == nil && rep.Phases.Get(obs.RPShadowReplay) == 0 {
						t.Fatalf("AGIT missing shadow replay phase: %v", rep.Phases.Map())
					}
					if rerr == nil && rep.Phases.Get(obs.RPRootAnchor) == 0 {
						t.Fatalf("AGIT missing root anchor phase: %v", rep.Phases.Map())
					}
				case SchemeASIT:
					if rerr == nil && rep.Phases.Get(obs.RPShadowReplay) == 0 {
						t.Fatalf("ASIT missing shadow replay phase: %v", rep.Phases.Map())
					}
				}
				if rep.Phases.Get(obs.RPJournalPassA) != 0 || rep.Phases.Get(obs.RPJournalPassB) != 0 {
					t.Fatalf("a retired epoch-journal phase holds time: %v", rep.Phases.Map())
				}
				if !tc.recov && rep.Phases.Total() != rep.ModeledNS() {
					t.Fatalf("non-recoverable scheme broke sum-exactness")
				}
			})
		}
	}
}

// TestRecoveryPhasesJSONShape pins the report field name and the named
// phase keys that anubis-recover and anubis-fsck -json emit.
func TestRecoveryPhasesJSONShape(t *testing.T) {
	b, err := NewBonsai(TestConfig(SchemeAGITPlus))
	if err != nil {
		t.Fatal(err)
	}
	for i := uint64(0); i < 100; i++ {
		if err := b.WriteBlock(i%b.NumBlocks(), pattern(i)); err != nil {
			t.Fatal(err)
		}
	}
	b.Crash()
	rep, err := b.Recover()
	if err != nil {
		t.Fatal(err)
	}
	data, err := rep.Phases.MarshalJSON()
	if err != nil {
		t.Fatal(err)
	}
	var back obs.RecLedger
	if err := back.UnmarshalJSON(data); err != nil {
		t.Fatal(err)
	}
	if back.Total() != rep.Phases.Total() {
		t.Fatalf("phase ledger did not survive JSON round trip")
	}
}
