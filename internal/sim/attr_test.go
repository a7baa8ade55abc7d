package sim

import (
	"fmt"
	"reflect"
	"testing"

	"anubis/internal/memctrl"
	"anubis/internal/obs"
	"anubis/internal/trace"
)

// attrCells is the full figure matrix: every scheme of both controller
// families the sweeps exercise.
var attrCells = []struct {
	family Family
	scheme memctrl.Scheme
}{
	{FamilyBonsai, memctrl.SchemeWriteBack},
	{FamilyBonsai, memctrl.SchemeStrict},
	{FamilyBonsai, memctrl.SchemeOsiris},
	{FamilyBonsai, memctrl.SchemeAGITRead},
	{FamilyBonsai, memctrl.SchemeAGITPlus},
	{FamilyBonsai, memctrl.SchemeSelective},
	{FamilyBonsai, memctrl.SchemeTriad},
	{FamilySGX, memctrl.SchemeWriteBack},
	{FamilySGX, memctrl.SchemeStrict},
	{FamilySGX, memctrl.SchemeOsiris},
	{FamilySGX, memctrl.SchemeASIT},
}

// sumCheckProbe asserts, for every completed request, that the
// per-component attribution sums exactly to the request's latency.
type sumCheckProbe struct {
	t        *testing.T
	requests int
	events   int
}

func (p *sumCheckProbe) Request(op obs.EventKind, addr, issue, done uint64, attr *obs.Ledger) {
	p.requests++
	if attr == nil {
		p.t.Fatal("request probe received nil attribution")
	}
	if total := attr.Total(); total != done-issue {
		p.t.Fatalf("%v addr=%d: attribution sums to %d, latency is %d (%+v)",
			op, addr, total, done-issue, *attr)
	}
	if g := attr.Get(obs.CompCPUGap); g != 0 {
		p.t.Fatalf("cpu gap %d leaked into a request window", g)
	}
}

func (p *sumCheckProbe) Event(kind obs.EventKind, startNS, endNS, arg uint64) {
	p.events++
	if endNS < startNS {
		p.t.Fatalf("%v event with end %d < start %d", kind, endNS, startNS)
	}
}

// TestAttributionSumExact runs every profile × scheme cell — at every
// epoch-pipeline window size, since the coalesced close adds simulated
// time outside any request window — and checks the two invariant
// levels: per-request component sums equal request latency, and the
// whole-run ledger total equals the controller clock (ExecNS), i.e.
// not one simulated nanosecond is unattributed or double-counted.
func TestAttributionSumExact(t *testing.T) {
	profiles := trace.SPEC2006()
	if testing.Short() {
		profiles = profiles[:3]
	}
	const nReq = 1200
	// 0/1 are the legacy eager path; 8 and 32 arm the coalescing
	// pipeline, whose epoch closes (including the end-of-run flush) burn
	// controller time between requests that the ledger must still book.
	for _, epoch := range []int{0, 1, 8, 32} {
		t.Run(fmt.Sprintf("epoch=%d", epoch), func(t *testing.T) {
			for _, cell := range attrCells {
				for _, p := range profiles {
					cfg := memctrl.TestConfig(cell.scheme)
					cfg.EpochRequests = epoch
					ctrl, err := NewController(cell.family, cfg)
					if err != nil {
						t.Fatal(err)
					}
					probe := &sumCheckProbe{t: t}
					gen := trace.NewGenerator(p.Scaled(ctrl.NumBlocks()), 99)
					res, err := RunObserved(ctrl, gen, nReq, probe)
					if err != nil {
						t.Fatalf("%v/%v/%s: %v", cell.family, cell.scheme, p.Name, err)
					}
					if probe.requests != nReq {
						t.Fatalf("%v/%v/%s: probe saw %d requests, want %d",
							cell.family, cell.scheme, p.Name, probe.requests, nReq)
					}
					if got := res.Stats.Attribution.Total(); got != res.ExecNS {
						t.Fatalf("%v/%v/%s: run ledger sums to %d, ExecNS is %d (%+v)",
							cell.family, cell.scheme, p.Name, got, res.ExecNS, res.Stats.Attribution)
					}
					if res.Stats.Attribution.Get(obs.CompCPUGap) == 0 {
						t.Fatalf("%v/%v/%s: no cpu gap attributed over %d requests",
							cell.family, cell.scheme, p.Name, nReq)
					}
				}
			}
		})
	}
}

// TestRunObservedTimingUnchanged checks the zero-interference guarantee:
// attaching a probe must not change a single simulated quantity.
func TestRunObservedTimingUnchanged(t *testing.T) {
	for _, cell := range attrCells[:4] {
		run := func(probe obs.Probe) Result {
			ctrl, err := NewController(cell.family, memctrl.TestConfig(cell.scheme))
			if err != nil {
				t.Fatal(err)
			}
			p, _ := trace.ByName("libquantum")
			gen := trace.NewGenerator(p.Scaled(ctrl.NumBlocks()), 99)
			res, err := RunObserved(ctrl, gen, 800, probe)
			if err != nil {
				t.Fatal(err)
			}
			return res
		}
		plain := run(nil)
		traced := run(obs.NewTracer(4).Scope("cell"))
		if !reflect.DeepEqual(plain, traced) {
			t.Fatalf("%v/%v: probe changed the simulation result", cell.family, cell.scheme)
		}
	}
}

// TestRecoveryAttributionLedgerSurvivesCrash checks the ledger behaves
// like the rest of the stats across crash/recovery: preserved by Crash,
// still sum-exact afterwards.
func TestRecoveryAttributionLedgerSurvivesCrash(t *testing.T) {
	ctrl, err := NewController(FamilyBonsai, memctrl.TestConfig(memctrl.SchemeAGITPlus))
	if err != nil {
		t.Fatal(err)
	}
	p, _ := trace.ByName("libquantum")
	gen := trace.NewGenerator(p.Scaled(ctrl.NumBlocks()), 99)
	res, err := Run(ctrl, gen, 500)
	if err != nil {
		t.Fatal(err)
	}
	ctrl.Crash()
	if _, err := ctrl.Recover(); err != nil {
		t.Fatal(err)
	}
	after := ctrl.Stats().Attribution
	if after != res.Stats.Attribution {
		t.Fatalf("crash/recovery mutated the ledger: %v -> %v", res.Stats.Attribution, after)
	}
	if after.Total() != ctrl.Now() {
		t.Fatalf("post-recovery ledger %d != clock %d", after.Total(), ctrl.Now())
	}
}
