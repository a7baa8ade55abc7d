package figures

import (
	"bytes"
	"fmt"
	"io"
	"os"
	"strings"
	"testing"

	"anubis/internal/memctrl"
	"anubis/internal/recmodel"
	"anubis/internal/trace"
)

func TestFig5Shape(t *testing.T) {
	rows := Fig5()
	if len(rows) != 7 {
		t.Fatalf("fig5 rows = %d", len(rows))
	}
	for i := 1; i < len(rows); i++ {
		if rows[i].NS <= rows[i-1].NS {
			t.Fatal("fig5 not monotonically increasing with memory size")
		}
	}
	last := rows[len(rows)-1]
	if last.MemBytes != 8<<40 {
		t.Fatalf("last capacity = %d, want 8TB", last.MemBytes)
	}
	if s := recmodel.Seconds(last.NS); s < 25000 || s > 31000 {
		t.Fatalf("8TB point = %.0f s, paper reports ≈28193 s", s)
	}
}

func TestFig7ShapeMatchesPaper(t *testing.T) {
	tabs, err := Sweep(QuickRunConfig(), TableFig7)
	if err != nil {
		t.Fatal(err)
	}
	byApp := map[string]float64{}
	for _, r := range tabs.Fig7 {
		byApp[r.App] = r.CleanFrac
	}
	// Paper Figure 7: most applications evict a large number of clean
	// blocks; read-intensive mcf must be the cleanest of the trio.
	if byApp["mcf"] <= byApp["lbm"] {
		t.Fatalf("mcf clean frac (%.2f) not above lbm (%.2f)", byApp["mcf"], byApp["lbm"])
	}
}

func TestFig10QuickShape(t *testing.T) {
	rows, avg, err := Fig10(QuickRunConfig())
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 3 {
		t.Fatalf("rows = %d", len(rows))
	}
	// Paper Figure 10 ordering: strict ≫ agit-read ≥ agit-plus ≥ osiris ≥ 1.
	if avg[memctrl.SchemeStrict] < 1.3 {
		t.Fatalf("strict avg %.3f too low", avg[memctrl.SchemeStrict])
	}
	if avg[memctrl.SchemeAGITPlus] > avg[memctrl.SchemeAGITRead]+0.005 {
		t.Fatalf("agit-plus (%.3f) above agit-read (%.3f)",
			avg[memctrl.SchemeAGITPlus], avg[memctrl.SchemeAGITRead])
	}
	if avg[memctrl.SchemeStrict] <= avg[memctrl.SchemeAGITRead] {
		t.Fatal("strict not the most expensive scheme")
	}
	if avg[memctrl.SchemeOsiris] < 0.99 {
		t.Fatalf("osiris avg %.3f below baseline", avg[memctrl.SchemeOsiris])
	}
}

func TestFig11QuickShape(t *testing.T) {
	_, avg, err := Fig11(QuickRunConfig())
	if err != nil {
		t.Fatal(err)
	}
	if avg[memctrl.SchemeStrict] <= avg[memctrl.SchemeASIT] {
		t.Fatalf("strict (%.3f) not above ASIT (%.3f)",
			avg[memctrl.SchemeStrict], avg[memctrl.SchemeASIT])
	}
	if avg[memctrl.SchemeASIT] < 1.0 {
		t.Fatalf("ASIT avg %.3f below baseline", avg[memctrl.SchemeASIT])
	}
}

func TestFig12Shape(t *testing.T) {
	rows := Fig12()
	if len(rows) != 5 {
		t.Fatalf("rows = %d", len(rows))
	}
	for i, r := range rows {
		if r.ASITNS >= r.AGITNS {
			t.Fatalf("row %d: ASIT (%d) not below AGIT (%d)", i, r.ASITNS, r.AGITNS)
		}
		if i > 0 && (r.AGITNS <= rows[i-1].AGITNS || r.ASITNS <= rows[i-1].ASITNS) {
			t.Fatal("recovery time not increasing with cache size")
		}
	}
	// Paper anchors: 0.03 s at 256 KB, 0.48 s at 4 MB for AGIT.
	if s := recmodel.Seconds(rows[0].AGITNS); s < 0.025 || s > 0.035 {
		t.Fatalf("AGIT@256KB = %.4f s, want ≈0.03", s)
	}
	if s := recmodel.Seconds(rows[4].AGITNS); s < 0.42 || s > 0.53 {
		t.Fatalf("AGIT@4MB = %.4f s, want ≈0.48", s)
	}
}

// recoverAfter runs one cell (see run), then crashes its controller
// and recovers it.
func (rc RunConfig) recoverAfter(f memctrl.Family, cfg memctrl.Config, p trace.Profile) (*memctrl.RecoveryReport, error) {
	ctrl, _, err := rc.run(f, cfg, p)
	if err != nil {
		return nil, err
	}
	ctrl.Crash()
	return ctrl.Recover()
}

// measuredRecoveryRC is the scale of the measured-recovery tests: 3000
// mcf requests on 16 MiB, then a crash and a recovery (recoverAfter).
func measuredRecoveryRC() (RunConfig, trace.Profile) {
	rc := QuickRunConfig()
	rc.MemoryBytes = 16 << 20
	rc.Requests = 3000
	mcf, _ := trace.ByName("mcf")
	return rc, mcf
}

// TestMeasuredRecoveryAGITBelowOsiris validates the analytic op counts
// with the implementation: a real AGIT-Plus recovery takes less modeled
// time than Osiris's after the same run.
func TestMeasuredRecoveryAGITBelowOsiris(t *testing.T) {
	rc, mcf := measuredRecoveryRC()
	agit, err := rc.recoverAfter(memctrl.FamilyBonsai, rc.config(memctrl.SchemeAGITPlus), mcf)
	if err != nil {
		t.Fatal(err)
	}
	osiris, err := rc.recoverAfter(memctrl.FamilyBonsai, rc.config(memctrl.SchemeOsiris), mcf)
	if err != nil {
		t.Fatal(err)
	}
	if agit.ModeledNS() >= osiris.ModeledNS() {
		t.Fatalf("measured AGIT recovery (%d ns) not below Osiris (%d ns)",
			agit.ModeledNS(), osiris.ModeledNS())
	}
}

func TestMeasuredRecoveryASIT(t *testing.T) {
	rc, mcf := measuredRecoveryRC()
	rep, err := rc.recoverAfter(memctrl.FamilySGX, rc.config(memctrl.SchemeASIT), mcf)
	if err != nil {
		t.Fatal(err)
	}
	if rep.EntriesScanned == 0 {
		t.Fatal("no shadow entries scanned")
	}
}

func TestPrintersProduceOutput(t *testing.T) {
	var buf bytes.Buffer
	Table1(&buf)
	PrintFig5(&buf)
	PrintFig12(&buf)
	PrintHeadline(&buf)
	out := buf.String()
	for _, want := range []string{"Table 1", "Figure 5", "Figure 12", "Headline", "8TB", "Osiris"} {
		if !strings.Contains(out, want) {
			t.Fatalf("output missing %q", want)
		}
	}
}

// TestTable1AndHeadlinePinned compares Table 1 and the headline, the
// anubis-bench sections that print no simulated run, with checked-in
// text. Table 1 prints the capacity of DefaultConfig's geometry, 16 GB,
// though the figures simulate 256 MiB; a change to either text must
// update the file with its reason.
func TestTable1AndHeadlinePinned(t *testing.T) {
	for _, tc := range []struct {
		file  string
		print func(io.Writer)
	}{
		{"testdata/table1.txt", Table1},
		{"testdata/headline.txt", PrintHeadline},
	} {
		want, err := os.ReadFile(tc.file)
		if err != nil {
			t.Fatal(err)
		}
		var got bytes.Buffer
		tc.print(&got)
		if got.String() != string(want) {
			t.Errorf("output differs from %s:\n--- got\n%s--- want\n%s", tc.file, got.String(), want)
		}
	}
}

func TestPrintFig7AndPerf(t *testing.T) {
	rc := QuickRunConfig()
	rc.Requests = 1500
	tabs, err := Sweep(rc, TableFig7|TableFig10)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	PrintFig7(&buf, tabs.Fig7)
	PrintPerf(&buf, "Figure 10", tabs.Fig10.Rows, tabs.Fig10.Avg, Fig10Schemes)
	if !strings.Contains(buf.String(), "Figure 7") || !strings.Contains(buf.String(), "average") {
		t.Fatal("perf table missing average row")
	}
}

func TestFig13Shape(t *testing.T) {
	rc := QuickRunConfig()
	rc.Requests = 1500
	rc.Apps = []string{"libquantum"}
	tabs, err := Sweep(rc, TableFig13)
	if err != nil {
		t.Fatal(err)
	}
	rows := tabs.Fig13
	if len(rows) != 5 {
		t.Fatalf("rows = %d", len(rows))
	}
	for _, r := range rows {
		for _, s := range Fig13Schemes {
			if r.Norm[s] < 0.9 {
				t.Fatalf("cache %d scheme %v: normalized %.3f implausible", r.CacheBytes, s, r.Norm[s])
			}
		}
	}
	var buf bytes.Buffer
	PrintFig13(&buf, rows)
	if !strings.Contains(buf.String(), "Figure 13") {
		t.Fatal("missing title")
	}
}

func TestMemName(t *testing.T) {
	cases := map[uint64]string{
		8 << 40:   "8TB",
		16 << 30:  "16GB",
		4 << 20:   "4MB",
		256 << 10: "256KB",
	}
	for b, want := range cases {
		if got := memName(b); got != want {
			t.Fatalf("memName(%d) = %q, want %q", b, got, want)
		}
	}
}

func TestRunConfigProfiles(t *testing.T) {
	rc := DefaultRunConfig()
	if ps, err := rc.profiles(); err != nil || len(ps) != 11 {
		t.Fatalf("default profiles = %d, %v", len(ps), err)
	}
	rc.Apps = []string{"mcf", "bogus"}
	if _, err := rc.profiles(); err == nil || !strings.Contains(err.Error(), `"bogus"`) {
		t.Fatalf("unknown app name must be an error naming it, got %v", err)
	}
}

// TestSweepsRejectBadInput: every sweep entry point returns an error
// for an unknown app, a non-positive request count or a missing arena
// cache, before any cell runs, instead of panicking or printing an
// empty table. Fig 7, Fig 13 and each of the four ablation tables are
// checked through a one-table Sweep, which must return the error with
// that table empty. The ablations always run libquantum, so the app
// inputs do not apply to them.
func TestSweepsRejectBadInput(t *testing.T) {
	sweep := func(want Table, table func(Tables) int) func(RunConfig) error {
		return func(rc RunConfig) error {
			tabs, err := Sweep(rc, want)
			if n := table(tabs); n != 0 {
				return fmt.Errorf("%d rows returned", n)
			}
			return err
		}
	}
	entries := []struct {
		name  string
		apps  bool
		sweep func(RunConfig) error
	}{
		{"Fig7", true, sweep(TableFig7, func(t Tables) int { return len(t.Fig7) })},
		{"Fig10", true, func(rc RunConfig) error { _, _, err := Fig10(rc); return err }},
		{"Fig11", true, func(rc RunConfig) error { _, _, err := Fig11(rc); return err }},
		{"Fig13", true, sweep(TableFig13, func(t Tables) int { return len(t.Fig13) })},
		{"RecoverySweep", true, func(rc RunConfig) error {
			_, err := RecoverySweep(RecoverySweepConfig{Run: rc, Scheme: memctrl.SchemeAGITPlus, Family: memctrl.FamilyBonsai})
			return err
		}},
		{"AblationStopLoss", false, sweep(TableAblations, func(t Tables) int { return len(t.Ablations.StopLoss) })},
		{"AblationRecoveryBackend", false, sweep(TableAblations, func(t Tables) int { return len(t.Ablations.Backend) })},
		{"AblationEndurance", false, sweep(TableAblations, func(t Tables) int { return len(t.Ablations.Endurance) })},
		{"AblationTriad", false, sweep(TableAblations, func(t Tables) int { return len(t.Ablations.Triad) })},
	}
	inputs := []struct {
		name string
		apps bool
		edit func(*RunConfig)
		want string
	}{
		{"unknown_app", true, func(rc *RunConfig) { rc.Apps = []string{"nosuchapp"} }, `unknown app "nosuchapp"`},
		{"one_unknown_app", true, func(rc *RunConfig) { rc.Apps = []string{"mcf", "nosuch"} }, `unknown app "nosuch"`},
		{"zero_requests", false, func(rc *RunConfig) { rc.Requests = 0 }, "must be positive, got 0"},
		{"negative_requests", false, func(rc *RunConfig) { rc.Requests = -5 }, "must be positive, got -5"},
		{"nil_arenas", false, func(rc *RunConfig) { rc.Arenas = nil }, "start from DefaultRunConfig"},
	}
	for _, e := range entries {
		for _, in := range inputs {
			if in.apps && !e.apps {
				continue
			}
			t.Run(e.name+"/"+in.name, func(t *testing.T) {
				rc := QuickRunConfig()
				in.edit(&rc)
				if err := e.sweep(rc); err == nil || !strings.Contains(err.Error(), in.want) {
					t.Fatalf("err = %v, want one containing %q", err, in.want)
				}
			})
		}
	}
}
