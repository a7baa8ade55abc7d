package figures

import (
	"fmt"
	"io"

	"anubis/internal/memctrl"
	"anubis/internal/recmodel"
	"anubis/internal/trace"
)

// This file contains ablations of the design choices DESIGN.md calls
// out — experiments the paper motivates but does not plot:
//
//   - stop-loss limit sweep (the Osiris run-time/recovery-time knob),
//   - ECC-trial vs phase-bits counter recovery (the §2.4 alternatives),
//   - write endurance per scheme (the paper's lifetime argument:
//     "[strict persistence] causes at least an additional ten writes
//     per memory write operation, which can significantly reduce the
//     lifetime of NVMs", §6.2),
//   - Triad-NVM's persisted-levels knob (the §7 contrast).
//
// All four run on libquantum, a write-heavy workload; Sweep runs them
// with TableAblations.

// AblationTables holds the four ablation tables.
type AblationTables struct {
	StopLoss  []StopLossRow  `json:"stop_loss"`
	Backend   []BackendRow   `json:"backend"`
	Endurance []EnduranceRow `json:"endurance"`
	Triad     []TriadRow     `json:"triad"`
}

// StopLossRow is one point of the stop-loss sweep.
type StopLossRow struct {
	StopLoss       int     `json:"stop_loss"`
	Normalized     float64 `json:"normalized"`       // exec time vs write-back
	StopLossWrites uint64  `json:"stop_loss_writes"` // extra counter persists at run time
	RecoveryCrypto uint64  `json:"recovery_crypto"`  // decrypt+check trials during recovery
}

// BackendRow compares the two counter-recovery backends.
type BackendRow struct {
	Backend        memctrl.CounterRecovery `json:"backend"`
	Normalized     float64                 `json:"normalized"`
	StopLossWrites uint64                  `json:"stop_loss_writes"`
	RecoveryOps    uint64                  `json:"recovery_ops"`
}

// EnduranceRow is one scheme's write-endurance footprint.
type EnduranceRow struct {
	Scheme           memctrl.Scheme `json:"scheme"`
	Family           memctrl.Family `json:"family"`
	WearLeveled      bool           `json:"wear_leveled"`
	WritesPerRequest float64        `json:"writes_per_request"` // NVM writes per CPU write request
	HottestWear      uint64         `json:"hottest_wear"`       // writes absorbed by the hottest block
	LifetimeFactor   float64        `json:"lifetime_factor"`    // write-back hottest wear / this hottest wear
}

// TriadRow is one point of the Triad-NVM resilience sweep.
type TriadRow struct {
	Levels       int     `json:"levels"`
	Normalized   float64 `json:"normalized"`     // exec time vs write-back
	Recovery8TBS float64 `json:"recovery_8tb_s"` // analytic recovery seconds at 8 TB
	MeasuredOps  uint64  `json:"measured_ops"`   // executed recovery ops at test scale
}

// ablations declares the four ablation tables. The write-back
// baseline, which three tables normalize to and the endurance table
// lists, Osiris at Table 1's stop-loss limit, and AGIT-Plus with ECC
// recovery are each read by more than one table, so the tables' 32
// reads take 27 cells; six of them (write-back, osiris, agit-read,
// agit-plus, strict and asit at Table 1's configuration) are also Fig
// 10 and Fig 11 cells.
func (p *plan) ablations(t *AblationTables) {
	prof, _ := trace.ByName("libquantum")
	bonsai := memctrl.FamilyBonsai
	base := p.cell(cellKey{fam: bonsai, cfg: p.rc.config(memctrl.SchemeWriteBack), prof: prof})
	// point returns a general-tree scheme's run and crash-recovery cells
	// with one knob set.
	point := func(s memctrl.Scheme, knob func(*memctrl.Config)) (run, rec *cellOut) {
		cfg := p.rc.config(s)
		knob(&cfg)
		return p.cell(cellKey{fam: bonsai, cfg: cfg, prof: prof}), p.cell(cellKey{fam: bonsai, cfg: cfg, prof: prof, recovery: true})
	}

	// The Osiris stop-loss limit: run-time persists against recovery
	// trials.
	for _, sl := range []int{1, 2, 4, 8, 16} {
		run, rec := point(memctrl.SchemeOsiris, func(c *memctrl.Config) { c.StopLoss = sl })
		p.rows = append(p.rows, func() {
			t.StopLoss = append(t.StopLoss, StopLossRow{
				StopLoss:       sl,
				Normalized:     run.res.Normalized(base.res),
				StopLossWrites: run.res.Stats.StopLossWrites,
				RecoveryCrypto: rec.rep.CryptoOps,
			})
		})
	}
	// ECC-trial recovery (Osiris proper) against phase-bit recovery
	// (§2.4's data-bus extension) under AGIT-Plus.
	for _, backend := range []memctrl.CounterRecovery{memctrl.RecoveryECC, memctrl.RecoveryPhase} {
		run, rec := point(memctrl.SchemeAGITPlus, func(c *memctrl.Config) { c.Recovery = backend })
		p.rows = append(p.rows, func() {
			t.Backend = append(t.Backend, BackendRow{
				Backend:        backend,
				Normalized:     run.res.Normalized(base.res),
				StopLossWrites: run.res.Stats.StopLossWrites,
				RecoveryOps:    rec.rep.FetchOps + rec.rep.CryptoOps,
			})
		})
	}
	// NVM write amplification and hot-spot wear per scheme: the paper's
	// lifetime argument quantified. Lifetime is relative to the first
	// row, write-back without leveling, whose cell is the baseline; a
	// factor below 1 means the scheme wears the device out faster.
	for _, e := range []struct {
		s    memctrl.Scheme
		f    memctrl.Family
		wear int // Start-Gap period; 0 = no leveling
	}{
		{memctrl.SchemeWriteBack, bonsai, 0},
		{memctrl.SchemeOsiris, bonsai, 0},
		{memctrl.SchemeAGITRead, bonsai, 0},
		{memctrl.SchemeAGITPlus, bonsai, 0},
		{memctrl.SchemeAGITPlus, bonsai, 64},
		{memctrl.SchemeStrict, bonsai, 0},
		{memctrl.SchemeASIT, memctrl.FamilySGX, 0},
	} {
		cfg := p.rc.config(e.s)
		cfg.WearPeriod = e.wear
		run := p.cell(cellKey{fam: e.f, cfg: cfg, prof: prof})
		run.readWear = true
		p.rows = append(p.rows, func() {
			row := EnduranceRow{
				Scheme:           e.s,
				Family:           e.f,
				WearLeveled:      e.wear > 0,
				WritesPerRequest: run.res.WritesPerRequest(),
				HottestWear:      run.wear,
			}
			if run.wear > 0 {
				row.LifetimeFactor = float64(base.wear) / float64(run.wear)
			}
			t.Endurance = append(t.Endurance, row)
		})
	}
	// Triad-NVM's persisted levels, the trade-off the paper contrasts
	// Anubis against (§7): each level costs run-time writes and divides
	// the remaining rebuild work by the tree arity, but recovery stays
	// memory-bound at every setting.
	for _, levels := range []int{0, 1, 2, 3} {
		run, rec := point(memctrl.SchemeTriad, func(c *memctrl.Config) { c.TriadLevels = levels })
		p.rows = append(p.rows, func() {
			t.Triad = append(t.Triad, TriadRow{
				Levels:       levels,
				Normalized:   run.res.Normalized(base.res),
				Recovery8TBS: recmodel.Seconds(recmodel.TriadNS(8<<40, levels)),
				MeasuredOps:  rec.rep.FetchOps + rec.rep.CryptoOps,
			})
		})
	}
}

// PrintAblations renders the four tables, one blank line apart. The
// Triad table ends with the Anubis row for contrast: its analytic 8 TB
// recovery. That row prints no normalized time; the backend table's ecc
// row is AGIT-Plus's.
func PrintAblations(w io.Writer, t AblationTables) {
	fmt.Fprintln(w, "Ablation: Osiris stop-loss limit (libquantum)")
	fmt.Fprintf(w, "  %-10s %12s %16s %16s\n", "stop-loss", "normalized", "extra persists", "recovery trials")
	for _, r := range t.StopLoss {
		fmt.Fprintf(w, "  %-10d %12.3f %16d %16d\n", r.StopLoss, r.Normalized, r.StopLossWrites, r.RecoveryCrypto)
	}

	fmt.Fprintln(w)
	fmt.Fprintln(w, "Ablation: counter-recovery backend (AGIT-Plus, libquantum)")
	fmt.Fprintf(w, "  %-8s %12s %16s %14s\n", "backend", "normalized", "extra persists", "recovery ops")
	for _, r := range t.Backend {
		fmt.Fprintf(w, "  %-8s %12.3f %16d %14d\n", r.Backend, r.Normalized, r.StopLossWrites, r.RecoveryOps)
	}

	fmt.Fprintln(w)
	fmt.Fprintln(w, "Ablation: NVM write endurance (libquantum; lifetime relative to write-back)")
	fmt.Fprintf(w, "  %-15s %-8s %14s %14s %12s\n", "scheme", "tree", "writes/req", "hottest wear", "lifetime ×")
	for _, r := range t.Endurance {
		name := r.Scheme.String()
		if r.WearLeveled {
			name += "+wl"
		}
		fmt.Fprintf(w, "  %-15s %-8s %14.2f %14d %12.3f\n",
			name, r.Family, r.WritesPerRequest, r.HottestWear, r.LifetimeFactor)
	}

	fmt.Fprintln(w)
	fmt.Fprintln(w, "Ablation: Triad-NVM persisted levels (libquantum; recovery at 8 TB, analytic)")
	fmt.Fprintf(w, "  %-10s %12s %16s %14s\n", "levels", "normalized", "recovery@8TB", "measured ops")
	for _, r := range t.Triad {
		fmt.Fprintf(w, "  %-10d %12.3f %16s %14d\n",
			r.Levels, r.Normalized, recmodel.FormatDuration(uint64(r.Recovery8TBS*1e9)), r.MeasuredOps)
	}
	fmt.Fprintf(w, "  %-10s %12s %16s\n", "anubis", "-",
		recmodel.FormatDuration(recmodel.AGITNS(256<<10, 256<<10)))
}
