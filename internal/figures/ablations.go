package figures

import (
	"fmt"
	"io"

	"anubis/internal/memctrl"
	"anubis/internal/parallel"
	"anubis/internal/recmodel"
	"anubis/internal/sim"
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
//     lifetime of NVMs", §6.2).

// StopLossRow is one point of the stop-loss sweep.
type StopLossRow struct {
	StopLoss       int     `json:"stop_loss"`
	Normalized     float64 `json:"normalized"`       // exec time vs write-back
	StopLossWrites uint64  `json:"stop_loss_writes"` // extra counter persists at run time
	RecoveryCrypto uint64  `json:"recovery_crypto"`  // decrypt+check trials during recovery
}

// AblationStopLoss sweeps the Osiris stop-loss limit on a write-heavy
// workload, exposing the run-time-cost vs recovery-trials trade-off.
// The write-back baseline runs once; then each stop-loss point (Osiris
// run + reduced-scale crash/recovery) is one independent cell, and the
// points run concurrently.
func AblationStopLoss(rc RunConfig) ([]StopLossRow, error) {
	if err := rc.check(); err != nil {
		return nil, err
	}
	prof, _ := trace.ByName("libquantum")
	_, base, err := rc.run(memctrl.FamilyBonsai, rc.config(memctrl.SchemeWriteBack), prof)
	if err != nil {
		return nil, err
	}
	limits := []int{1, 2, 4, 8, 16}
	return parallel.Map(rc.pool(), len(limits), func(i int) (StopLossRow, error) {
		sl := limits[i]
		cfg := rc.config(memctrl.SchemeOsiris)
		cfg.StopLoss = sl
		_, res, err := rc.run(memctrl.FamilyBonsai, cfg, prof)
		if err != nil {
			return StopLossRow{}, err
		}
		// Measure recovery trials at a reduced scale.
		rep, err := rc.miniRecovery(cfg, prof)
		if err != nil {
			return StopLossRow{}, err
		}
		return StopLossRow{
			StopLoss:       sl,
			Normalized:     res.Normalized(base),
			StopLossWrites: res.Stats.StopLossWrites,
			RecoveryCrypto: rep.CryptoOps,
		}, nil
	})
}

// miniRecovery runs 3000 requests on a fresh 16 MiB Bonsai controller,
// crashes it, and returns the recovery report. The warm-up, crash, and
// recovery are inherently sequential within one cell; the warm-up
// stream comes from the shared arena (scaled profiles have their own
// arena key, so all stop-loss/backend/triad points share one
// materialization).
func (rc RunConfig) miniRecovery(cfg memctrl.Config, prof trace.Profile) (*memctrl.RecoveryReport, error) {
	rc.Requests = 3000
	cfg.MemoryBytes = 16 << 20
	return rc.recoverAfter(memctrl.FamilyBonsai, cfg, prof.Scaled(cfg.MemoryBytes/64))
}

// PrintAblationStopLoss renders the sweep.
func PrintAblationStopLoss(w io.Writer, rc RunConfig) error {
	rows, err := AblationStopLoss(rc)
	if err != nil {
		return err
	}
	fmt.Fprintln(w, "Ablation: Osiris stop-loss limit (libquantum)")
	fmt.Fprintf(w, "  %-10s %12s %16s %16s\n", "stop-loss", "normalized", "extra persists", "recovery trials")
	for _, r := range rows {
		fmt.Fprintf(w, "  %-10d %12.3f %16d %16d\n", r.StopLoss, r.Normalized, r.StopLossWrites, r.RecoveryCrypto)
	}
	return nil
}

// BackendRow compares the two counter-recovery backends.
type BackendRow struct {
	Backend        memctrl.CounterRecovery `json:"backend"`
	Normalized     float64                 `json:"normalized"`
	StopLossWrites uint64                  `json:"stop_loss_writes"`
	RecoveryOps    uint64                  `json:"recovery_ops"`
}

// AblationRecoveryBackend compares ECC-trial recovery (Osiris proper)
// against phase-bit recovery (§2.4's data-bus extension) under the
// AGIT-Plus scheme.
func AblationRecoveryBackend(rc RunConfig) ([]BackendRow, error) {
	if err := rc.check(); err != nil {
		return nil, err
	}
	prof, _ := trace.ByName("libquantum")
	_, base, err := rc.run(memctrl.FamilyBonsai, rc.config(memctrl.SchemeWriteBack), prof)
	if err != nil {
		return nil, err
	}
	backends := []memctrl.CounterRecovery{memctrl.RecoveryECC, memctrl.RecoveryPhase}
	return parallel.Map(rc.pool(), len(backends), func(i int) (BackendRow, error) {
		backend := backends[i]
		cfg := rc.config(memctrl.SchemeAGITPlus)
		cfg.Recovery = backend
		_, res, err := rc.run(memctrl.FamilyBonsai, cfg, prof)
		if err != nil {
			return BackendRow{}, err
		}
		rep, err := rc.miniRecovery(cfg, prof)
		if err != nil {
			return BackendRow{}, err
		}
		return BackendRow{
			Backend:        backend,
			Normalized:     res.Normalized(base),
			StopLossWrites: res.Stats.StopLossWrites,
			RecoveryOps:    rep.FetchOps + rep.CryptoOps,
		}, nil
	})
}

// PrintAblationRecoveryBackend renders the comparison.
func PrintAblationRecoveryBackend(w io.Writer, rc RunConfig) error {
	rows, err := AblationRecoveryBackend(rc)
	if err != nil {
		return err
	}
	fmt.Fprintln(w, "Ablation: counter-recovery backend (AGIT-Plus, libquantum)")
	fmt.Fprintf(w, "  %-8s %12s %16s %14s\n", "backend", "normalized", "extra persists", "recovery ops")
	for _, r := range rows {
		fmt.Fprintf(w, "  %-8s %12.3f %16d %14d\n", r.Backend, r.Normalized, r.StopLossWrites, r.RecoveryOps)
	}
	return nil
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

// AblationEndurance measures NVM write amplification and hot-spot wear
// per scheme on a write-heavy workload: the paper's lifetime argument
// quantified. LifetimeFactor < 1 means the scheme wears the device out
// faster than plain write-back.
func AblationEndurance(rc RunConfig) ([]EnduranceRow, error) {
	if err := rc.check(); err != nil {
		return nil, err
	}
	prof, _ := trace.ByName("libquantum")
	type entry struct {
		s    memctrl.Scheme
		f    memctrl.Family
		wear int // Start-Gap period; 0 = no leveling
	}
	entries := []entry{
		{memctrl.SchemeWriteBack, memctrl.FamilyBonsai, 0},
		{memctrl.SchemeOsiris, memctrl.FamilyBonsai, 0},
		{memctrl.SchemeAGITRead, memctrl.FamilyBonsai, 0},
		{memctrl.SchemeAGITPlus, memctrl.FamilyBonsai, 0},
		{memctrl.SchemeAGITPlus, memctrl.FamilyBonsai, 64},
		{memctrl.SchemeStrict, memctrl.FamilyBonsai, 0},
		{memctrl.SchemeASIT, memctrl.FamilySGX, 0},
	}
	// Every entry's simulation is independent; only the lifetime factor
	// references entry 0's wear, so the runs fan out and the factors are
	// computed in a sequential reduction afterwards.
	type measured struct {
		res  sim.Result
		wear uint64
	}
	results, err := parallel.Map(rc.pool(), len(entries), func(i int) (measured, error) {
		e := entries[i]
		cfg := rc.config(e.s)
		cfg.WearPeriod = e.wear
		ctrl, res, err := rc.run(e.f, cfg, prof)
		if err != nil {
			return measured{}, err
		}
		_, _, wear := ctrl.Device().MaxWearAll()
		return measured{res: res, wear: wear}, nil
	})
	if err != nil {
		return nil, err
	}
	var rows []EnduranceRow
	baseWear := results[0].wear
	for i, e := range entries {
		m := results[i]
		lf := 0.0
		if m.wear > 0 {
			lf = float64(baseWear) / float64(m.wear)
		}
		rows = append(rows, EnduranceRow{
			Scheme:           e.s,
			Family:           e.f,
			WearLeveled:      e.wear > 0,
			WritesPerRequest: m.res.WritesPerRequest(),
			HottestWear:      m.wear,
			LifetimeFactor:   lf,
		})
	}
	return rows, nil
}

// PrintAblationEndurance renders the endurance table.
func PrintAblationEndurance(w io.Writer, rc RunConfig) error {
	rows, err := AblationEndurance(rc)
	if err != nil {
		return err
	}
	fmt.Fprintln(w, "Ablation: NVM write endurance (libquantum; lifetime relative to write-back)")
	fmt.Fprintf(w, "  %-15s %-8s %14s %14s %12s\n", "scheme", "tree", "writes/req", "hottest wear", "lifetime ×")
	for _, r := range rows {
		name := r.Scheme.String()
		if r.WearLeveled {
			name += "+wl"
		}
		fmt.Fprintf(w, "  %-15s %-8s %14.2f %14d %12.3f\n",
			name, r.Family, r.WritesPerRequest, r.HottestWear, r.LifetimeFactor)
	}
	return nil
}

// TriadRow is one point of the Triad-NVM resilience sweep.
type TriadRow struct {
	Levels       int     `json:"levels"`
	Normalized   float64 `json:"normalized"`     // exec time vs write-back
	Recovery8TBS float64 `json:"recovery_8tb_s"` // analytic recovery seconds at 8 TB
	MeasuredOps  uint64  `json:"measured_ops"`   // executed recovery ops at test scale
}

// AblationTriad sweeps the Triad-NVM persisted-levels knob, exposing
// the resilience/recovery/performance trade-off the paper contrasts
// Anubis against (§7): each persisted level costs run-time writes and
// divides the remaining rebuild work by the tree arity — but recovery
// stays memory-bound at every setting.
func AblationTriad(rc RunConfig) ([]TriadRow, error) {
	if err := rc.check(); err != nil {
		return nil, err
	}
	prof, _ := trace.ByName("libquantum")
	_, base, err := rc.run(memctrl.FamilyBonsai, rc.config(memctrl.SchemeWriteBack), prof)
	if err != nil {
		return nil, err
	}
	allLevels := []int{0, 1, 2, 3}
	return parallel.Map(rc.pool(), len(allLevels), func(i int) (TriadRow, error) {
		levels := allLevels[i]
		cfg := rc.config(memctrl.SchemeTriad)
		cfg.TriadLevels = levels
		_, res, err := rc.run(memctrl.FamilyBonsai, cfg, prof)
		if err != nil {
			return TriadRow{}, err
		}
		rep, err := rc.miniRecovery(cfg, prof)
		if err != nil {
			return TriadRow{}, err
		}
		return TriadRow{
			Levels:       levels,
			Normalized:   res.Normalized(base),
			Recovery8TBS: recmodel.Seconds(recmodel.TriadNS(8<<40, levels)),
			MeasuredOps:  rep.FetchOps + rep.CryptoOps,
		}, nil
	})
}

// PrintAblationTriad renders the sweep, with the Anubis row for
// contrast: its analytic 8 TB recovery. This sweep runs no Anubis
// cell, so the row prints no normalized time (Fig 10's AGIT-Plus
// column has it).
func PrintAblationTriad(w io.Writer, rc RunConfig) error {
	rows, err := AblationTriad(rc)
	if err != nil {
		return err
	}
	fmt.Fprintln(w, "Ablation: Triad-NVM persisted levels (libquantum; recovery at 8 TB, analytic)")
	fmt.Fprintf(w, "  %-10s %12s %16s %14s\n", "levels", "normalized", "recovery@8TB", "measured ops")
	for _, r := range rows {
		fmt.Fprintf(w, "  %-10d %12.3f %16s %14d\n",
			r.Levels, r.Normalized, recmodel.FormatDuration(uint64(r.Recovery8TBS*1e9)), r.MeasuredOps)
	}
	fmt.Fprintf(w, "  %-10s %12s %16s\n", "anubis", "-",
		recmodel.FormatDuration(recmodel.AGITNS(256<<10, 256<<10)))
	return nil
}
