package main

import (
	"fmt"
	"io"
	"runtime"
	"sync"

	"anubis/internal/figures"
	"anubis/internal/memctrl"
	"anubis/internal/sim"
)

// The -suite mode produces the PR-tracking benchmark record
// (results/BENCH_<pr>.json via `make bench-json`): a fixed matrix of
// figure sweeps — quick and full scale, sequential and parallel — plus
// a forked-vs-cold recovery-sweep comparison that measures what the
// copy-on-write fork layer buys end-to-end. scripts/bench_compare
// diffs two of these records.

// suiteQuick returns the reduced sweep configuration (3 apps, 2k
// requests): small enough to run in seconds, large enough to exercise
// evictions and WPQ pressure.
func suiteQuick(seed int64) figures.RunConfig {
	rc := figures.DefaultRunConfig()
	rc.Requests = 2000
	rc.Apps = []string{"mcf", "lbm", "libquantum"}
	rc.Seed = seed
	return rc
}

// suiteFull returns the paper-scale configuration: all 11 apps at 40k
// requests against 256 MB simulated memory.
func suiteFull(seed int64) figures.RunConfig {
	rc := figures.DefaultRunConfig()
	rc.Seed = seed
	return rc
}

// runSuite executes the benchmark matrix into rep. trials sizes the
// recovery sweeps; the cold sweep re-fills per trial, so its wall time
// grows linearly with trials while the forked sweep pays one fill.
// hooks applies the CLI's observability wiring (cell observer, event
// tracer) to every run configuration the suite constructs.
func runSuite(rep *Report, out io.Writer, seed int64, trials int, hooks func(*figures.RunConfig)) error {
	for _, scale := range []struct {
		label string
		rc    figures.RunConfig
	}{
		{"quick", suiteQuick(seed)},
		{"full", suiteFull(seed)},
	} {
		for _, par := range []struct {
			label   string
			workers int
		}{
			{"seq", 1},
			{"par", runtime.GOMAXPROCS(0)},
		} {
			rc := scale.rc
			rc.Parallel = par.workers
			hooks(&rc)
			name := scale.label + "_" + par.label
			nApps := rc.NumApps()
			if err := rep.record(name+":fig10", nApps*len(figures.Fig10Schemes), func() (map[string]float64, error) {
				_, avg, err := figures.Fig10(rc)
				if err != nil {
					return nil, err
				}
				return avgMetrics(avg), nil
			}); err != nil {
				return err
			}
			if scale.label == "quick" {
				if err := rep.record(name+":fig11", nApps*len(figures.Fig11Schemes), func() (map[string]float64, error) {
					_, avg, err := figures.Fig11(rc)
					if err != nil {
						return nil, err
					}
					return avgMetrics(avg), nil
				}); err != nil {
					return err
				}
			}
			fmt.Fprintf(out, "%s: done\n", name)
		}
	}

	// Epoch-pipeline sweep: the quick fig10 matrix at growing coalescing
	// windows, sequential so the records are directly comparable run to
	// run. epoch:1 is the determinism anchor — it must reproduce the
	// legacy quick_seq:fig10 metrics exactly (the pipeline's epoch<=1
	// bypass is byte-identical), which scripts/bench_compare's
	// -epoch-sweep mode enforces; the larger windows track what the
	// coalesced tree updates buy in simulated time (exec_ns_total).
	for _, e := range []int{1, 4, 16, 64} {
		erc := suiteQuick(seed)
		erc.Parallel = 1
		erc.Epoch = e
		hooks(&erc)
		var mu sync.Mutex
		var execTotal uint64
		inner := erc.OnCell
		erc.OnCell = func(res sim.Result) {
			if inner != nil {
				inner(res)
			}
			mu.Lock()
			execTotal += res.ExecNS
			mu.Unlock()
		}
		name := fmt.Sprintf("epoch:%d", e)
		if err := rep.record(name, erc.NumApps()*len(figures.Fig10Schemes), func() (map[string]float64, error) {
			_, avg, err := figures.Fig10(erc)
			if err != nil {
				return nil, err
			}
			m := avgMetrics(avg)
			mu.Lock()
			m["exec_ns_total"] = float64(execTotal)
			mu.Unlock()
			return m, nil
		}); err != nil {
			return err
		}
	}
	fmt.Fprintln(out, "epoch sweep: done")

	// Forked-vs-cold recovery sweep: identical trials (asserted by the
	// figures tests), so the wall-time ratio isolates the fork layer's
	// amortization of the warm-up fill. The shape mirrors the paper's
	// crash-injection runs — a long fill, then crash points scattered
	// over a short post-warm window — which is exactly where per-trial
	// cold restarts pay the fill over and over.
	rrc := suiteQuick(seed)
	rrc.Requests = 20000 // warm-up fill per trial (cold) or per sweep (forked)
	rrc.MemoryBytes = 32 << 20
	rrc.Apps = []string{"libquantum"}
	rrc.Parallel = runtime.GOMAXPROCS(0)
	hooks(&rrc)
	sweep := func(cold bool) (map[string]float64, error) {
		res, err := figures.RecoverySweep(figures.RecoverySweepConfig{
			Run:           rrc,
			Scheme:        memctrl.SchemeAGITPlus,
			Family:        sim.FamilyBonsai,
			Trials:        trials,
			ExtraPerTrial: 40,
			ColdStart:     cold,
		})
		if err != nil {
			return nil, err
		}
		_, mean, _ := res.ModeledRecoveryNS()
		m := map[string]float64{
			"trials":           float64(len(res.Trials)),
			"mean_recovery_ns": float64(mean),
		}
		// Per-phase breakdown (sum-exact across the sweep) as figure
		// metrics, and — forked sweep only, cold replays the identical
		// trials — the report-level aggregate bench_compare gates on.
		for name, ns := range res.PhaseTotals.Map() {
			m["phase_ns_"+name] = float64(ns)
		}
		if !cold {
			rep.addRecoveryPhases(&res.PhaseTotals, len(res.Trials))
		}
		return m, nil
	}
	if err := rep.record("recovery_forked", 1, func() (map[string]float64, error) { return sweep(false) }); err != nil {
		return err
	}
	if err := rep.record("recovery_cold", trials, func() (map[string]float64, error) { return sweep(true) }); err != nil {
		return err
	}

	// Attach the headline ratio as its own zero-cost entry so
	// bench_compare and EXPERIMENTS.md can quote one number.
	var forkMS, coldMS float64
	for _, f := range rep.Figures {
		switch f.Name {
		case "recovery_forked":
			forkMS = f.WallMS
		case "recovery_cold":
			coldMS = f.WallMS
		}
	}
	if err := rep.record("recovery_fork_speedup", 0, func() (map[string]float64, error) {
		m := map[string]float64{"fork_ms": forkMS, "cold_ms": coldMS}
		if forkMS > 0 {
			m["speedup"] = coldMS / forkMS
		}
		return m, nil
	}); err != nil {
		return err
	}
	fmt.Fprintf(out, "recovery sweep (%d trials): forked %.0f ms vs cold %.0f ms (%.1fx)\n",
		trials, forkMS, coldMS, coldMS/forkMS)
	return nil
}
