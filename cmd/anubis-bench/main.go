// Command anubis-bench regenerates the paper's evaluation artifacts:
// Table 1 and Figures 5, 7, 10, 11, 12 and 13, plus the headline
// recovery comparison.
//
// Simulation cells — each (scheme, app, cache-size) run — fan out on
// the parallel evaluation engine (internal/parallel); the output is
// identical for every -parallel value (see DESIGN.md § Parallel
// evaluation).
//
// Usage:
//
//	anubis-bench -all                 # everything (minutes)
//	anubis-bench -fig10 -n 40000      # one figure at a given scale
//	anubis-bench -fig10 -apps mcf,lbm # restrict the benchmark list
//	anubis-bench -all -parallel 8     # 8 concurrent simulation cells
//	anubis-bench -all -json perf/     # write BENCH_<ts>.json report
//	anubis-bench -recovery -trials 200  # crash-point sweep off one warm fork
//	anubis-bench -suite -json results/  # PR-tracking benchmark matrix (make bench-json)
//
// Observability (see DESIGN.md § Observability):
//
//	anubis-bench -all -metrics-addr :9090        # live Prometheus /metrics + /vars
//	anubis-bench -fig10 -trace-events out.json   # Chrome trace of sampled requests
//	anubis-bench -fig10 -trace-events out.json -trace-sample 1  # every request
//
// Profiling (for performance work on the simulator itself):
//
//	anubis-bench -fig10 -cpuprofile cpu.pprof   # go tool pprof cpu.pprof
//	anubis-bench -fig10 -memprofile mem.pprof   # allocation profile
//	anubis-bench -fig10 -trace trace.out        # go tool trace trace.out
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	rtrace "runtime/trace"
	"strings"
	"time"

	"anubis/internal/figures"
	"anubis/internal/memctrl"
	"anubis/internal/obs"
	"anubis/internal/recmodel"
)

func main() {
	var (
		all      = flag.Bool("all", false, "run every table and figure")
		table1   = flag.Bool("table1", false, "print Table 1 (system configuration)")
		fig5     = flag.Bool("fig5", false, "Figure 5: Osiris recovery time vs memory size")
		fig7     = flag.Bool("fig7", false, "Figure 7: clean counter-cache evictions per app")
		fig10    = flag.Bool("fig10", false, "Figure 10: AGIT performance")
		fig11    = flag.Bool("fig11", false, "Figure 11: ASIT performance")
		fig12    = flag.Bool("fig12", false, "Figure 12: Anubis recovery time vs cache size")
		fig13    = flag.Bool("fig13", false, "Figure 13: performance sensitivity to cache size")
		headline = flag.Bool("headline", false, "headline recovery comparison")
		ablation = flag.Bool("ablations", false, "design-choice ablations (stop-loss, recovery backend, endurance)")
		recovery = flag.Bool("recovery", false, "recovery-time distribution from many crash points (forked warm state)")
		suite    = flag.Bool("suite", false,
			"run the PR-tracking benchmark matrix (quick+full scale, seq+parallel, forked-vs-cold recovery sweep) — see `make bench-json`")
		trials = flag.Int("trials", 100,
			"crash points per recovery sweep (forking a warm controller makes 10x the old per-trial-fill count affordable)")
		n     = flag.Int("n", 40000, "requests per (app, scheme) simulation")
		epoch = flag.Int("epoch", 0,
			"epoch pipeline window in write requests (coalesced integrity-tree updates); 0 or 1 = legacy eager path, byte-identical to pre-epoch builds")
		mem     = flag.Uint64("mem", 256<<20, "simulated memory bytes for performance runs")
		apps    = flag.String("apps", "", "comma-separated app subset (default: all 11)")
		seed    = flag.Int64("seed", 99, "trace generator seed")
		workers = flag.Int("parallel", runtime.GOMAXPROCS(0),
			"concurrent simulation cells (1 = sequential legacy path; output is identical for any value)")
		jsonOut = flag.String("json", "",
			"write a machine-readable benchmark report; a directory (or trailing slash) gets BENCH_<timestamp>.json")
		cpuProfile = flag.String("cpuprofile", "", "write a CPU profile to this file")
		memProfile = flag.String("memprofile", "", "write an allocation profile to this file at exit")
		traceOut   = flag.String("trace", "", "write a runtime execution trace to this file")

		metricsAddr = flag.String("metrics-addr", "",
			"serve live telemetry on this address while the run executes (/metrics Prometheus text, /vars JSON)")
		traceEvents = flag.String("trace-events", "",
			"write sampled simulation events (requests with stall attribution, evictions, commits, recovery) as Chrome trace-event JSON to this file")
		traceSample = flag.Int("trace-sample", 64,
			"with -trace-events, record every Nth request per cell (1 = all; structural events are never sampled out)")
	)
	flag.Parse()

	if *cpuProfile != "" {
		f, err := os.Create(*cpuProfile)
		if err != nil {
			fmt.Fprintln(os.Stderr, "anubis-bench:", err)
			os.Exit(1)
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintln(os.Stderr, "anubis-bench:", err)
			os.Exit(1)
		}
		defer pprof.StopCPUProfile()
	}
	if *traceOut != "" {
		f, err := os.Create(*traceOut)
		if err != nil {
			fmt.Fprintln(os.Stderr, "anubis-bench:", err)
			os.Exit(1)
		}
		defer f.Close()
		if err := rtrace.Start(f); err != nil {
			fmt.Fprintln(os.Stderr, "anubis-bench:", err)
			os.Exit(1)
		}
		defer rtrace.Stop()
	}
	if *memProfile != "" {
		defer func() {
			f, err := os.Create(*memProfile)
			if err != nil {
				fmt.Fprintln(os.Stderr, "anubis-bench:", err)
				return
			}
			defer f.Close()
			runtime.GC()
			if err := pprof.Lookup("allocs").WriteTo(f, 0); err != nil {
				fmt.Fprintln(os.Stderr, "anubis-bench:", err)
			}
		}()
	}

	rc := figures.DefaultRunConfig()
	rc.Requests = *n
	rc.MemoryBytes = *mem
	rc.Seed = *seed
	rc.Parallel = *workers
	rc.Epoch = *epoch
	if *apps != "" {
		rc.Apps = strings.Split(*apps, ",")
	}

	any := false
	out := os.Stdout
	fail := func(err error) {
		fmt.Fprintln(os.Stderr, "anubis-bench:", err)
		os.Exit(1)
	}
	rep := newReport(*workers, *n, *mem, *seed, rc.Apps)

	// Observability: a cell observer always aggregates the per-component
	// stall ledger into the JSON report; -metrics-addr additionally
	// publishes it live, and -trace-events records sampled probe events.
	watch := newCellWatch()
	if *metricsAddr != "" {
		tel := obs.NewTelemetry()
		msrv, err := obs.Serve(*metricsAddr, tel)
		if err != nil {
			fail(err)
		}
		defer msrv.Close()
		watch.tel = tel
		bound := msrv.Addr()
		fmt.Fprintf(out, "telemetry: http://%s/metrics (Prometheus), http://%s/vars (JSON)\n", bound, bound)
	}
	var tracer *obs.Tracer
	if *traceEvents != "" {
		if *traceSample < 1 {
			fail(fmt.Errorf("-trace-sample must be >= 1 (got %d)", *traceSample))
		}
		tracer = obs.NewTracer(*traceSample)
	}
	hooks := func(rc *figures.RunConfig) {
		rc.OnCell = watch.observe
		rc.Trace = tracer
	}
	hooks(&rc)
	// finishObs folds the aggregated attribution into the report and
	// flushes the event trace; called once before any report is written.
	finishObs := func() {
		watch.finish(rep)
		if tracer == nil {
			return
		}
		f, err := os.Create(*traceEvents)
		if err != nil {
			fail(err)
		}
		if err := tracer.WriteJSON(f); err != nil {
			f.Close()
			fail(err)
		}
		if err := f.Close(); err != nil {
			fail(err)
		}
		fmt.Fprintf(out, "wrote %d trace events to %s\n", tracer.Len(), *traceEvents)
	}

	if *suite {
		if err := runSuite(rep, out, *seed, *trials, hooks); err != nil {
			fail(err)
		}
		finishObs()
		fmt.Fprintf(out, "total: %.0f ms wall, %d simulation cells\n", rep.TotalWallMS, rep.TotalCells)
		if *jsonOut != "" {
			path := resolvePath(*jsonOut, time.Now())
			if err := rep.write(path); err != nil {
				fail(err)
			}
			fmt.Fprintf(out, "wrote %s\n", path)
		}
		return
	}

	section := func(name string, cells int, fn func() (map[string]float64, error)) {
		any = true
		if err := rep.record(name, cells, fn); err != nil {
			fail(err)
		}
		fmt.Fprintln(out)
	}
	nApps := rc.NumApps()

	if *all || *table1 {
		section("table1", 0, func() (map[string]float64, error) {
			figures.Table1(out)
			return nil, nil
		})
	}
	if *all || *fig5 {
		section("fig5", 0, func() (map[string]float64, error) {
			figures.PrintFig5(out)
			rows := figures.Fig5()
			return map[string]float64{
				"osiris_8tb_recovery_s": recmodel.Seconds(rows[len(rows)-1].NS),
			}, nil
		})
	}
	if *all || *fig7 {
		section("fig7", nApps, func() (map[string]float64, error) {
			rows, err := figures.Fig7(rc)
			if err != nil {
				return nil, err
			}
			figures.PrintFig7Rows(out, rows)
			var mean float64
			for _, r := range rows {
				mean += r.CleanFrac / float64(len(rows))
			}
			return map[string]float64{"mean_clean_frac": mean}, nil
		})
	}
	if *all || *fig10 {
		section("fig10", nApps*len(figures.Fig10Schemes), func() (map[string]float64, error) {
			rows, avg, err := figures.Fig10(rc)
			if err != nil {
				return nil, err
			}
			figures.PrintPerf(out, "Figure 10: AGIT Performance (normalized to write-back)", rows, avg, figures.Fig10Schemes)
			return avgMetrics(avg), nil
		})
	}
	if *all || *fig11 {
		section("fig11", nApps*len(figures.Fig11Schemes), func() (map[string]float64, error) {
			rows, avg, err := figures.Fig11(rc)
			if err != nil {
				return nil, err
			}
			figures.PrintPerf(out, "Figure 11: ASIT Performance (normalized to write-back)", rows, avg, figures.Fig11Schemes)
			return avgMetrics(avg), nil
		})
	}
	if *all || *fig12 {
		section("fig12", 0, func() (map[string]float64, error) {
			figures.PrintFig12(out)
			return nil, nil
		})
	}
	if *all || *fig13 {
		// 5 sizes × apps × (2 write-back baselines + 3 schemes).
		section("fig13", 5*nApps*(2+len(figures.Fig13Schemes)), func() (map[string]float64, error) {
			return nil, figures.PrintFig13(out, rc)
		})
	}
	if *all || *ablation {
		section("ablation_stoploss", 5, func() (map[string]float64, error) {
			return nil, figures.PrintAblationStopLoss(out, rc)
		})
		section("ablation_backend", 2, func() (map[string]float64, error) {
			return nil, figures.PrintAblationRecoveryBackend(out, rc)
		})
		section("ablation_endurance", 7, func() (map[string]float64, error) {
			return nil, figures.PrintAblationEndurance(out, rc)
		})
		section("ablation_triad", 4, func() (map[string]float64, error) {
			return nil, figures.PrintAblationTriad(out, rc)
		})
	}
	if *all || *recovery {
		// One fill per scheme plus trials × (window + recovery); the
		// fills are the only whole-trace simulations, so the cell count
		// reported is 2 (AGIT-Plus + ASIT warm-ups).
		section("recovery_sweep", 2, func() (map[string]float64, error) {
			return nil, figures.PrintRecoverySweep(out, rc, *trials)
		})
	}
	if *all || *headline {
		section("headline", 0, func() (map[string]float64, error) {
			figures.PrintHeadline(out)
			osiris := recmodel.OsirisFullNS(8<<40, 1.05)
			agit := recmodel.AGITNS(256<<10, 256<<10)
			return map[string]float64{
				"agit_speedup": recmodel.Speedup(osiris, agit),
			}, nil
		})
	}
	if !any {
		flag.Usage()
		os.Exit(2)
	}
	finishObs()

	fmt.Fprintf(out, "total: %.0f ms wall, %d simulation cells, parallel=%d\n",
		rep.TotalWallMS, rep.TotalCells, *workers)
	if *jsonOut != "" {
		path := resolvePath(*jsonOut, time.Now())
		if err := rep.write(path); err != nil {
			fail(err)
		}
		fmt.Fprintf(out, "wrote %s\n", path)
	}
}

// avgMetrics flattens a per-scheme average map into JSON metric keys.
func avgMetrics(avg map[memctrl.Scheme]float64) map[string]float64 {
	m := make(map[string]float64, len(avg))
	for _, s := range figures.SortSchemes(avg) {
		m["avg_"+s.String()] = avg[s]
	}
	return m
}
