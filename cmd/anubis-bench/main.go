// Command anubis-bench regenerates the paper's evaluation artifacts:
// Table 1 and Figures 5, 7, 10, 11, 12 and 13, plus the headline
// recovery comparison.
//
// The selected figures and ablations are one sweep (figures.Sweep):
// its simulation cells — each (scheme, app, cache-size) run — fan out
// on the parallel evaluation engine (internal/parallel), and a cell
// that two tables read runs once; the output is identical for every
// -parallel value (see DESIGN.md § Parallel evaluation).
//
// Usage:
//
//	anubis-bench -all                 # everything (about 5 s on 2 cores)
//	anubis-bench -fig10 -n 40000      # one figure at a given scale
//	anubis-bench -fig10 -apps mcf,lbm # restrict the benchmark list
//	anubis-bench -all -parallel 8     # 8 concurrent simulation cells
//	anubis-bench -recovery -trials 200  # crash points forked off one advancing warm controller
//
// The seed-99 numbers these tables print are pinned by the golden test
// in internal/figures (TestGoldenSeed99).
//
// Observability (see DESIGN.md § Observability):
//
//	anubis-bench -all -metrics-addr :9090        # live Prometheus /metrics
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
	"sync/atomic"
	"time"

	"anubis/internal/figures"
	"anubis/internal/obs"
	"anubis/internal/sim"
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
		ablation = flag.Bool("ablations", false, "design-choice ablations (stop-loss, recovery backend, endurance, Triad persisted levels)")
		recovery = flag.Bool("recovery", false, "recovery-time distribution from many crash points (forked warm state)")
		trials   = flag.Int("trials", 100,
			"crash points per recovery sweep: one warm controller advances through them and each is forked off it, so a trial costs one stride of requests plus one recovery")
		n       = flag.Int("n", 40000, "requests per (app, scheme) simulation")
		mem     = flag.Uint64("mem", 256<<20, "simulated memory bytes for performance runs")
		apps    = flag.String("apps", "", "comma-separated app subset (default: all 11)")
		seed    = flag.Int64("seed", 99, "trace generator seed")
		workers = flag.Int("parallel", runtime.GOMAXPROCS(0),
			"concurrent simulation cells (1 = sequential legacy path; output is identical for any value)")
		cpuProfile = flag.String("cpuprofile", "", "write a CPU profile to this file")
		memProfile = flag.String("memprofile", "", "write an allocation profile to this file at exit")
		traceOut   = flag.String("trace", "", "write a runtime execution trace to this file")

		metricsAddr = flag.String("metrics-addr", "",
			"serve live telemetry on this address while the run executes (/metrics Prometheus text)")
		traceEvents = flag.String("trace-events", "",
			"write sampled simulation events (requests with stall attribution, evictions, commits, recovery) as Chrome trace-event JSON to this file")
		traceSample = flag.Int("trace-sample", 64,
			"with -trace-events, record every Nth request per cell (1 = all; structural events are never sampled out)")
	)
	flag.Parse()

	out := os.Stdout
	fail := func(err error) {
		fmt.Fprintln(os.Stderr, "anubis-bench:", err)
		os.Exit(1)
	}
	if *trials < 1 {
		fail(fmt.Errorf("-trials must be >= 1 (got %d)", *trials))
	}
	if *cpuProfile != "" {
		f, err := os.Create(*cpuProfile)
		if err != nil {
			fail(err)
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			fail(err)
		}
		defer pprof.StopCPUProfile()
	}
	if *traceOut != "" {
		f, err := os.Create(*traceOut)
		if err != nil {
			fail(err)
		}
		defer f.Close()
		if err := rtrace.Start(f); err != nil {
			fail(err)
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
	if *apps != "" {
		rc.Apps = strings.Split(*apps, ",")
	}

	// Observability: -metrics-addr publishes every completed cell live,
	// and -trace-events records sampled probe events.
	if *metricsAddr != "" {
		tel := obs.NewTelemetry()
		msrv, err := obs.Serve(*metricsAddr, tel)
		if err != nil {
			fail(err)
		}
		defer msrv.Close()
		rc.OnCell = observeCells(tel)
		fmt.Fprintf(out, "telemetry: http://%s/metrics (Prometheus)\n", msrv.Addr())
	}
	// Every figure and ablation cell reports through OnCell, so counting
	// there counts the cells that ran. The recovery sweeps' warm fills
	// are not cells and are not counted.
	var cells atomic.Int64
	observe := rc.OnCell
	rc.OnCell = func(res sim.Result) {
		cells.Add(1)
		if observe != nil {
			observe(res)
		}
	}
	var tracer *obs.Tracer
	if *traceEvents != "" {
		if *traceSample < 1 {
			fail(fmt.Errorf("-trace-sample must be >= 1 (got %d)", *traceSample))
		}
		tracer = obs.NewTracer(*traceSample)
		rc.Trace = tracer
	}

	// Each section prints one table; need selects the simulated tables
	// it prints, whose cells one Sweep runs, each distinct cell once.
	sections := []struct {
		on    bool
		need  figures.Table
		print func(figures.Tables)
	}{
		{*table1, 0, func(figures.Tables) { figures.Table1(out) }},
		{*fig5, 0, func(figures.Tables) { figures.PrintFig5(out) }},
		{*fig7, figures.TableFig7, func(t figures.Tables) { figures.PrintFig7(out, t.Fig7) }},
		{*fig10, figures.TableFig10, func(t figures.Tables) {
			figures.PrintPerf(out, "Figure 10: AGIT Performance (normalized to write-back)", t.Fig10.Rows, t.Fig10.Avg, figures.Fig10Schemes)
		}},
		{*fig11, figures.TableFig11, func(t figures.Tables) {
			figures.PrintPerf(out, "Figure 11: ASIT Performance (normalized to write-back)", t.Fig11.Rows, t.Fig11.Avg, figures.Fig11Schemes)
		}},
		{*fig12, 0, func(figures.Tables) { figures.PrintFig12(out) }},
		{*fig13, figures.TableFig13, func(t figures.Tables) { figures.PrintFig13(out, t.Fig13) }},
		{*ablation, figures.TableAblations, func(t figures.Tables) { figures.PrintAblations(out, t.Ablations) }},
		{*recovery, 0, func(figures.Tables) {
			if err := figures.PrintRecoverySweep(out, rc, *trials); err != nil {
				fail(err)
			}
		}},
		{*headline, 0, func(figures.Tables) { figures.PrintHeadline(out) }},
	}
	var want figures.Table
	selected := false
	for _, s := range sections {
		if *all || s.on {
			want, selected = want|s.need, true
		}
	}
	if !selected {
		flag.Usage()
		os.Exit(2)
	}
	start := time.Now()
	var tables figures.Tables
	if want != 0 {
		var err error
		if tables, err = figures.Sweep(rc, want); err != nil {
			fail(err)
		}
	}
	for _, s := range sections {
		if *all || s.on {
			s.print(tables)
			fmt.Fprintln(out)
		}
	}
	wall := time.Since(start)
	if tracer != nil {
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

	// Wall time varies run to run, so it goes to stderr: stdout holds
	// only the deterministic tables and compares byte for byte.
	fmt.Fprintf(os.Stderr, "total: %.0f ms wall, %d simulation cells, parallel=%d\n",
		float64(wall.Microseconds())/1000, cells.Load(), *workers)
}

// observeCells returns a cell observer that publishes each completed
// simulation cell to the live telemetry registry. It runs on the
// parallel engine's worker goroutines; Telemetry.Update serializes
// them, and one call per cell keeps it far off the hot path.
func observeCells(tel *obs.Telemetry) func(sim.Result) {
	return func(res sim.Result) {
		tel.Update(func(r *obs.Registry) {
			r.Counter("anubis_cells_completed_total", 1)
			r.Counter("anubis_requests_simulated_total", uint64(res.Requests))
			r.MergeLedger("anubis_stall_ns_total", &res.Stats.Attribution)
			r.Counter("anubis_nvm_writes_total", res.Stats.NVM.Writes)
			r.Observe("anubis_cell_exec_ns", res.ExecNS)
		})
	}
}
