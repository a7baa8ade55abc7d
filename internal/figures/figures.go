// Package figures regenerates every evaluation artifact of the paper:
// Table 1 and Figures 5, 7, 10, 11, 12, 13, plus the headline recovery
// numbers. cmd/anubis-bench prints them; the root bench_test.go wraps
// them in testing.B benchmarks; EXPERIMENTS.md records the outputs next
// to the paper's values.
package figures

import (
	"context"
	"fmt"
	"io"
	"runtime/pprof"

	"anubis/internal/memctrl"
	"anubis/internal/obs"
	"anubis/internal/parallel"
	"anubis/internal/recmodel"
	"anubis/internal/sim"
	"anubis/internal/trace"
)

// RunConfig scales the simulated experiments.
type RunConfig struct {
	// MemoryBytes is the simulated capacity for performance runs (the
	// geometry is exact; storage is sparse).
	MemoryBytes uint64
	// Requests per (app, scheme) simulation.
	Requests int
	// Seed for the trace generators.
	Seed int64
	// Apps restricts the benchmark list (nil = all 11).
	Apps []string
	// CounterCacheBytes / TreeCacheBytes / MetaCacheBytes override
	// Table 1's cache sizes when nonzero (used by Figure 13).
	CounterCacheBytes int
	TreeCacheBytes    int
	MetaCacheBytes    int
	// Epoch is the bank-parallel epoch pipeline's window size in write
	// requests (memctrl.Config.EpochRequests). 0 or 1 selects the eager
	// path. It moves only Fig 10's strict column (the only Fig 10 scheme
	// that defers tree updates); every other column and all of Fig 11
	// are epoch-invariant.
	Epoch int
	// Parallel is the evaluation engine's worker count: how many
	// (scheme, app, size) simulation cells run concurrently. 0 means
	// runtime.GOMAXPROCS(0); 1 reproduces the legacy sequential path.
	// Results are identical for any value — see DESIGN.md § Parallel
	// evaluation.
	Parallel int
	// Ctx, when non-nil, cancels in-flight sweeps between cells.
	Ctx context.Context
	// Arenas, when non-nil, interns each (profile, seed) request stream
	// into an immutable arena shared read-only across every simulation
	// cell (and across workers), instead of re-running the trace
	// generator per cell. Streams are deterministic per (profile, seed),
	// so outputs are byte-identical either way — see DESIGN.md §9.
	// RunConfig is copied by value inside sweeps (e.g. Figure 13's
	// per-size configs), which is why this is a pointer: every copy
	// shares the same cache.
	Arenas *trace.ArenaCache
	// OnCell, when non-nil, observes every completed simulation cell.
	// It runs on worker goroutines and must be safe for concurrent use
	// (cmd/anubis-bench feeds a mutex-guarded telemetry registry).
	// Observation only: it cannot change results.
	OnCell func(res sim.Result)
	// Trace, when non-nil, records sampled probe events for every
	// simulation cell, one trace thread per cell. Tracing never alters
	// simulated timing (probes receive completed facts only), so sweep
	// outputs stay byte-identical with or without it.
	Trace *obs.Tracer
}

// pool returns the worker pool every figure sweep fans out on.
func (rc RunConfig) pool() parallel.Pool {
	return parallel.Pool{Workers: rc.Parallel, Ctx: rc.Ctx}
}

// DefaultRunConfig mirrors Table 1 but at a simulation-friendly scale:
// full 11-app suite, 40k requests each, 256 MB sparse memory.
func DefaultRunConfig() RunConfig {
	return RunConfig{
		MemoryBytes: 256 << 20,
		Requests:    40000,
		Seed:        99,
		Arenas:      trace.NewArenaCache(),
	}
}

// QuickRunConfig is a reduced configuration for benchmarks and smoke
// tests.
func QuickRunConfig() RunConfig {
	rc := DefaultRunConfig()
	rc.Requests = 5000
	rc.Apps = []string{"mcf", "lbm", "libquantum"}
	return rc
}

// check rejects a configuration no sweep can run. Every sweep entry
// point calls it (directly or through profiles) before any cell starts.
func (rc RunConfig) check() error {
	if rc.Requests <= 0 {
		return fmt.Errorf("figures: requests per cell must be positive, got %d", rc.Requests)
	}
	return nil
}

// profiles checks the configuration and resolves Apps to trace
// profiles (nil = all 11); an unknown app name is an error.
func (rc RunConfig) profiles() ([]trace.Profile, error) {
	if err := rc.check(); err != nil {
		return nil, err
	}
	if rc.Apps == nil {
		return trace.SPEC2006(), nil
	}
	out := make([]trace.Profile, 0, len(rc.Apps))
	for _, name := range rc.Apps {
		p, ok := trace.ByName(name)
		if !ok {
			return nil, fmt.Errorf("figures: unknown app %q", name)
		}
		out = append(out, p)
	}
	return out, nil
}

func (rc RunConfig) config(s memctrl.Scheme) memctrl.Config {
	cfg := memctrl.DefaultConfig(s)
	cfg.MemoryBytes = rc.MemoryBytes
	if rc.CounterCacheBytes > 0 {
		cfg.CounterCacheBlocks = rc.CounterCacheBytes / memctrl.BlockBytes
	}
	if rc.TreeCacheBytes > 0 {
		cfg.TreeCacheBlocks = rc.TreeCacheBytes / memctrl.BlockBytes
	}
	if rc.MetaCacheBytes > 0 {
		cfg.MetaCacheBlocks = rc.MetaCacheBytes / memctrl.BlockBytes
	}
	cfg.EpochRequests = rc.Epoch
	return cfg
}

// source returns the request stream for one simulation cell: a cursor
// into the shared immutable arena when arenas are enabled, otherwise a
// fresh per-cell generator. Both produce byte-identical streams.
func (rc RunConfig) source(p trace.Profile) trace.Source {
	return rc.sourceN(p, rc.Requests)
}

// sourceN is source for a cell that consumes n requests (recovery
// trials consume more than rc.Requests; the arena must cover them).
func (rc RunConfig) sourceN(p trace.Profile, n int) trace.Source {
	if rc.Arenas != nil {
		return rc.Arenas.Get(p, rc.Seed, n).Source()
	}
	return trace.NewGenerator(p, rc.Seed)
}

// run executes one simulation cell. Each cell constructs its own
// controller and gets an independent read cursor into the shared
// per-(profile, seed) arena (or its own generator when arenas are
// disabled), so cells are fully independent — the property that lets
// the worker pool run them concurrently with bit-identical results.
func (rc RunConfig) run(f sim.Family, s memctrl.Scheme, p trace.Profile) (sim.Result, error) {
	ctrl, err := sim.NewController(f, rc.config(s))
	if err != nil {
		return sim.Result{}, err
	}
	var probe obs.Probe
	if rc.Trace != nil {
		probe = rc.Trace.Scope(fmt.Sprintf("%s/%s/%s", f, s, p.Name))
	}
	ctx := rc.Ctx
	if ctx == nil {
		ctx = context.Background()
	}
	var res sim.Result
	// Label the cell for CPU/heap profiles: `go tool pprof` can then
	// slice a whole-sweep profile by app, scheme or family
	// (-tagfocus/-tagshow). Labels only annotate samples — they never
	// change what runs. See README § Profiling a sweep.
	pprof.Do(ctx, pprof.Labels(
		"cell", fmt.Sprintf("%s/%s/%s", f, s, p.Name),
		"profile", p.Name,
		"scheme", s.String(),
		"family", f.String(),
	), func(context.Context) {
		res, err = sim.RunObserved(ctrl, rc.source(p), rc.Requests, probe)
	})
	if err == nil && rc.OnCell != nil {
		rc.OnCell(res)
	}
	return res, err
}

// NumApps reports how many application profiles the configuration runs
// (used by cmd/anubis-bench to count simulation cells); 0 when the
// configuration is invalid, which the sweep itself then reports.
func (rc RunConfig) NumApps() int {
	ps, _ := rc.profiles()
	return len(ps)
}

// --- Table 1 -------------------------------------------------------------------

// Table1 renders the simulated system configuration.
func Table1(w io.Writer) {
	cfg := memctrl.DefaultConfig(memctrl.SchemeAGITPlus)
	fmt.Fprintln(w, "Table 1: Configuration of the Simulated System")
	fmt.Fprintf(w, "  %-22s %s\n", "Engine", "trace-driven secure-NVM controller model (gem5 substitute)")
	fmt.Fprintf(w, "  %-22s %d GB (geometry; sparse backing)\n", "Capacity", cfg.MemoryBytes>>30)
	fmt.Fprintf(w, "  %-22s read %d ns, write %d ns, %d banks, %d write ports\n", "PCM latencies",
		cfg.Timing.ReadNS, cfg.Timing.WriteNS, cfg.Timing.Banks, cfg.Timing.WritePorts)
	fmt.Fprintf(w, "  %-22s %d entries (ADR-protected), drain watermark %d\n", "WPQ",
		cfg.Timing.WPQEntries, cfg.Timing.DrainWatermark)
	fmt.Fprintf(w, "  %-22s %d KB, %d-way, 64 B blocks\n", "Counter cache",
		cfg.CounterCacheBlocks*memctrl.BlockBytes/1024, cfg.CounterCacheWays)
	fmt.Fprintf(w, "  %-22s %d KB, %d-way, 64 B blocks\n", "Merkle tree cache",
		cfg.TreeCacheBlocks*memctrl.BlockBytes/1024, cfg.TreeCacheWays)
	fmt.Fprintf(w, "  %-22s %d KB, %d-way (SGX family)\n", "Metadata cache",
		cfg.MetaCacheBlocks*memctrl.BlockBytes/1024, cfg.MetaCacheWays)
	fmt.Fprintf(w, "  %-22s %d KB SCT + %d KB SMT (AGIT), %d KB ST (ASIT)\n", "Shadow regions",
		cfg.CounterCacheBlocks*memctrl.BlockBytes/1024,
		cfg.TreeCacheBlocks*memctrl.BlockBytes/1024,
		cfg.MetaCacheBlocks*memctrl.BlockBytes/1024)
	fmt.Fprintf(w, "  %-22s %d (Osiris)\n", "Stop-loss limit", cfg.StopLoss)
}

// --- Figure 5 -------------------------------------------------------------------

// Fig5Row is one point of the Osiris recovery-time curve.
type Fig5Row struct {
	MemBytes uint64 `json:"mem_bytes"`
	NS       uint64 `json:"recovery_ns"`
}

// Fig5 computes Osiris whole-memory recovery time for the paper's
// capacity axis (analytic, like the paper's footnote 1).
func Fig5() []Fig5Row {
	caps := []uint64{128 << 30, 256 << 30, 512 << 30, 1 << 40, 2 << 40, 4 << 40, 8 << 40}
	rows := make([]Fig5Row, 0, len(caps))
	for _, c := range caps {
		rows = append(rows, Fig5Row{MemBytes: c, NS: recmodel.OsirisFullNS(c, 1.05)})
	}
	return rows
}

// PrintFig5 renders Figure 5.
func PrintFig5(w io.Writer) {
	fmt.Fprintln(w, "Figure 5: Recovery Time for Different Memory Sizes (Using Osiris)")
	fmt.Fprintf(w, "  %-10s %14s %16s\n", "memory", "seconds", "human")
	for _, r := range Fig5() {
		fmt.Fprintf(w, "  %-10s %14.1f %16s\n", memName(r.MemBytes),
			recmodel.Seconds(r.NS), recmodel.FormatDuration(r.NS))
	}
}

// --- Figure 7 -------------------------------------------------------------------

// Fig7Row reports per-app counter-cache eviction cleanliness.
type Fig7Row struct {
	App        string  `json:"app"`
	CleanFrac  float64 `json:"clean_frac"`
	Evictions  uint64  `json:"evictions"`
	FirstDirty uint64  `json:"first_dirty"`
}

// Fig7 measures the fraction of clean counter-cache evictions per app
// under the write-back baseline (the observation motivating AGIT-Plus).
// Apps run concurrently on the evaluation pool; rows come back in
// profile order.
func Fig7(rc RunConfig) ([]Fig7Row, error) {
	profiles, err := rc.profiles()
	if err != nil {
		return nil, err
	}
	results, err := parallel.Map(rc.pool(), len(profiles), func(_ context.Context, i int) (sim.Result, error) {
		res, err := rc.run(sim.FamilyBonsai, memctrl.SchemeWriteBack, profiles[i])
		if err != nil {
			return sim.Result{}, fmt.Errorf("fig7 %s: %w", profiles[i].Name, err)
		}
		return res, nil
	})
	if err != nil {
		return nil, err
	}
	var rows []Fig7Row
	for i, res := range results {
		cs := res.Stats.CounterCache
		rows = append(rows, Fig7Row{
			App:        profiles[i].Name,
			CleanFrac:  res.CleanEvictionFrac(),
			Evictions:  cs.Evictions,
			FirstDirty: cs.FirstDirties,
		})
	}
	return rows, nil
}

// PrintFig7 renders Figure 7.
func PrintFig7(w io.Writer, rc RunConfig) error {
	rows, err := Fig7(rc)
	if err != nil {
		return err
	}
	fmt.Fprintln(w, "Figure 7: Fraction of Clean Counter-Cache Evictions")
	fmt.Fprintf(w, "  %-12s %10s %12s\n", "app", "clean", "evictions")
	for _, r := range rows {
		fmt.Fprintf(w, "  %-12s %9.1f%% %12d\n", r.App, 100*r.CleanFrac, r.Evictions)
	}
	return nil
}

// --- Figures 10 and 11 ------------------------------------------------------------

// PerfRow is one app's normalized execution times per scheme.
type PerfRow struct {
	App  string                     `json:"app"`
	Norm map[memctrl.Scheme]float64 `json:"normalized"`
}

// Fig10Schemes lists the AGIT evaluation's schemes in the paper's order.
var Fig10Schemes = []memctrl.Scheme{
	memctrl.SchemeWriteBack, memctrl.SchemeStrict, memctrl.SchemeOsiris,
	memctrl.SchemeAGITRead, memctrl.SchemeAGITPlus,
}

// Fig11Schemes lists the ASIT evaluation's schemes.
var Fig11Schemes = []memctrl.Scheme{
	memctrl.SchemeWriteBack, memctrl.SchemeStrict, memctrl.SchemeOsiris,
	memctrl.SchemeASIT,
}

// perfFigure runs every (app, scheme) pair and normalizes to write-back.
//
// All len(profiles)×len(schemes) cells fan out on the evaluation pool;
// the reduction below consumes the results in exactly the order the old
// sequential loop produced them (profile-major, scheme-minor, baseline
// first), so the output — including the floating-point accumulation of
// the averages — is identical for any worker count.
func perfFigure(rc RunConfig, f sim.Family, schemes []memctrl.Scheme) ([]PerfRow, map[memctrl.Scheme]float64, error) {
	profiles, err := rc.profiles()
	if err != nil {
		return nil, nil, err
	}
	nS := len(schemes)
	results, err := parallel.Map(rc.pool(), len(profiles)*nS, func(_ context.Context, i int) (sim.Result, error) {
		p, s := profiles[i/nS], schemes[i%nS]
		res, err := rc.run(f, s, p)
		if err != nil {
			return sim.Result{}, fmt.Errorf("%s/%s: %w", p.Name, s, err)
		}
		return res, nil
	})
	if err != nil {
		return nil, nil, err
	}
	var rows []PerfRow
	avg := map[memctrl.Scheme]float64{}
	for pi, p := range profiles {
		base := results[pi*nS]
		row := PerfRow{App: p.Name, Norm: map[memctrl.Scheme]float64{schemes[0]: 1}}
		for si := 1; si < nS; si++ {
			row.Norm[schemes[si]] = results[pi*nS+si].Normalized(base)
		}
		rows = append(rows, row)
		for s, v := range row.Norm {
			avg[s] += v / float64(len(profiles))
		}
	}
	return rows, avg, nil
}

// Fig10 runs the AGIT performance evaluation (general tree family).
func Fig10(rc RunConfig) ([]PerfRow, map[memctrl.Scheme]float64, error) {
	return perfFigure(rc, sim.FamilyBonsai, Fig10Schemes)
}

// Fig11 runs the ASIT performance evaluation (SGX tree family).
func Fig11(rc RunConfig) ([]PerfRow, map[memctrl.Scheme]float64, error) {
	return perfFigure(rc, sim.FamilySGX, Fig11Schemes)
}

// PrintPerf renders Figure 10 or 11.
func PrintPerf(w io.Writer, title string, rows []PerfRow, avg map[memctrl.Scheme]float64, schemes []memctrl.Scheme) {
	fmt.Fprintln(w, title)
	fmt.Fprintf(w, "  %-12s", "app")
	for _, s := range schemes {
		fmt.Fprintf(w, "%12s", s)
	}
	fmt.Fprintln(w)
	for _, r := range rows {
		fmt.Fprintf(w, "  %-12s", r.App)
		for _, s := range schemes {
			fmt.Fprintf(w, "%12.3f", r.Norm[s])
		}
		fmt.Fprintln(w)
	}
	fmt.Fprintf(w, "  %-12s", "average")
	for _, s := range schemes {
		fmt.Fprintf(w, "%12.3f", avg[s])
	}
	fmt.Fprintln(w)
}

// --- Figure 12 -----------------------------------------------------------------

// Fig12Row is one point of the Anubis recovery-time curves.
type Fig12Row struct {
	CacheBytes uint64 `json:"cache_bytes"` // per-cache size (counter cache = tree cache)
	AGITNS     uint64 `json:"agit_ns"`
	ASITNS     uint64 `json:"asit_ns"`
}

// Fig12 computes Anubis recovery time versus metadata cache size
// (analytic, per §6.3.1's op accounting). The x axis grows both AGIT
// caches together; ASIT's combined metadata cache has their total size.
func Fig12() []Fig12Row {
	sizes := []uint64{256 << 10, 512 << 10, 1 << 20, 2 << 20, 4 << 20}
	rows := make([]Fig12Row, 0, len(sizes))
	for _, c := range sizes {
		rows = append(rows, Fig12Row{
			CacheBytes: c,
			AGITNS:     recmodel.AGITNS(c, c),
			ASITNS:     recmodel.ASITNS(2 * c),
		})
	}
	return rows
}

// PrintFig12 renders Figure 12.
func PrintFig12(w io.Writer) {
	fmt.Fprintln(w, "Figure 12: Recovery Time vs Metadata Cache Size")
	fmt.Fprintf(w, "  %-10s %14s %14s\n", "cache", "AGIT", "ASIT")
	for _, r := range Fig12() {
		fmt.Fprintf(w, "  %-10s %14s %14s\n", memName(r.CacheBytes),
			recmodel.FormatDuration(r.AGITNS), recmodel.FormatDuration(r.ASITNS))
	}
}

// MeasuredRecovery executes a real crash+recovery at the given scale and
// returns the recovery report — validating the analytic op counts with
// the actual implementation.
func MeasuredRecovery(scheme memctrl.Scheme, family sim.Family, rc RunConfig) (*memctrl.RecoveryReport, error) {
	profiles, err := rc.profiles()
	if err != nil {
		return nil, err
	}
	ctrl, err := sim.NewController(family, rc.config(scheme))
	if err != nil {
		return nil, err
	}
	prof := profiles[0]
	if _, err := sim.Run(ctrl, rc.source(prof), rc.Requests); err != nil {
		return nil, err
	}
	ctrl.Crash()
	return ctrl.Recover()
}

// --- Figure 13 -----------------------------------------------------------------

// Fig13Row is one cache-size point of the sensitivity study.
type Fig13Row struct {
	CacheBytes uint64                     `json:"cache_bytes"`
	Norm       map[memctrl.Scheme]float64 `json:"normalized"` // averaged over apps, normalized to same-size write-back
}

// Fig13Schemes are the schemes whose sensitivity the paper plots.
var Fig13Schemes = []memctrl.Scheme{
	memctrl.SchemeAGITRead, memctrl.SchemeAGITPlus, memctrl.SchemeASIT,
}

// Fig13 sweeps metadata cache sizes (per-cache; ASIT uses the combined
// total) and reports each scheme's average normalized performance.
//
// This is the evaluation's biggest sweep — sizes × apps × (2 baselines
// + 3 schemes) cells — and the flagship case for the parallel engine:
// every cell fans out, and the per-(size, app) normalization plus the
// per-size averaging happen afterwards in the legacy accumulation
// order, keeping the output independent of the worker count.
func Fig13(rc RunConfig) ([]Fig13Row, error) {
	sizes := []uint64{256 << 10, 512 << 10, 1 << 20, 2 << 20, 4 << 20}
	type cell struct {
		fam    sim.Family
		scheme memctrl.Scheme
	}
	// Per (size, profile): the two write-back baselines first, then the
	// plotted schemes in Fig13Schemes order.
	cells := []cell{
		{sim.FamilyBonsai, memctrl.SchemeWriteBack},
		{sim.FamilySGX, memctrl.SchemeWriteBack},
	}
	for _, s := range Fig13Schemes {
		fam := sim.FamilyBonsai
		if s == memctrl.SchemeASIT {
			fam = sim.FamilySGX
		}
		cells = append(cells, cell{fam, s})
	}
	profiles, err := rc.profiles()
	if err != nil {
		return nil, err
	}
	nP, nC := len(profiles), len(cells)
	withCaches := func(size uint64) RunConfig {
		cc := rc
		cc.CounterCacheBytes = int(size)
		cc.TreeCacheBytes = int(size)
		cc.MetaCacheBytes = int(2 * size)
		return cc
	}
	results, err := parallel.Map(rc.pool(), len(sizes)*nP*nC, func(_ context.Context, i int) (sim.Result, error) {
		si, rem := i/(nP*nC), i%(nP*nC)
		pi, ci := rem/nC, rem%nC
		cc := withCaches(sizes[si])
		res, err := cc.run(cells[ci].fam, cells[ci].scheme, profiles[pi])
		if err != nil {
			return sim.Result{}, fmt.Errorf("fig13 %s/%s/%s: %w",
				memName(sizes[si]), profiles[pi].Name, cells[ci].scheme, err)
		}
		return res, nil
	})
	if err != nil {
		return nil, err
	}
	var rows []Fig13Row
	for si, size := range sizes {
		row := Fig13Row{CacheBytes: size, Norm: map[memctrl.Scheme]float64{}}
		for pi := range profiles {
			at := func(ci int) sim.Result { return results[si*nP*nC+pi*nC+ci] }
			baseB, baseS := at(0), at(1)
			for k, s := range Fig13Schemes {
				base := baseB
				if s == memctrl.SchemeASIT {
					base = baseS
				}
				row.Norm[s] += at(2+k).Normalized(base) / float64(nP)
			}
		}
		rows = append(rows, row)
	}
	return rows, nil
}

// PrintFig13 renders Figure 13.
func PrintFig13(w io.Writer, rc RunConfig) error {
	rows, err := Fig13(rc)
	if err != nil {
		return err
	}
	fmt.Fprintln(w, "Figure 13: Performance Sensitivity to Cache Size (normalized to write-back)")
	fmt.Fprintf(w, "  %-10s", "cache")
	for _, s := range Fig13Schemes {
		fmt.Fprintf(w, "%12s", s)
	}
	fmt.Fprintln(w)
	for _, r := range rows {
		fmt.Fprintf(w, "  %-10s", memName(r.CacheBytes))
		for _, s := range Fig13Schemes {
			fmt.Fprintf(w, "%12.3f", r.Norm[s])
		}
		fmt.Fprintln(w)
	}
	return nil
}

// --- headline -------------------------------------------------------------------

// PrintHeadline renders the abstract's headline comparison.
func PrintHeadline(w io.Writer) {
	osiris := recmodel.OsirisFullNS(8<<40, 1.05)
	agit := recmodel.AGITNS(256<<10, 256<<10)
	asit := recmodel.ASITNS(512 << 10)
	fmt.Fprintln(w, "Headline (abstract): recovery time, 8 TB NVM, Table 1 caches")
	fmt.Fprintf(w, "  %-28s %s\n", "Osiris (full rebuild):", recmodel.FormatDuration(osiris))
	fmt.Fprintf(w, "  %-28s %s\n", "Anubis AGIT:", recmodel.FormatDuration(agit))
	fmt.Fprintf(w, "  %-28s %s\n", "Anubis ASIT:", recmodel.FormatDuration(asit))
	fmt.Fprintf(w, "  %-28s %.1ex\n", "AGIT speedup:", recmodel.Speedup(osiris, agit))
}

func memName(b uint64) string {
	switch {
	case b >= 1<<40:
		return fmt.Sprintf("%dTB", b>>40)
	case b >= 1<<30:
		return fmt.Sprintf("%dGB", b>>30)
	case b >= 1<<20:
		return fmt.Sprintf("%dMB", b>>20)
	default:
		return fmt.Sprintf("%dKB", b>>10)
	}
}
