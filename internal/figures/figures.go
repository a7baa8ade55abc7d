// Package figures regenerates every evaluation artifact of the paper:
// Table 1 and Figures 5, 7, 10, 11, 12, 13, plus the headline recovery
// numbers. cmd/anubis-bench prints them; the root bench_test.go wraps
// them in testing.B benchmarks; EXPERIMENTS.md records the outputs next
// to the paper's values.
package figures

import (
	"context"
	"errors"
	"fmt"
	"io"
	"runtime/pprof"

	"anubis/internal/memctrl"
	"anubis/internal/nvm"
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
	// Parallel is the evaluation engine's worker count: how many
	// (scheme, app, size) simulation cells run concurrently. 0 means
	// runtime.GOMAXPROCS(0); 1 reproduces the legacy sequential path.
	// Results are identical for any value — see DESIGN.md § Parallel
	// evaluation.
	Parallel int
	// Arenas interns each (profile, seed) request stream into an
	// immutable arena shared read-only across every simulation cell and
	// worker: every sweep reads its requests from here, and a nil cache
	// is rejected (DefaultRunConfig sets one). RunConfig is copied by
	// value, which is why this is a pointer: every copy shares the same
	// cache. See DESIGN.md §9.
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
	return parallel.Pool{Workers: rc.Parallel}
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
	if rc.Arenas == nil {
		return errors.New("figures: RunConfig.Arenas is nil; start from DefaultRunConfig, which sets it")
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
	return cfg
}

// run executes one simulation cell: a controller of family f built
// from cfg runs rc.Requests requests of p's stream. Every figure and
// ablation cell runs here, so each gets the same trace scope, profile
// labels and OnCell report. The controller is returned for the cells
// that go on to read its device or crash it (runCell). Each cell
// constructs its own controller and gets an independent read cursor
// into the shared per-(profile, seed) arena, so cells are fully
// independent — the property that lets the worker pool run them
// concurrently with bit-identical results.
func (rc RunConfig) run(f memctrl.Family, cfg memctrl.Config, p trace.Profile) (memctrl.Controller, sim.Result, error) {
	ctrl, err := memctrl.New(f, cfg)
	if err != nil {
		return nil, sim.Result{}, err
	}
	cell := rc.cellName(f, cfg, p)
	var probe obs.Probe
	if rc.Trace != nil {
		probe = rc.Trace.Scope(cell)
	}
	var res sim.Result
	// Label the cell for CPU/heap profiles: `go tool pprof` can then
	// slice a whole-sweep profile by app, scheme or family
	// (-tagfocus/-tagshow). Labels only annotate samples — they never
	// change what runs. See README § Profiling a sweep.
	pprof.Do(context.Background(), pprof.Labels(
		"cell", cell,
		"profile", p.Name,
		"scheme", cfg.Scheme.String(),
		"family", f.String(),
	), func(context.Context) {
		res, err = sim.RunObserved(ctrl, rc.Arenas.Get(p, rc.Seed, rc.Requests).Source(), rc.Requests, probe)
	})
	if err == nil && rc.OnCell != nil {
		rc.OnCell(res)
	}
	return ctrl, res, err
}

// cellName names a cell for its trace scope and pprof labels:
// family/scheme/profile, then each knob in which cfg differs from
// Table 1's configuration at the sweep's memory size. Cells that differ
// only by a knob (an ablation's points, Fig 13's cache sizes, the
// 16 MiB crash-recovery cells) thus get names of their own, and a cell
// with the default configuration keeps the bare name.
func (rc RunConfig) cellName(f memctrl.Family, cfg memctrl.Config, p trace.Profile) string {
	def := memctrl.DefaultConfig(cfg.Scheme)
	def.MemoryBytes = rc.MemoryBytes
	name := fmt.Sprintf("%s/%s/%s", f, cfg.Scheme, p.Name)
	knob := func(differs bool, key string, v any) {
		if differs {
			name += fmt.Sprintf(" %s=%v", key, v)
		}
	}
	cacheSize := func(blocks int) string { return memName(uint64(blocks) * memctrl.BlockBytes) }
	knob(cfg.CounterCacheBlocks != def.CounterCacheBlocks, "counter-cache", cacheSize(cfg.CounterCacheBlocks))
	knob(cfg.TreeCacheBlocks != def.TreeCacheBlocks, "tree-cache", cacheSize(cfg.TreeCacheBlocks))
	knob(cfg.MetaCacheBlocks != def.MetaCacheBlocks, "meta-cache", cacheSize(cfg.MetaCacheBlocks))
	knob(cfg.StopLoss != def.StopLoss, "stop-loss", cfg.StopLoss)
	knob(cfg.Recovery != def.Recovery, "recovery", cfg.Recovery)
	knob(cfg.WearPeriod != def.WearPeriod, "wear", cfg.WearPeriod)
	knob(cfg.TriadLevels != def.TriadLevels, "triad-levels", cfg.TriadLevels)
	knob(cfg.MemoryBytes != def.MemoryBytes, "mem", memName(cfg.MemoryBytes))
	return name
}

// --- the sweep -----------------------------------------------------------------

// Table selects what a Sweep builds; or them together to ask for
// several.
type Table uint8

// The simulated tables.
const (
	TableFig7 Table = 1 << iota
	TableFig10
	TableFig11
	TableFig13
	TableAblations // all four ablation tables
)

// Tables holds what a Sweep built; a table it was not asked for is
// empty.
type Tables struct {
	Fig7      []Fig7Row
	Fig10     PerfTable
	Fig11     PerfTable
	Fig13     []Fig13Row
	Ablations AblationTables
}

// cellKey keys one simulation cell: a run of prof's stream on a fam
// controller built from cfg or, with recovery set, cfg's reduced-scale
// crash-recovery cell (runCell). memctrl.Config and trace.Profile have
// only scalar fields, so tables that read one configuration ask for one
// key, and its cell runs once.
type cellKey struct {
	fam      memctrl.Family
	cfg      memctrl.Config
	prof     trace.Profile
	recovery bool
}

// cellOut is one cell and what the tables read of it.
type cellOut struct {
	cellKey
	readWear bool // the endurance table reads the hottest block's wear
	res      sim.Result
	wear     uint64
	rep      *memctrl.RecoveryReport // recovery cells
}

// plan is a sweep's declarations: each distinct cell once, in the order
// the tables first ask for it, and the row builders that read them.
type plan struct {
	rc       RunConfig
	profiles []trace.Profile
	cells    []*cellOut
	byKey    map[cellKey]*cellOut
	rows     []func() // each builds one row once every cell has run
}

// cell returns k's cell, declaring it on first use.
func (p *plan) cell(k cellKey) *cellOut {
	o := p.byKey[k]
	if o == nil {
		o = &cellOut{cellKey: k}
		p.byKey[k] = o
		p.cells = append(p.cells, o)
	}
	return o
}

// Sweep builds the tables want selects. The tables declare their cells
// and row builders; each distinct cell then runs once on the pool (on
// one worker, in declaration order), however many tables read it, and
// the rows are built in declaration order, so every float sum adds in
// one order at any worker count. A failing cell's error names the cell.
func Sweep(rc RunConfig, want Table) (Tables, error) {
	profiles, err := []trace.Profile(nil), rc.check()
	if err == nil && want&^TableAblations != 0 { // the ablations always run libquantum
		profiles, err = rc.profiles()
	}
	if err != nil {
		return Tables{}, err
	}
	var t Tables
	p := &plan{rc: rc, profiles: profiles, byKey: map[cellKey]*cellOut{}}
	if want&TableFig7 != 0 {
		p.fig7(&t.Fig7)
	}
	if want&TableFig10 != 0 {
		p.perf(memctrl.FamilyBonsai, Fig10Schemes, &t.Fig10)
	}
	if want&TableFig11 != 0 {
		p.perf(memctrl.FamilySGX, Fig11Schemes, &t.Fig11)
	}
	if want&TableFig13 != 0 {
		p.fig13(&t.Fig13)
	}
	if want&TableAblations != 0 {
		p.ablations(&t.Ablations)
	}
	if err := parallel.Do(rc.pool(), len(p.cells), func(i int) error { return rc.runCell(p.cells[i]) }); err != nil {
		return Tables{}, err
	}
	for _, build := range p.rows {
		build()
	}
	return t, nil
}

// runCell runs one cell (see run) and records what its tables read. A
// crash-recovery cell runs 3000 requests of its profile scaled to a
// fresh 16 MiB controller (one arena serves every such cell), then
// crashes and recovers it.
func (rc RunConfig) runCell(o *cellOut) error {
	cfg, prof := o.cfg, o.prof
	if o.recovery {
		rc.Requests, cfg.MemoryBytes = 3000, 16<<20
		prof = prof.Scaled(cfg.MemoryBytes / 64)
	}
	ctrl, res, err := rc.run(o.fam, cfg, prof)
	if err == nil && o.recovery {
		ctrl.Crash()
		o.rep, err = ctrl.Recover()
	}
	if err != nil {
		return fmt.Errorf("figures: %s: %w", rc.cellName(o.fam, cfg, prof), err)
	}
	o.res = res
	if o.readWear {
		_, _, o.wear = ctrl.Device().MaxWearAll()
	}
	return nil
}

// --- Table 1 -------------------------------------------------------------------

// Table1 renders the simulated system configuration.
func Table1(w io.Writer) {
	cfg := memctrl.DefaultConfig(memctrl.SchemeAGITPlus)
	fmt.Fprintln(w, "Table 1: Configuration of the Simulated System")
	fmt.Fprintf(w, "  %-22s %s\n", "Engine", "trace-driven secure-NVM controller model (gem5 substitute)")
	fmt.Fprintf(w, "  %-22s %d GB (geometry; sparse backing)\n", "Capacity", cfg.MemoryBytes>>30)
	fmt.Fprintf(w, "  %-22s read %d ns, write %d ns, %d banks, %d write ports\n", "PCM latencies",
		nvm.ReadNS, nvm.WriteNS, nvm.Banks, nvm.WritePorts)
	fmt.Fprintf(w, "  %-22s %d entries (ADR-protected), drain watermark %d\n", "WPQ",
		nvm.WPQEntries, nvm.DrainWatermark)
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

// fig7 declares Figure 7: the fraction of clean counter-cache
// evictions per app under the write-back baseline (the observation
// motivating AGIT-Plus), read from Fig 10's write-back cells.
func (p *plan) fig7(rows *[]Fig7Row) {
	for _, prof := range p.profiles {
		c := p.cell(cellKey{fam: memctrl.FamilyBonsai, cfg: p.rc.config(memctrl.SchemeWriteBack), prof: prof})
		p.rows = append(p.rows, func() {
			cs := c.res.Stats.CounterCache
			*rows = append(*rows, Fig7Row{
				App:        prof.Name,
				CleanFrac:  c.res.CleanEvictionFrac(),
				Evictions:  cs.Evictions,
				FirstDirty: cs.FirstDirties,
			})
		})
	}
}

// PrintFig7 renders Figure 7.
func PrintFig7(w io.Writer, rows []Fig7Row) {
	fmt.Fprintln(w, "Figure 7: Fraction of Clean Counter-Cache Evictions")
	fmt.Fprintf(w, "  %-12s %10s %12s\n", "app", "clean", "evictions")
	for _, r := range rows {
		fmt.Fprintf(w, "  %-12s %9.1f%% %12d\n", r.App, 100*r.CleanFrac, r.Evictions)
	}
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

// PerfTable is Figure 10 or 11: each app's row and each scheme's
// average over the apps.
type PerfTable struct {
	Rows []PerfRow
	Avg  map[memctrl.Scheme]float64
}

// perf declares Figure 10 or 11: every (app, scheme) cell, each app's
// times normalized to its write-back cell (schemes[0]), and each
// scheme's average, which adds the apps in profile order.
func (p *plan) perf(f memctrl.Family, schemes []memctrl.Scheme, t *PerfTable) {
	t.Avg = map[memctrl.Scheme]float64{}
	for _, prof := range p.profiles {
		cells := make([]*cellOut, len(schemes))
		for i, s := range schemes {
			cells[i] = p.cell(cellKey{fam: f, cfg: p.rc.config(s), prof: prof})
		}
		p.rows = append(p.rows, func() {
			row := PerfRow{App: prof.Name, Norm: map[memctrl.Scheme]float64{schemes[0]: 1}}
			for i := 1; i < len(schemes); i++ {
				row.Norm[schemes[i]] = cells[i].res.Normalized(cells[0].res)
			}
			t.Rows = append(t.Rows, row)
			for s, v := range row.Norm {
				t.Avg[s] += v / float64(len(p.profiles))
			}
		})
	}
}

// Fig10 runs the AGIT performance evaluation (general tree family).
func Fig10(rc RunConfig) ([]PerfRow, map[memctrl.Scheme]float64, error) {
	t, err := Sweep(rc, TableFig10)
	return t.Fig10.Rows, t.Fig10.Avg, err
}

// Fig11 runs the ASIT performance evaluation (SGX tree family).
func Fig11(rc RunConfig) ([]PerfRow, map[memctrl.Scheme]float64, error) {
	t, err := Sweep(rc, TableFig11)
	return t.Fig11.Rows, t.Fig11.Avg, err
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

// fig13 declares Figure 13: at each metadata cache size (per cache;
// ASIT's combined cache has their total), each plotted scheme's
// execution time normalized to the same-size write-back run of its
// family and averaged over the apps. The 256 KB point is Table 1's
// cache sizes, so its cells are Fig 10's and Fig 11's.
func (p *plan) fig13(rows *[]Fig13Row) {
	for _, size := range []uint64{256 << 10, 512 << 10, 1 << 20, 2 << 20, 4 << 20} {
		blocks := int(size / memctrl.BlockBytes)
		cell := func(f memctrl.Family, s memctrl.Scheme, prof trace.Profile) *cellOut {
			cfg := p.rc.config(s)
			cfg.CounterCacheBlocks, cfg.TreeCacheBlocks, cfg.MetaCacheBlocks = blocks, blocks, 2*blocks
			return p.cell(cellKey{fam: f, cfg: cfg, prof: prof})
		}
		// Per app: the two write-back baselines, then the plotted schemes
		// in Fig13Schemes order, each paired with its family's baseline.
		var runs, bases []*cellOut
		for _, prof := range p.profiles {
			baseB := cell(memctrl.FamilyBonsai, memctrl.SchemeWriteBack, prof)
			baseS := cell(memctrl.FamilySGX, memctrl.SchemeWriteBack, prof)
			for _, s := range Fig13Schemes {
				f, base := memctrl.FamilyBonsai, baseB
				if s == memctrl.SchemeASIT {
					f, base = memctrl.FamilySGX, baseS
				}
				runs, bases = append(runs, cell(f, s, prof)), append(bases, base)
			}
		}
		p.rows = append(p.rows, func() {
			row := Fig13Row{CacheBytes: size, Norm: map[memctrl.Scheme]float64{}}
			for i, run := range runs {
				row.Norm[run.cfg.Scheme] += run.res.Normalized(bases[i].res) / float64(len(p.profiles))
			}
			*rows = append(*rows, row)
		})
	}
}

// PrintFig13 renders Figure 13.
func PrintFig13(w io.Writer, rows []Fig13Row) {
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
