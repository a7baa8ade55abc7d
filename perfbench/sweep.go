package main

import (
	"fmt"
	"time"

	"anubis/internal/figures"
	"anubis/internal/memctrl"
	"anubis/internal/obs"
	"anubis/internal/sim"
	"anubis/internal/trace"
)

// The sweep workload is Figures 10 and 11 at figures.DefaultRunConfig:
// 11 profiles x (5 Bonsai + 4 SGX schemes), 40,000 requests per cell at
// 256 MiB, one cell at a time.

// sweepCell is one (family, scheme, profile) simulation cell.
type sweepCell struct {
	fam    sim.Family
	scheme memctrl.Scheme
	prof   trace.Profile
}

// sweepCells lists the cells in the order figures.Fig10 and then
// figures.Fig11 run them with one worker: profile-major, scheme-minor.
func sweepCells() []sweepCell {
	var out []sweepCell
	for _, fig := range []struct {
		fam     sim.Family
		schemes []memctrl.Scheme
	}{{sim.FamilyBonsai, figures.Fig10Schemes}, {sim.FamilySGX, figures.Fig11Schemes}} {
		for _, p := range trace.SPEC2006() {
			for _, s := range fig.schemes {
				out = append(out, sweepCell{fig.fam, s, p})
			}
		}
	}
	return out
}

func sweepConfig(seed int64) figures.RunConfig {
	rc := figures.DefaultRunConfig()
	rc.Seed = seed
	rc.Parallel = 1
	return rc
}

// buildArenas interns every profile's request stream and write payloads,
// the work a sweep otherwise does lazily inside its first cells.
func buildArenas(rc figures.RunConfig) *trace.ArenaCache {
	c := trace.NewArenaCache()
	for _, p := range trace.SPEC2006() {
		c.Get(p, rc.Seed, rc.Requests).Payloads(sim.FillBlock)
	}
	return c
}

type sweepPass struct {
	results  []sim.Result
	cellCPU  []float64 // CPU time of each cell in ns, in sweep order
	wall     time.Duration
	agitPlus float64 // Fig-10 mean normalized execution time of AGIT-Plus
	asit     float64 // Fig-11 mean normalized execution time of ASIT
}

// runSweepPass runs Figures 10 and 11 once through the public entry
// points, timing each cell between consecutive OnCell callbacks.
func runSweepPass(rc figures.RunConfig) (sweepPass, error) {
	var p sweepPass
	start, last := time.Now(), cpuTime()
	rc.OnCell = func(res sim.Result) {
		now := cpuTime()
		p.results = append(p.results, res)
		p.cellCPU = append(p.cellCPU, float64(now-last))
		last = now
	}
	_, avg10, err := figures.Fig10(rc)
	if err != nil {
		return p, fmt.Errorf("fig10: %w", err)
	}
	_, avg11, err := figures.Fig11(rc)
	if err != nil {
		return p, fmt.Errorf("fig11: %w", err)
	}
	p.wall = time.Since(start)
	p.agitPlus, p.asit = avg10[memctrl.SchemeAGITPlus], avg11[memctrl.SchemeASIT]
	return p, nil
}

// checkCells verifies that every cell ran and that each cell's stall
// ledger sums exactly to its simulated execution time.
func checkCells(out *outcome, results []sim.Result, want int) {
	out.check(len(results) == want, "sweep produced %d cells, want %d", len(results), want)
	for _, r := range results {
		out.check(r.Stats.Attribution.Total() == r.ExecNS,
			"%s/%s/%s: stall ledger sums to %d ns, ExecNS is %d", r.Family, r.Scheme, r.Workload,
			r.Stats.Attribution.Total(), r.ExecNS)
	}
}

func runSweep(o options, out *outcome) error {
	rc := sweepConfig(o.seed)
	cells := sweepCells()
	if err := out.timeSetup(func() error {
		rc.Arenas = buildArenas(rc)
		return nil
	}, func() error {
		rc.Arenas = nil
		return nil
	}); err != nil {
		return err
	}
	out.layer("trace.arena_ms", 1e3*out.e2eM["setup_s"].Value, "ms", setupRepeats)

	var passes []sweepPass
	rt := startRuntimeCount()
	deadline := time.Now().Add(o.seconds)
	for len(passes) < minRepeats || moreRepeats(deadline, passes[len(passes)-1].wall) {
		p, err := runSweepPass(rc)
		out.attempted += len(cells)
		if err != nil {
			out.failed += len(cells)
			return err
		}
		passes = append(passes, p)
	}
	rt.stop(out, float64(len(passes)*len(cells)*rc.Requests))

	first := passes[0]
	for _, p := range passes {
		out.note("pass wall %.3f s", p.wall.Seconds())
		before := len(out.problems)
		checkCells(out, p.results, len(cells))
		out.failed += len(out.problems) - before
		out.digests = append(out.digests, digest(p.results))
	}

	cellMed := make([]float64, len(cells))
	for i := range cells {
		var xs []float64
		for _, p := range passes {
			xs = append(xs, p.cellCPU[i])
		}
		cellMed[i] = median(xs)
	}
	var passCPU float64
	for _, ns := range cellMed {
		passCPU += ns
	}
	var walls []float64
	for _, p := range passes {
		walls = append(walls, float64(p.wall))
	}
	reqs := float64(len(cells) * rc.Requests)
	out.e2e(reqs/(passCPU/1e9), len(passes), median(cellMed)/1e3, len(cells))
	out.named("sweep_cell_cpu_p90_us", quantile(cellMed, 0.9)/1e3, "us", len(cells))
	out.named("sweep_req_per_s", reqs/(median(walls)/1e9), "req/s", len(passes))
	out.named("agit_plus_overhead", first.agitPlus, "x_write-back", len(trace.SPEC2006()))
	out.named("asit_overhead", first.asit, "x_write-back", len(trace.SPEC2006()))
	sweepStatLayers(out, first.results)

	if o.trace {
		return traceSweep(o, out, rc, cells, first, time.Duration(median(walls)))
	}
	return nil
}

// sweepStatLayers reports the counters the controller keeps per cell.
func sweepStatLayers(out *outcome, results []sim.Result) {
	var reqs, writes, nvmWrites, shadowWrites uint64
	var ctr, tree, meta [2]uint64 // hits, accesses
	var ledger obs.Ledger
	for _, r := range results {
		st := r.Stats
		reqs += st.ReadRequests + st.WriteRequests
		writes += st.WriteRequests
		nvmWrites += st.NVM.Writes
		shadowWrites += st.ShadowWrites
		ledger.Merge(&st.Attribution)
		if r.Family == sim.FamilySGX {
			meta[0] += st.TreeCache.Hits
			meta[1] += st.TreeCache.Hits + st.TreeCache.Misses
			continue
		}
		ctr[0] += st.CounterCache.Hits
		ctr[1] += st.CounterCache.Hits + st.CounterCache.Misses
		tree[0] += st.TreeCache.Hits
		tree[1] += st.TreeCache.Hits + st.TreeCache.Misses
	}
	n := len(results)
	out.layer("cache.counter_hit_ratio", ratio(ctr[0], ctr[1]), "ratio", n)
	out.layer("cache.tree_hit_ratio", ratio(tree[0], tree[1]), "ratio", n)
	out.layer("cache.meta_hit_ratio", ratio(meta[0], meta[1]), "ratio", n)
	out.layer("nvm.writes_per_write", ratio(nvmWrites, writes), "ratio", n)
	out.layer("shadow.writes_per_write", ratio(shadowWrites, writes), "ratio", n)
	for _, c := range obs.Comps() {
		out.layer("memctrl.stall_ns_per_req."+c.String(), ratio(ledger.Get(c), reqs), "ns", n)
	}
}

func ratio(a, b uint64) float64 {
	if b == 0 {
		return 0
	}
	return float64(a) / float64(b)
}

// Sampling in the traced sweep: every controller call is timed, every
// timeSample-th duration is kept for percentiles, and every
// spanSample-th call is also kept as a span. Keeping every call would
// hold 3.96 M spans per pass.
const (
	timeSample = 16
	spanSample = 4096
)

// sweepTrace accumulates what the traced cells measure.
type sweepTrace struct {
	tr        *tracer
	readNS    []float64
	writeNS   []float64
	simSelfNS int64
	newNS     []float64
}

// traceSweep replays every cell with its own copy of sim.Run's loop,
// wrapping each call into memctrl in a timed span, and checks that each
// replayed cell's sim.Result equals the one sim.Run produced.
func traceSweep(o options, out *outcome, rc figures.RunConfig, cells []sweepCell, ref sweepPass, untracedWall time.Duration) error {
	st := &sweepTrace{tr: newTracer()}
	var results []sim.Result
	start := time.Now()
	for i, c := range cells {
		res, err := st.cell(uint64(i+1), c, rc)
		out.attempted++
		if err != nil {
			out.failed++
			return err
		}
		results = append(results, res)
	}
	traced := time.Since(start)
	checkCells(out, results, len(cells))
	out.digests = append(out.digests, digest(results))
	for i := range results {
		if digest(results[i:i+1]) != digest(ref.results[i:i+1]) {
			out.fail("traced cell %d (%s/%s/%s) differs from sim.Run's result", i,
				cells[i].fam, cells[i].scheme, cells[i].prof.Name)
		}
	}

	out.layer("memctrl.read_ns_p50", median(st.readNS), "ns", len(st.readNS))
	out.layer("memctrl.read_ns_p99", quantile(st.readNS, 0.99), "ns", len(st.readNS))
	out.layer("memctrl.write_ns_p50", median(st.writeNS), "ns", len(st.writeNS))
	out.layer("memctrl.write_ns_p99", quantile(st.writeNS, 0.99), "ns", len(st.writeNS))
	out.layer("memctrl.new_ms_p50", median(st.newNS)/1e6, "ms", len(st.newNS))
	out.layer("sim.self_ms", float64(st.simSelfNS)/1e6, "ms", len(cells))
	out.overhead(traced, untracedWall)
	return st.tr.write(o.spanPath())
}

// cell runs one cell exactly as sim.Run does (probe off, fast lane
// off), with spans around the calls into memctrl.
func (st *sweepTrace) cell(id uint64, c sweepCell, rc figures.RunConfig) (sim.Result, error) {
	tr := st.tr
	root := tr.begin("sweep.cell", id, 0)
	cfg := memctrl.DefaultConfig(c.scheme)
	cfg.MemoryBytes = rc.MemoryBytes
	sp := tr.begin("memctrl.new", id, root.ID)
	ctrl, err := sim.NewController(c.fam, cfg)
	sp = tr.end(sp)
	st.newNS = append(st.newNS, float64(sp.dur()))
	if err != nil {
		return sim.Result{}, err
	}

	run := tr.begin("sim.run", id, root.ID)
	cur := rc.Arenas.Get(c.prof, rc.Seed, rc.Requests).Source()
	res := sim.Result{Workload: cur.Name(), Scheme: ctrl.Scheme(), Family: sim.FamilyOf(ctrl), Requests: rc.Requests}
	nBlocks := ctrl.NumBlocks()
	payloads := cur.Payloads(sim.FillBlock)
	var untracedNS int64 // timed calls not kept as spans
	for i := 0; i < rc.Requests; i++ {
		req := cur.Next()
		ctrl.AdvanceTo(ctrl.Now() + req.GapNS)
		addr := req.Block % nBlocks
		issue := ctrl.Now()
		t0 := tr.now()
		if req.Op == trace.OpWrite {
			err = ctrl.WriteBlock(addr, payloads[i])
		} else {
			_, err = ctrl.ReadBlock(addr)
		}
		t1 := tr.now()
		if err != nil {
			return res, fmt.Errorf("sim: request %d: %w", i, err)
		}
		name := "memctrl.read"
		if req.Op == trace.OpWrite {
			res.WriteLat.Add(ctrl.Now() - issue)
			name = "memctrl.write"
		} else {
			res.ReadLat.Add(ctrl.Now() - issue)
		}
		if i%timeSample == 0 {
			if req.Op == trace.OpWrite {
				st.writeNS = append(st.writeNS, float64(t1-t0))
			} else {
				st.readNS = append(st.readNS, float64(t1-t0))
			}
		}
		if i%spanSample == 0 {
			tr.add(span{Name: name, Trace: id, Parent: run.ID, Start: t0, End: t1})
		} else {
			untracedNS += t1 - t0
		}
	}
	if f, ok := ctrl.(interface{ FlushEpoch() error }); ok {
		if err := f.FlushEpoch(); err != nil {
			return res, fmt.Errorf("sim: epoch flush: %w", err)
		}
	}
	res.ExecNS = ctrl.Now()
	sp = tr.begin("memctrl.stats", id, run.ID)
	res.Stats = ctrl.Stats()
	tr.end(sp)
	run = tr.end(run)
	tr.end(root)
	st.simSelfNS += selfTime(run, tr.children(run.ID)) - untracedNS
	return res, nil
}
