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

// The recovery workload runs forked figures.RecoverySweep for three
// schemes, in the shape of the suite's recovery_forked record:
// libquantum at 32 MiB, a 20,000-request warm fill, and a crash point
// every 40 requests.
const (
	recApp    = "libquantum"
	recMemory = 32 << 20
	recWarm   = 20000
	recTrials = 50
	recStride = 40
)

type recScheme struct {
	scheme memctrl.Scheme
	fam    sim.Family
}

var recSchemes = []recScheme{
	{memctrl.SchemeAGITPlus, sim.FamilyBonsai},
	{memctrl.SchemeASIT, sim.FamilySGX},
	{memctrl.SchemeOsiris, sim.FamilyBonsai},
}

func recProfile() trace.Profile {
	p, ok := trace.ByName(recApp)
	if !ok {
		panic("perfbench: unknown profile " + recApp)
	}
	return p
}

// buildRecoveryArena interns the request stream every trial reads.
func buildRecoveryArena(seed int64) *trace.ArenaCache {
	c := trace.NewArenaCache()
	c.Get(recProfile(), seed, recWarm+recTrials*recStride).Payloads(sim.FillBlock)
	return c
}

func recoveryConfig(seed int64, arenas *trace.ArenaCache, sc recScheme) figures.RecoverySweepConfig {
	rc := figures.DefaultRunConfig()
	rc.MemoryBytes = recMemory
	rc.Requests = recWarm
	rc.Seed = seed
	rc.Parallel = 1
	rc.Arenas = arenas
	return figures.RecoverySweepConfig{
		Run: rc, Scheme: sc.scheme, Family: sc.fam, App: recApp,
		Warm: recWarm, Trials: recTrials, ExtraPerTrial: recStride,
	}
}

type recRound struct {
	sweeps    []*figures.RecoverySweepResult // one per recSchemes entry
	wall, cpu time.Duration
}

func (r recRound) trials() []figures.RecoveryTrial {
	var out []figures.RecoveryTrial
	for _, s := range r.sweeps {
		out = append(out, s.Trials...)
	}
	return out
}

func runRecoveryRound(seed int64, arenas *trace.ArenaCache) (recRound, error) {
	var r recRound
	start, cpu := time.Now(), cpuTime()
	for _, sc := range recSchemes {
		res, err := figures.RecoverySweep(recoveryConfig(seed, arenas, sc))
		if err != nil {
			return r, fmt.Errorf("recovery sweep %s: %w", sc.scheme, err)
		}
		r.sweeps = append(r.sweeps, res)
	}
	r.wall, r.cpu = time.Since(start), cpuTime()-cpu
	return r, nil
}

// checkTrials verifies that each trial's phase ledger sums exactly to
// its modeled recovery time.
func checkTrials(out *outcome, trials []figures.RecoveryTrial) {
	out.check(len(trials) == recTrials*len(recSchemes), "recovery produced %d trials, want %d",
		len(trials), recTrials*len(recSchemes))
	for _, t := range trials {
		out.check(t.Report.Phases.Total() == t.Report.ModeledNS(),
			"%s trial at +%d: phase ledger sums to %d ns, modeled %d", t.Report.Scheme, t.Extra,
			t.Report.Phases.Total(), t.Report.ModeledNS())
	}
}

func runRecovery(o options, out *outcome) error {
	var arenas *trace.ArenaCache
	if err := out.timeSetup(func() error {
		arenas = buildRecoveryArena(o.seed)
		return nil
	}, func() error {
		arenas = nil
		return nil
	}); err != nil {
		return err
	}
	out.layer("trace.arena_ms", 1e3*out.e2eM["setup_s"].Value, "ms", setupRepeats)

	var rounds []recRound
	rt := startRuntimeCount()
	deadline := time.Now().Add(o.seconds)
	for len(rounds) < minRepeats || moreRepeats(deadline, rounds[len(rounds)-1].wall) {
		r, err := runRecoveryRound(o.seed, arenas)
		out.attempted += recTrials * len(recSchemes)
		if err != nil {
			out.failed += recTrials * len(recSchemes)
			return err
		}
		rounds = append(rounds, r)
	}
	perRound := float64(recTrials * len(recSchemes))
	rt.stop(out, float64(len(rounds))*perRound)

	var cpuRates, wallRates, roundUS, walls []float64
	for _, r := range rounds {
		before := len(out.problems)
		checkTrials(out, r.trials())
		out.failed += len(out.problems) - before
		out.digests = append(out.digests, digest(r.trials()))
		cpuRates = append(cpuRates, perRound/r.cpu.Seconds())
		wallRates = append(wallRates, perRound/r.wall.Seconds())
		roundUS = append(roundUS, float64(r.cpu.Microseconds()))
		walls = append(walls, float64(r.wall))
	}
	first := rounds[0]
	// A task is one round of the three sweeps. Pooling the per-scheme
	// sweeps instead would put the median on whichever scheme happens
	// to sit in the middle.
	out.e2e(median(cpuRates), len(rounds), median(roundUS), len(rounds))
	out.named("recovery_round_cpu_p90_us", quantile(roundUS, 0.9), "us", len(rounds))
	out.named("recovery_trials_per_s", median(wallRates), "trials/s", len(rounds))
	var phases obs.RecLedger
	var fetch, crypto uint64
	for i, sc := range recSchemes {
		res := first.sweeps[i]
		_, mean, _ := res.ModeledRecoveryNS()
		out.named(schemeMetric(sc.scheme)+"_recovery_us", float64(mean)/1e3, "us", len(res.Trials))
		phases.Merge(&res.PhaseTotals)
		for _, t := range res.Trials {
			fetch += t.Report.FetchOps
			crypto += t.Report.CryptoOps
		}
	}
	n := len(first.trials())
	for _, p := range obs.RecPhases() {
		out.layer("memctrl.recovery_ns_per_trial."+p.String(), float64(phases.Get(p))/float64(n), "ns", n)
	}
	out.layer("memctrl.recovery_ops_per_trial.fetch", float64(fetch)/float64(n), "count", n)
	out.layer("memctrl.recovery_ops_per_trial.crypto", float64(crypto)/float64(n), "count", n)

	// Audit a sample of recovered trials: RecoverySweep keeps no
	// controllers, so the sampled trials are replayed with the same
	// public calls and must reproduce the sweep's reports.
	arena := arenas.Get(recProfile(), o.seed, recWarm+recTrials*recStride)
	for i, sc := range recSchemes {
		sample := []int{0, recTrials - 1}
		got, _, err := replayTrials(nil, sc, arena, sample, true)
		out.attempted += len(sample)
		if err != nil {
			out.failed += len(sample)
			out.fail("%s audit sample: %v", sc.scheme, err)
			continue
		}
		for k, t := range sample {
			if digest(got[k:k+1]) != digest(first.sweeps[i].Trials[t:t+1]) {
				out.failed++
				out.fail("%s trial %d: replay differs from RecoverySweep", sc.scheme, t)
			}
		}
	}

	if o.trace {
		return traceRecovery(o, out, arena, time.Duration(median(walls)))
	}
	return nil
}

// schemeMetric turns a scheme name into a metric-name fragment.
func schemeMetric(s memctrl.Scheme) string {
	switch s {
	case memctrl.SchemeAGITPlus:
		return "agit_plus"
	}
	return s.String()
}

// trialTimes holds the host time of each call a replayed trial makes.
type trialTimes struct {
	clone, window, crash, recover float64 // ns
}

// replayTrials runs the listed trials of one scheme's sweep with the
// calls figures.RecoverySweep makes: one warm fill, a clone per trial
// taken up front, then window, Crash and Recover. With audit set, each
// recovered trial must also pass AuditNVM.
func replayTrials(tr *tracer, sc recScheme, arena *trace.Arena, trials []int, audit bool) ([]figures.RecoveryTrial, []trialTimes, error) {
	cfg := memctrl.DefaultConfig(sc.scheme)
	cfg.MemoryBytes = recMemory
	setupID := tr.newTrace()
	sp := tr.begin("memctrl.new", setupID, 0)
	warm, err := sim.NewController(sc.fam, cfg)
	tr.end(sp)
	if err != nil {
		return nil, nil, err
	}
	sp = tr.begin("sim.warm", setupID, 0)
	_, err = sim.Run(warm, arena.Source(), recWarm)
	tr.end(sp)
	if err != nil {
		return nil, nil, fmt.Errorf("warm fill: %w", err)
	}
	times := make([]trialTimes, len(trials))
	ids := make([]uint64, len(trials))
	children := make([]memctrl.Controller, len(trials))
	for k := range trials {
		ids[k] = tr.newTrace()
		t0 := time.Now()
		sp := tr.begin("memctrl.clone", ids[k], 0)
		children[k] = warm.Clone()
		tr.end(sp)
		times[k].clone = float64(time.Since(t0))
	}
	out := make([]figures.RecoveryTrial, len(trials))
	for k, t := range trials {
		extra := (t + 1) * recStride
		ctrl := children[k]
		root := tr.begin("recovery.trial", ids[k], 0)
		t0 := time.Now()
		sp := tr.begin("sim.window", ids[k], root.ID)
		window, err := sim.Run(ctrl, arena.SourceAt(recWarm), extra)
		tr.end(sp)
		t1 := time.Now()
		if err != nil {
			return nil, nil, fmt.Errorf("trial %d window: %w", t, err)
		}
		sp = tr.begin("memctrl.crash", ids[k], root.ID)
		ctrl.Crash()
		tr.end(sp)
		t2 := time.Now()
		sp = tr.begin("memctrl.recover", ids[k], root.ID)
		rep, err := ctrl.Recover()
		tr.end(sp)
		t3 := time.Now()
		tr.end(root)
		if err != nil {
			return nil, nil, fmt.Errorf("trial %d recover: %w", t, err)
		}
		times[k].window = float64(t1.Sub(t0))
		times[k].crash = float64(t2.Sub(t1))
		times[k].recover = float64(t3.Sub(t2))
		out[k] = figures.RecoveryTrial{Extra: extra, Window: window, Report: *rep}
		if audit {
			a, err := ctrl.AuditNVM()
			if err != nil {
				return nil, nil, fmt.Errorf("trial %d audit: %w", t, err)
			}
			if !a.OK() {
				return nil, nil, fmt.Errorf("trial %d audit: %d violations, first %q", t, len(a.Violations), a.Violations[0])
			}
		}
		children[k] = nil
	}
	return out, times, nil
}

// traceRecovery replays every trial with spans and checks the replay
// against the untraced sweep.
func traceRecovery(o options, out *outcome, arena *trace.Arena, untracedWall time.Duration) error {
	tr := newTracer()
	all := make([]int, recTrials)
	for i := range all {
		all[i] = i
	}
	var clone, crash, window []float64
	var trials []figures.RecoveryTrial
	start := time.Now()
	for _, sc := range recSchemes {
		got, times, err := replayTrials(tr, sc, arena, all, false)
		out.attempted += recTrials
		if err != nil {
			out.failed += recTrials
			return fmt.Errorf("traced %s: %w", sc.scheme, err)
		}
		trials = append(trials, got...)
		var rec []float64
		for _, t := range times {
			clone = append(clone, t.clone)
			crash = append(crash, t.crash)
			window = append(window, t.window)
			rec = append(rec, t.recover)
		}
		name := sc.scheme.String()
		out.layer("memctrl.recover_ms_p50."+name, median(rec)/1e6, "ms", len(rec))
		v, pct, ok := tailPercentile(rec, 10)
		out.check(ok, "%s: too few trials for a tail percentile", name)
		out.layer("memctrl.recover_ms_tail."+name, v/1e6, "ms", len(rec))
		out.note("memctrl.recover_ms_tail.%s is p%.0f of %d trials", name, pct, len(rec))
	}
	traced := time.Since(start)
	checkTrials(out, trials)
	out.digests = append(out.digests, digest(trials))
	out.layer("memctrl.clone_us_p50", median(clone)/1e3, "us", len(clone))
	out.layer("memctrl.crash_us_p50", median(crash)/1e3, "us", len(crash))
	out.layer("sim.window_ms_p50", median(window)/1e6, "ms", len(window))
	newNS := tr.byName("memctrl.new")
	out.layer("memctrl.new_ms_p50", median(newNS)/1e6, "ms", len(newNS))
	out.overhead(traced, untracedWall)
	return tr.write(o.spanPath())
}
