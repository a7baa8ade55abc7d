package figures

import (
	"fmt"
	"io"
	"math"
	"sort"

	"anubis/internal/memctrl"
	"anubis/internal/obs"
	"anubis/internal/parallel"
	"anubis/internal/sim"
	"anubis/internal/trace"
)

// Crash/recovery sweep with warm-state forking.
//
// The paper validates its recovery-time claims by crashing the same
// warmed-up system at many points and measuring each recovery (the
// Phoenix/Triad-NVM evaluation shape). Re-building a controller and
// replaying the fill phase per trial makes the fill dominate the sweep;
// instead, RecoverySweep warms ONE controller per (scheme, app, seed)
// and advances it — the spine — through the crash points, one stride
// at a time. At each crash point it forks the spine via Controller.Clone
// (the NVM image is shared copy-on-write), closes the measurement
// window on the fork, then crashes and recovers the fork. N trials
// therefore pay one fill, N×stride window requests and N recoveries.
// Forked trials are byte-identical to cold-started ones, which re-fill
// a fresh controller per trial and run its whole window at once
// (TestRecoverySweepForkEqualsCold compares the two).

// RecoverySweepConfig parameterizes a crash/recovery sweep.
type RecoverySweepConfig struct {
	// Run supplies scale, seed, cache overrides, the worker pool, and
	// the shared trace arenas.
	Run RunConfig
	// Scheme/Family select the controller under test.
	Scheme memctrl.Scheme
	Family memctrl.Family
	// App names the workload profile (default: first of Run's set).
	App string
	// Warm is the fill-phase length in requests: the state every trial
	// starts from. Defaults to Run.Requests.
	Warm int
	// Trials is the number of crash points. Trial t's window holds the
	// (t+1)*ExtraPerTrial requests past the warm point; the trial then
	// crashes and recovers, so crash points spread over a growing
	// window. A forked sweep simulates each window request once and
	// keeps at most one trial controller per worker alive.
	Trials int
	// ExtraPerTrial is the crash-point stride (default 200 requests).
	ExtraPerTrial int
}

// RecoveryTrial is one crash point's outcome.
type RecoveryTrial struct {
	Extra  int                    `json:"extra"`  // requests executed past the warm point before the crash
	Window sim.Result             `json:"window"` // the post-warm measurement window
	Report memctrl.RecoveryReport `json:"report"`
}

// RecoverySweepResult aggregates a sweep.
type RecoverySweepResult struct {
	Scheme memctrl.Scheme  `json:"scheme"`
	App    string          `json:"app"`
	Warm   int             `json:"warm"`
	Trials []RecoveryTrial `json:"trials"`

	// ReadLat/WriteLat merge every trial's measurement-window histogram
	// (via obs.Hist.Merge), in trial order.
	ReadLat  obs.Hist `json:"read_latency"`
	WriteLat obs.Hist `json:"write_latency"`

	// PhaseTotals merges every trial's recovery-phase ledger; its total
	// equals the sum of the trials' modeled recovery times exactly
	// (each trial's ledger is sum-exact, DESIGN.md §16).
	PhaseTotals obs.RecLedger `json:"recovery_phase_ns"`
}

// ModeledRecoveryNS returns the min/mean/max of the modeled recovery
// time across trials.
func (r *RecoverySweepResult) ModeledRecoveryNS() (min, mean, max uint64) {
	if len(r.Trials) == 0 {
		return 0, 0, 0
	}
	var sum uint64
	for i, t := range r.Trials {
		ns := t.Report.ModeledNS()
		sum += ns
		if i == 0 || ns < min {
			min = ns
		}
		if ns > max {
			max = ns
		}
	}
	return min, sum / uint64(len(r.Trials)), max
}

// RecoveryPercentileNS returns the p-th percentile (0 < p <= 100) of
// the modeled recovery-time distribution across trials, by nearest
// rank: the ceil(n·p/100)-th smallest value, as obs.Hist.Percentile
// ranks its samples.
func (r *RecoverySweepResult) RecoveryPercentileNS(p float64) uint64 {
	if len(r.Trials) == 0 {
		return 0
	}
	ns := make([]uint64, len(r.Trials))
	for i, t := range r.Trials {
		ns[i] = t.Report.ModeledNS()
	}
	sort.Slice(ns, func(i, j int) bool { return ns[i] < ns[j] })
	k := int(math.Ceil(float64(len(ns))*p/100)) - 1
	if k < 0 {
		k = 0
	}
	if k >= len(ns) {
		k = len(ns) - 1
	}
	return ns[k]
}

// arena applies c's defaults and returns the request stream every
// trial reads: the warm fill and every window. Trial windows resume
// consumption mid-stream, which needs a materialized arena; it is a
// private one if the RunConfig doesn't carry a cache.
func (c *RecoverySweepConfig) arena() (*trace.Arena, error) {
	profiles, err := c.Run.profiles()
	if err != nil {
		return nil, err
	}
	if c.Warm <= 0 {
		c.Warm = c.Run.Requests
	}
	if c.Trials <= 0 {
		c.Trials = 10
	}
	if c.ExtraPerTrial <= 0 {
		c.ExtraPerTrial = 200
	}
	if c.App == "" {
		c.App = profiles[0].Name
	}
	p, ok := trace.ByName(c.App)
	if !ok {
		return nil, fmt.Errorf("figures: unknown app %q", c.App)
	}
	maxReq := c.Warm + c.Trials*c.ExtraPerTrial
	if c.Run.Arenas != nil {
		return c.Run.Arenas.Get(p, c.Run.Seed, maxReq), nil
	}
	return trace.NewArena(p, c.Run.Seed, maxReq), nil
}

// RecoverySweep executes the sweep and returns the per-trial recovery
// reports plus the merged measurement-window histograms. Results are
// deterministic and independent of the worker count.
func RecoverySweep(c RecoverySweepConfig) (*RecoverySweepResult, error) {
	arena, err := c.arena()
	if err != nil {
		return nil, err
	}
	trials, err := c.forkedTrials(arena, c.Run.config(c.Scheme))
	if err != nil {
		return nil, err
	}
	return c.result(trials), nil
}

// result aggregates a sweep's trials.
func (c *RecoverySweepConfig) result(trials []RecoveryTrial) *RecoverySweepResult {
	out := &RecoverySweepResult{Scheme: c.Scheme, App: c.App, Warm: c.Warm, Trials: trials}
	for t := range trials {
		out.ReadLat.Merge(&trials[t].Window.ReadLat)
		out.WriteLat.Merge(&trials[t].Window.WriteLat)
		out.PhaseTotals.Merge(&trials[t].Report.Phases)
	}
	return out
}

// forkedTrials fills one warm controller, then advances it as the
// spine: each crash point is ExtraPerTrial more requests, forked off
// with its window closed on the fork (sim.Runner.Fork). Forks are
// taken sequentially in batches of the pool's size — forking freezes
// the spine's page stores, which must not race with the spine
// advancing — and each batch is crashed and recovered on the pool
// before the next is taken. Forks only read the shared frozen pages
// and copy-on-write into their own directories, so a batch's trials
// are independent.
func (c *RecoverySweepConfig) forkedTrials(arena *trace.Arena, cfg memctrl.Config) ([]RecoveryTrial, error) {
	warm, err := memctrl.New(c.Family, cfg)
	if err != nil {
		return nil, err
	}
	if _, err := sim.Run(warm, arena.Source(), c.Warm); err != nil {
		return nil, fmt.Errorf("figures: recovery warm-up: %w", err)
	}
	spine := sim.NewRunner(warm, arena.SourceAt(c.Warm))
	pool := c.Run.pool()
	trials := make([]RecoveryTrial, c.Trials)
	forks := make([]memctrl.Controller, min(pool.Size(), c.Trials))
	for first := 0; first < c.Trials; first += len(forks) {
		n := min(len(forks), c.Trials-first)
		for k := 0; k < n; k++ {
			t := first + k
			if err := spine.Step(c.ExtraPerTrial); err != nil {
				return nil, fmt.Errorf("figures: trial %d window: %w", t, err)
			}
			fork, window := spine.Fork()
			forks[k] = fork
			trials[t] = RecoveryTrial{Extra: (t + 1) * c.ExtraPerTrial, Window: window}
		}
		err := parallel.Do(pool, n, func(k int) error {
			t := first + k
			rep, err := crashRecover(t, forks[k])
			forks[k] = nil // recovered: let the fork's pages go
			trials[t].Report = rep
			return err
		})
		if err != nil {
			return nil, err
		}
	}
	return trials, nil
}

// crashRecover crashes trial t's controller and recovers it.
func crashRecover(t int, ctrl memctrl.Controller) (memctrl.RecoveryReport, error) {
	ctrl.Crash()
	rep, err := ctrl.Recover()
	if err != nil {
		return memctrl.RecoveryReport{}, fmt.Errorf("figures: trial %d recovery: %w", t, err)
	}
	return *rep, nil
}

// PrintRecoverySweep renders a sweep for both Anubis schemes.
func PrintRecoverySweep(w io.Writer, rc RunConfig, trials int) error {
	fmt.Fprintln(w, "Recovery-time distribution (forked warm state; modeled at 100 ns/op)")
	fmt.Fprintf(w, "  %-10s %-12s %8s %12s %12s %12s %12s  %s\n",
		"scheme", "app", "trials", "min", "mean", "p95", "max", "dominant phase")
	for _, sc := range []struct {
		scheme memctrl.Scheme
		family memctrl.Family
	}{
		{memctrl.SchemeAGITPlus, memctrl.FamilyBonsai},
		{memctrl.SchemeASIT, memctrl.FamilySGX},
	} {
		res, err := RecoverySweep(RecoverySweepConfig{
			Run: rc, Scheme: sc.scheme, Family: sc.family, Trials: trials,
		})
		if err != nil {
			return err
		}
		min, mean, max := res.ModeledRecoveryNS()
		fmt.Fprintf(w, "  %-10s %-12s %8d %10dns %10dns %10dns %10dns  %s\n",
			sc.scheme, res.App, len(res.Trials), min, mean, res.RecoveryPercentileNS(95), max,
			dominantPhase(&res.PhaseTotals))
	}
	return nil
}

// dominantPhase names the phase carrying the largest share of the
// sweep's merged recovery time, with its percentage.
func dominantPhase(l *obs.RecLedger) string {
	total := l.Total()
	if total == 0 {
		return "-"
	}
	best := obs.RPImageLoad
	for _, p := range obs.RecPhases() {
		if l.Get(p) > l.Get(best) {
			best = p
		}
	}
	return fmt.Sprintf("%s %.0f%%", best, 100*float64(l.Get(best))/float64(total))
}
