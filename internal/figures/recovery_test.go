package figures

import (
	"bytes"
	"fmt"
	"reflect"
	"testing"

	"anubis/internal/memctrl"
	"anubis/internal/parallel"
	"anubis/internal/recmodel"
	"anubis/internal/sim"
)

// sweepQuick is a small but non-trivial sweep configuration: enough
// warm-up to dirty the caches and shadow tables, several crash points,
// and a parallel pool so the fork path's concurrency is exercised.
func sweepQuick(scheme memctrl.Scheme, family memctrl.Family) RecoverySweepConfig {
	rc := QuickRunConfig()
	rc.MemoryBytes = 32 << 20
	rc.Requests = 2500
	rc.Parallel = 4
	return RecoverySweepConfig{
		Run:           rc,
		Scheme:        scheme,
		Family:        family,
		App:           "libquantum",
		Trials:        6,
		ExtraPerTrial: 150,
	}
}

// coldSweep is the reference RecoverySweep forking is checked against:
// every trial builds a fresh controller, replays the identical fill
// phase as its own first Run call, then runs its whole window in one
// Run call.
func coldSweep(c RecoverySweepConfig) (*RecoverySweepResult, error) {
	arena, err := c.arena()
	if err != nil {
		return nil, err
	}
	cfg := c.Run.config(c.Scheme)
	trials, err := parallel.Map(c.Run.pool(), c.Trials, func(t int) (RecoveryTrial, error) {
		extra := (t + 1) * c.ExtraPerTrial
		ctrl, err := memctrl.New(c.Family, cfg)
		if err != nil {
			return RecoveryTrial{}, err
		}
		if _, err := sim.Run(ctrl, arena.Source(), c.Warm); err != nil {
			return RecoveryTrial{}, fmt.Errorf("figures: trial %d cold fill: %w", t, err)
		}
		window, err := sim.Run(ctrl, arena.SourceAt(c.Warm), extra)
		if err != nil {
			return RecoveryTrial{}, fmt.Errorf("figures: trial %d window: %w", t, err)
		}
		rep, err := crashRecover(t, ctrl)
		return RecoveryTrial{Extra: extra, Window: window, Report: rep}, err
	})
	if err != nil {
		return nil, err
	}
	return c.result(trials), nil
}

// TestRecoverySweepForkEqualsCold is the harness-level golden
// equivalence check promised in the RecoverySweep doc comment: every
// trial of a spine-forked sweep — measurement-window results, recovery
// reports, and merged histograms — must be identical to the cold-start
// sweep that re-fills a fresh controller per trial and runs its whole
// window at once. Seven trials leave a partial last batch at four
// workers. The subtests keep the epoch0- prefix the eager rows carried
// while the tree-update window was a sweep dimension.
func TestRecoverySweepForkEqualsCold(t *testing.T) {
	for _, sc := range []struct {
		name   string
		scheme memctrl.Scheme
		family memctrl.Family
	}{
		{"agit-plus", memctrl.SchemeAGITPlus, memctrl.FamilyBonsai},
		{"asit", memctrl.SchemeASIT, memctrl.FamilySGX},
		{"osiris", memctrl.SchemeOsiris, memctrl.FamilyBonsai},
		{"agit-read", memctrl.SchemeAGITRead, memctrl.FamilyBonsai},
		{"strict", memctrl.SchemeStrict, memctrl.FamilyBonsai},
	} {
		t.Run(sc.name, func(t *testing.T) {
			cfg := sweepQuick(sc.scheme, sc.family)
			cfg.Trials = 7
			cold, err := coldSweep(cfg)
			if err != nil {
				t.Fatalf("cold: %v", err)
			}
			for _, workers := range []int{1, 4} {
				t.Run(fmt.Sprintf("epoch0-parallel%d", workers), func(t *testing.T) {
					fc := cfg
					fc.Run.Parallel = workers
					forked, err := RecoverySweep(fc)
					if err != nil {
						t.Fatal(err)
					}
					if len(forked.Trials) != len(cold.Trials) {
						t.Fatalf("trial counts differ: %d vs %d", len(forked.Trials), len(cold.Trials))
					}
					for i := range forked.Trials {
						if !reflect.DeepEqual(forked.Trials[i], cold.Trials[i]) {
							t.Errorf("trial %d diverged\nforked: %+v\ncold:   %+v",
								i, forked.Trials[i], cold.Trials[i])
						}
					}
					if !reflect.DeepEqual(forked.ReadLat, cold.ReadLat) {
						t.Error("merged read-latency histograms diverged")
					}
					if !reflect.DeepEqual(forked.WriteLat, cold.WriteLat) {
						t.Error("merged write-latency histograms diverged")
					}
					if forked.PhaseTotals != cold.PhaseTotals {
						t.Error("merged recovery-phase ledgers diverged")
					}
				})
			}
		})
	}
}

// TestRecoveryPercentileNearestRank pins RecoveryPercentileNS to the
// nearest-rank definition obs.Hist.Percentile uses: the p-th
// percentile of n trials is the ceil(n·p/100)-th smallest.
func TestRecoveryPercentileNearestRank(t *testing.T) {
	for _, tc := range []struct {
		n    int
		p    float64
		rank int // 1-based
	}{
		{1, 50, 1}, {1, 95, 1}, {1, 100, 1},
		{5, 50, 3}, {5, 95, 5}, {5, 100, 5},
		{10, 50, 5}, {10, 95, 10}, {10, 100, 10},
		{50, 50, 25}, {50, 95, 48}, {50, 100, 50},
		{100, 50, 50}, {100, 95, 95}, {100, 100, 100},
	} {
		// Trial i models (n-i)*100 ns: descending, so the helper must
		// sort before ranking.
		r := &RecoverySweepResult{Trials: make([]RecoveryTrial, tc.n)}
		for i := range r.Trials {
			r.Trials[i].Report.FetchOps = uint64(tc.n - i)
		}
		want := uint64(tc.rank) * recmodel.OpNS
		if got := r.RecoveryPercentileNS(tc.p); got != want {
			t.Errorf("n=%d p%.0f = %d ns, want rank %d (%d ns)", tc.n, tc.p, got, tc.rank, want)
		}
	}
}

// TestRecoverySweepDeterministicAcrossWorkers pins the sweep output to
// the worker count: 1 worker (sequential) and many workers must agree.
func TestRecoverySweepDeterministicAcrossWorkers(t *testing.T) {
	base := sweepQuick(memctrl.SchemeAGITPlus, memctrl.FamilyBonsai)
	base.Run.Parallel = 1
	seq, err := RecoverySweep(base)
	if err != nil {
		t.Fatal(err)
	}
	par := sweepQuick(memctrl.SchemeAGITPlus, memctrl.FamilyBonsai)
	par.Run.Parallel = 8
	got, err := RecoverySweep(par)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(seq, got) {
		t.Fatal("sweep output depends on worker count")
	}
}

// TestRecoverySweepShape sanity-checks aggregation: trials carry
// growing crash windows, recovery times are positive, and the
// percentile/mean helpers stay within [min, max].
func TestRecoverySweepShape(t *testing.T) {
	res, err := RecoverySweep(sweepQuick(memctrl.SchemeASIT, memctrl.FamilySGX))
	if err != nil {
		t.Fatal(err)
	}
	for i, tr := range res.Trials {
		if want := (i + 1) * 150; tr.Extra != want {
			t.Fatalf("trial %d extra = %d, want %d", i, tr.Extra, want)
		}
		if tr.Report.ModeledNS() == 0 {
			t.Fatalf("trial %d modeled recovery time is zero", i)
		}
	}
	min, mean, max := res.ModeledRecoveryNS()
	if min == 0 || min > mean || mean > max {
		t.Fatalf("min/mean/max not ordered: %d/%d/%d", min, mean, max)
	}
	if p95 := res.RecoveryPercentileNS(95); p95 < min || p95 > max {
		t.Fatalf("p95 %d outside [min=%d, max=%d]", p95, min, max)
	}
	if res.ReadLat.Count == 0 || res.WriteLat.Count == 0 {
		t.Fatal("merged histograms are empty")
	}
}

// TestPrintRecoverySweepRuns smoke-tests the CLI-facing renderer.
func TestPrintRecoverySweepRuns(t *testing.T) {
	rc := QuickRunConfig()
	rc.MemoryBytes = 32 << 20
	rc.Requests = 1500
	rc.Apps = []string{"libquantum"}
	var buf bytes.Buffer
	if err := PrintRecoverySweep(&buf, rc, 4); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"agit-plus", "asit", "Recovery-time distribution"} {
		if !bytes.Contains(buf.Bytes(), []byte(want)) {
			t.Fatalf("output missing %q:\n%s", want, out)
		}
	}
}

// benchSweep is the fork-vs-cold A/B shape at benchmark scale: a long
// warm fill with crash points scattered over a short post-warm window,
// run sequentially so the ratio reflects pure work, not pool effects.
func benchSweep(b *testing.B, cold bool) {
	rc := QuickRunConfig()
	rc.MemoryBytes = 32 << 20
	rc.Requests = 20000
	rc.Parallel = 1
	sweep := RecoverySweep
	if cold {
		sweep = coldSweep
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_, err := sweep(RecoverySweepConfig{
			Run:           rc,
			Scheme:        memctrl.SchemeAGITPlus,
			Family:        memctrl.FamilyBonsai,
			App:           "libquantum",
			Trials:        20,
			ExtraPerTrial: 40,
		})
		if err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkRecoverySweepForked measures the one-fill-N-forks sweep.
func BenchmarkRecoverySweepForked(b *testing.B) { benchSweep(b, false) }

// BenchmarkRecoverySweepCold measures the per-trial re-fill baseline.
func BenchmarkRecoverySweepCold(b *testing.B) { benchSweep(b, true) }
