// Command bench_compare diffs two anubis-bench JSON reports (see
// `make bench-json`), aligning figure entries by name and printing the
// wall-time delta for each, plus the totals. It is a reporting tool:
// by default it always exits 0, so CI can surface drift without gating
// on noisy wall-clock numbers. Pass -max-regress to turn it into a
// gate for controlled environments.
//
// Usage:
//
//	go run ./scripts/bench_compare results/BENCH_2.json results/BENCH_3.json
//	go run ./scripts/bench_compare -max-regress 25 old.json new.json
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"sort"
)

// figureTiming mirrors cmd/anubis-bench's report entry (decoded
// structurally so the tool works on any report version carrying these
// fields).
type figureTiming struct {
	Name    string             `json:"name"`
	WallMS  float64            `json:"wall_ms"`
	Cells   int                `json:"cells"`
	Metrics map[string]float64 `json:"metrics"`
}

type report struct {
	SchemaVersion int            `json:"schema_version"`
	Timestamp     string         `json:"timestamp"`
	GoVersion     string         `json:"go_version"`
	Parallel      int            `json:"parallel"`
	TotalWallMS   float64        `json:"total_wall_ms"`
	TotalCells    int            `json:"total_cells"`
	Figures       []figureTiming `json:"figures"`

	// Attribution (schema_version >= 2): per-component stall ledger in
	// simulated nanoseconds, summed over all cells; RequestsSimulated
	// normalizes it to ns/request for scale-independent comparison.
	Attribution       map[string]uint64 `json:"attribution_ns"`
	RequestsSimulated uint64            `json:"requests_simulated"`

	// RecoveryPhases (schema_version >= 3): per-phase recovery-time
	// ledger summed over the recovery-sweep trials; RecoveryTrials
	// normalizes it to ns/trial.
	RecoveryPhases map[string]uint64 `json:"recovery_phase_ns"`
	RecoveryTrials uint64            `json:"recovery_trials"`
}

func load(path string) (*report, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var r report
	if err := json.Unmarshal(data, &r); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &r, nil
}

func main() {
	maxRegress := flag.Float64("max-regress", 0,
		"fail (exit 1) if any shared figure regresses by more than this percent (0 = report only)")
	epochSweep := flag.Bool("epoch-sweep", false,
		"diff the epoch-pipeline records (epoch:1/4/16/64) of the two reports; simulated metrics are deterministic, so ANY drift at epoch:1 — against the legacy quick_seq:fig10 record or between the reports — fails (exit 1)")
	exactMetrics := flag.Bool("exact-metrics", false,
		"require every metric shared by same-named figures in the two reports to be bit-identical (exit 1 on any drift); the consolidated form of the old text-diff determinism smokes (make bench-epoch)")
	maxAttrRegress := flag.Float64("max-attr-regress", 0,
		"fail (exit 1) if any stall component's simulated ns/request grows by more than this percent (0 = report only); simulated time is deterministic, so tight thresholds are safe")
	minAttrNS := flag.Float64("min-attr-ns", 1.0,
		"ignore attribution components below this many ns/request in both reports (relative drift on near-zero components is noise)")
	maxPhaseRegress := flag.Float64("max-recovery-phase-regress", 0,
		"fail (exit 1) if any recovery phase's simulated ns/trial grows by more than this percent (0 = report only); skipped silently when either report predates schema_version 3")
	flag.Parse()
	if flag.NArg() != 2 {
		fmt.Fprintln(os.Stderr, "usage: bench_compare [-max-regress pct] OLD.json NEW.json")
		os.Exit(2)
	}
	oldRep, err := load(flag.Arg(0))
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench_compare:", err)
		os.Exit(1)
	}
	newRep, err := load(flag.Arg(1))
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench_compare:", err)
		os.Exit(1)
	}

	oldBy := make(map[string]figureTiming, len(oldRep.Figures))
	for _, f := range oldRep.Figures {
		oldBy[f.Name] = f
	}

	fmt.Printf("old: %s (%s, parallel=%d)\n", flag.Arg(0), oldRep.Timestamp, oldRep.Parallel)
	fmt.Printf("new: %s (%s, parallel=%d)\n\n", flag.Arg(1), newRep.Timestamp, newRep.Parallel)
	fmt.Printf("  %-28s %12s %12s %9s\n", "figure", "old ms", "new ms", "delta")

	worst := 0.0
	shared := 0
	for _, nf := range newRep.Figures {
		of, ok := oldBy[nf.Name]
		if !ok {
			fmt.Printf("  %-28s %12s %12.1f      new\n", nf.Name, "-", nf.WallMS)
			continue
		}
		delete(oldBy, nf.Name)
		shared++
		delta := 0.0
		if of.WallMS > 0 {
			delta = (nf.WallMS - of.WallMS) / of.WallMS * 100
		}
		if delta > worst {
			worst = delta
		}
		fmt.Printf("  %-28s %12.1f %12.1f %+8.1f%%\n", nf.Name, of.WallMS, nf.WallMS, delta)
	}
	for name, of := range oldBy {
		fmt.Printf("  %-28s %12.1f %12s  removed\n", name, of.WallMS, "-")
	}

	fmt.Printf("\n  %-28s %12.1f %12.1f\n", "total", oldRep.TotalWallMS, newRep.TotalWallMS)

	worstAttr := compareAttribution(oldRep, newRep, *minAttrNS)
	worstPhase := compareRecoveryPhases(oldRep, newRep)

	if *epochSweep {
		if !compareEpochSweep(oldRep, newRep) {
			os.Exit(1)
		}
	}
	if *exactMetrics {
		if !compareExactMetrics(oldRep, newRep) {
			os.Exit(1)
		}
	}

	if shared == 0 && len(oldRep.Attribution) == 0 {
		fmt.Println("no shared figures; nothing to compare")
		return
	}
	failed := false
	if *maxRegress > 0 && worst > *maxRegress {
		fmt.Fprintf(os.Stderr, "bench_compare: worst wall regression %.1f%% exceeds -max-regress %.1f%%\n",
			worst, *maxRegress)
		failed = true
	}
	if *maxAttrRegress > 0 && worstAttr > *maxAttrRegress {
		fmt.Fprintf(os.Stderr, "bench_compare: worst attribution regression %.1f%% exceeds -max-attr-regress %.1f%%\n",
			worstAttr, *maxAttrRegress)
		failed = true
	}
	if *maxPhaseRegress > 0 && worstPhase > *maxPhaseRegress {
		fmt.Fprintf(os.Stderr, "bench_compare: worst recovery-phase regression %.1f%% exceeds -max-recovery-phase-regress %.1f%%\n",
			worstPhase, *maxPhaseRegress)
		failed = true
	}
	if failed {
		os.Exit(1)
	}
}

// epochSizes are the coalescing-window sizes the suite records.
var epochSizes = []int{1, 4, 16, 64}

// compareEpochSweep diffs the epoch-pipeline records of two reports.
// Simulated metrics (normalized averages, total simulated ns) are
// deterministic for a fixed seed, so comparisons are exact: any drift
// at epoch:1 — the window size contractually byte-identical to the
// legacy path — is a determinism violation and fails the run. Larger
// windows legitimately change simulated timing; their drift is
// reported but never gates. Returns false on failure.
func compareEpochSweep(oldRep, newRep *report,
) bool {
	byName := func(r *report) map[string]figureTiming {
		m := make(map[string]figureTiming, len(r.Figures))
		for _, f := range r.Figures {
			m[f.Name] = f
		}
		return m
	}
	oldBy, newBy := byName(oldRep), byName(newRep)

	fmt.Printf("\n  epoch-pipeline sweep (simulated metrics; exact comparison)\n")
	ok := true

	// Determinism anchor inside each report: epoch:1 must reproduce the
	// legacy quick_seq:fig10 metrics bit for bit.
	for _, side := range []struct {
		label string
		by    map[string]figureTiming
	}{{"old", oldBy}, {"new", newBy}} {
		e1, hasE1 := side.by["epoch:1"]
		legacy, hasLegacy := side.by["quick_seq:fig10"]
		if !hasE1 || !hasLegacy {
			continue
		}
		for k, lv := range legacy.Metrics {
			ev, shared := e1.Metrics[k]
			if !shared {
				continue
			}
			if ev != lv {
				fmt.Fprintf(os.Stderr, "bench_compare: %s report: epoch:1 %s = %v, legacy quick_seq:fig10 = %v (determinism drift)\n",
					side.label, k, ev, lv)
				ok = false
			}
		}
	}

	for _, e := range epochSizes {
		name := fmt.Sprintf("epoch:%d", e)
		of, oldHas := oldBy[name]
		nf, newHas := newBy[name]
		switch {
		case !oldHas && !newHas:
			continue
		case !oldHas || !newHas:
			fmt.Printf("  %-28s only in %s report\n", name, map[bool]string{true: "new", false: "old"}[newHas])
			continue
		}
		drift := false
		keys := make([]string, 0, len(nf.Metrics))
		for k := range nf.Metrics {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		for _, k := range keys {
			ov, shared := of.Metrics[k]
			if !shared {
				continue
			}
			if nv := nf.Metrics[k]; nv != ov {
				drift = true
				fmt.Printf("  %-28s %s: %v -> %v\n", name, k, ov, nv)
				if e == 1 {
					fmt.Fprintf(os.Stderr, "bench_compare: epoch:1 %s drifted between reports (determinism violation)\n", k)
					ok = false
				}
			}
		}
		if !drift {
			fmt.Printf("  %-28s identical\n", name)
		}
	}
	return ok
}

// compareExactMetrics requires every metric shared by same-named
// figures to be bit-identical between the two reports, plus identical
// per-component attribution ledgers when both reports carry them. This
// is the consolidated replacement for the old text-diff smokes (cmp on
// results/epoch*.txt): the two reports come from the same
// binary at two settings of a contractually metric-neutral knob, so
// any drift at all is a determinism violation. Returns false on drift.
func compareExactMetrics(oldRep, newRep *report) bool {
	byName := make(map[string]figureTiming, len(oldRep.Figures))
	for _, f := range oldRep.Figures {
		byName[f.Name] = f
	}
	fmt.Printf("\n  exact-metric gate (every shared metric must be bit-identical)\n")
	ok := true
	for _, nf := range newRep.Figures {
		of, has := byName[nf.Name]
		if !has {
			continue
		}
		keys := make([]string, 0, len(nf.Metrics))
		for k := range nf.Metrics {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		clean := true
		for _, k := range keys {
			ov, shared := of.Metrics[k]
			if !shared {
				continue
			}
			if nv := nf.Metrics[k]; nv != ov {
				fmt.Fprintf(os.Stderr, "bench_compare: %s: %s = %v vs %v (exact-metric violation)\n",
					nf.Name, k, ov, nv)
				clean = false
			}
		}
		if clean {
			fmt.Printf("  %-28s identical\n", nf.Name)
		} else {
			ok = false
		}
	}
	if len(oldRep.Attribution) > 0 && len(newRep.Attribution) > 0 {
		if oldRep.RequestsSimulated != newRep.RequestsSimulated {
			fmt.Fprintf(os.Stderr, "bench_compare: requests_simulated %d vs %d (exact-metric violation)\n",
				oldRep.RequestsSimulated, newRep.RequestsSimulated)
			ok = false
		}
		names := make(map[string]bool, len(oldRep.Attribution)+len(newRep.Attribution))
		for n := range oldRep.Attribution {
			names[n] = true
		}
		for n := range newRep.Attribution {
			names[n] = true
		}
		sorted := make([]string, 0, len(names))
		for n := range names {
			sorted = append(sorted, n)
		}
		sort.Strings(sorted)
		for _, n := range sorted {
			if oldRep.Attribution[n] != newRep.Attribution[n] {
				fmt.Fprintf(os.Stderr, "bench_compare: attribution %s: %d vs %d ns (exact-metric violation)\n",
					n, oldRep.Attribution[n], newRep.Attribution[n])
				ok = false
			}
		}
	}
	return ok
}

// compareRecoveryPhases diffs the per-phase recovery-time ledgers of
// two reports, normalized to simulated ns per recovery trial, and
// returns the worst percentage increase. Reports lacking phase data
// (schema_version < 3, or runs that skipped the recovery sweep) are
// skipped silently, mirroring the attribution gate.
func compareRecoveryPhases(oldRep, newRep *report) float64 {
	if len(oldRep.RecoveryPhases) == 0 || len(newRep.RecoveryPhases) == 0 ||
		oldRep.RecoveryTrials == 0 || newRep.RecoveryTrials == 0 {
		return 0
	}
	names := make([]string, 0, len(newRep.RecoveryPhases))
	for name := range newRep.RecoveryPhases {
		names = append(names, name)
	}
	sort.Strings(names)

	fmt.Printf("\n  recovery-phase attribution (simulated ns/trial; deterministic for a fixed seed)\n")
	fmt.Printf("  %-28s %12s %12s %9s\n", "phase", "old ns/trl", "new ns/trl", "delta")
	worst := 0.0
	for _, name := range names {
		oldNS := float64(oldRep.RecoveryPhases[name]) / float64(oldRep.RecoveryTrials)
		newNS := float64(newRep.RecoveryPhases[name]) / float64(newRep.RecoveryTrials)
		if oldNS == 0 && newNS == 0 {
			continue
		}
		delta := 0.0
		switch {
		case oldNS > 0:
			delta = (newNS - oldNS) / oldNS * 100
		case newNS > 0:
			delta = 100 // phase appeared from zero
		}
		if delta > worst {
			worst = delta
		}
		fmt.Printf("  %-28s %12.1f %12.1f %+8.1f%%\n", name, oldNS, newNS, delta)
	}
	return worst
}

// compareAttribution diffs the per-component stall ledgers of two
// reports, normalized to simulated ns per request, and returns the
// worst percentage increase among components at or above floorNS in
// either report. Reports lacking attribution (schema_version < 2, or
// runs with no simulation cells) are skipped silently.
func compareAttribution(oldRep, newRep *report, floorNS float64) float64 {
	if len(oldRep.Attribution) == 0 || len(newRep.Attribution) == 0 ||
		oldRep.RequestsSimulated == 0 || newRep.RequestsSimulated == 0 {
		return 0
	}
	names := make([]string, 0, len(newRep.Attribution))
	for name := range newRep.Attribution {
		names = append(names, name)
	}
	sort.Strings(names)

	fmt.Printf("\n  stall attribution (simulated ns/request; deterministic for a fixed seed)\n")
	fmt.Printf("  %-28s %12s %12s %9s\n", "component", "old ns/req", "new ns/req", "delta")
	worst := 0.0
	for _, name := range names {
		oldNS := float64(oldRep.Attribution[name]) / float64(oldRep.RequestsSimulated)
		newNS := float64(newRep.Attribution[name]) / float64(newRep.RequestsSimulated)
		if oldNS < floorNS && newNS < floorNS {
			continue
		}
		delta := 0.0
		switch {
		case oldNS > 0:
			delta = (newNS - oldNS) / oldNS * 100
		case newNS > 0:
			delta = 100 // component appeared from zero
		}
		if delta > worst {
			worst = delta
		}
		fmt.Printf("  %-28s %12.1f %12.1f %+8.1f%%\n", name, oldNS, newNS, delta)
	}
	return worst
}
