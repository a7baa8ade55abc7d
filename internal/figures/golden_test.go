//go:build !race

package figures

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"testing"

	"anubis/internal/memctrl"
	"anubis/internal/obs"
	"anubis/internal/sim"
)

// goldenPath holds every simulated number the paper's evaluation
// reports at seed 99, as integers. Simulated time is deterministic, so
// TestGoldenSeed99 compares them exactly and fails on a change in
// either direction. The test is left out of -race builds: the detector
// makes the paper-scale sweeps many times slower and adds nothing to a
// comparison of outputs.
const goldenPath = "testdata/golden_seed99.json"

// goldenRow is one row of the golden table: named integer fields.
type goldenRow map[string]uint64

// goldenTable maps row keys such as "fig10/paper/mcf/agit-plus" or
// "recovery/asit/trial07" to their rows.
type goldenTable map[string]goldenRow

// cellRow records a simulation cell's execution time, NVM traffic and
// the nine stall components.
func cellRow(res sim.Result) goldenRow {
	row := goldenRow{
		"exec_ns":    res.ExecNS,
		"nvm_reads":  res.Stats.NVM.Reads,
		"nvm_writes": res.Stats.NVM.Writes,
	}
	for _, c := range obs.Comps() {
		row[c.String()] = res.Stats.Attribution.Get(c)
	}
	return row
}

// perfCells runs Figure 10 or 11 and returns one row per cell, keyed
// prefix/app/scheme.
func perfCells(t *testing.T, rc RunConfig, fig func(RunConfig) ([]PerfRow, map[memctrl.Scheme]float64, error), prefix string) goldenTable {
	t.Helper()
	var mu sync.Mutex
	rows := goldenTable{}
	rc.OnCell = func(res sim.Result) {
		mu.Lock()
		rows[fmt.Sprintf("%s/%s/%s", prefix, res.Workload, res.Scheme)] = cellRow(res)
		mu.Unlock()
	}
	if _, _, err := fig(rc); err != nil {
		t.Fatalf("%s: %v", prefix, err)
	}
	return rows
}

// seed99Table computes the golden table from scratch.
func seed99Table(t *testing.T) goldenTable {
	t.Helper()
	table := goldenTable{}
	add := func(rows goldenTable) {
		for k, v := range rows {
			table[k] = v
		}
	}

	// Quick scale: three apps at 2,000 requests.
	quick := DefaultRunConfig()
	quick.Requests = 2000
	quick.Apps = []string{"mcf", "lbm", "libquantum"}
	add(perfCells(t, quick, Fig10, "fig10/quick"))
	add(perfCells(t, quick, Fig11, "fig11/quick"))
	add(quickTables(t, quick))

	// Paper scale: all eleven apps at 40,000 requests, as the benchmark's
	// sweep workload runs them.
	paper := DefaultRunConfig()
	add(perfCells(t, paper, Fig10, "fig10/paper"))
	add(perfCells(t, paper, Fig11, "fig11/paper"))

	// Forked recovery sweeps in the shape of the benchmark's recovery
	// workload: libquantum at 32 MiB, a 20,000-request fill, and a crash
	// every 40 requests.
	rec := DefaultRunConfig()
	rec.MemoryBytes = 32 << 20
	rec.Requests = 20000
	for _, sc := range []struct {
		scheme memctrl.Scheme
		family memctrl.Family
	}{
		{memctrl.SchemeAGITPlus, memctrl.FamilyBonsai},
		{memctrl.SchemeASIT, memctrl.FamilySGX},
		{memctrl.SchemeOsiris, memctrl.FamilyBonsai},
	} {
		res, err := RecoverySweep(RecoverySweepConfig{
			Run: rec, Scheme: sc.scheme, Family: sc.family, App: "libquantum",
			Warm: 20000, Trials: 50, ExtraPerTrial: 40,
		})
		if err != nil {
			t.Fatalf("recovery %s: %v", sc.scheme, err)
		}
		for i, tr := range res.Trials {
			key := fmt.Sprintf("recovery/%s/trial%02d", sc.scheme, i)
			if sum, modeled := tr.Report.Phases.Total(), tr.Report.ModeledNS(); sum != modeled {
				t.Errorf("%s: phases sum to %d ns, modeled %d", key, sum, modeled)
			}
			row := goldenRow{"modeled_ns": tr.Report.ModeledNS()}
			for name, ns := range tr.Report.Phases.Map() {
				row[name] = ns
			}
			table[key] = row
		}
	}

	for _, r := range Fig5() {
		table["fig5/"+memName(r.MemBytes)] = goldenRow{"recovery_ns": r.NS}
	}
	for _, r := range Fig12() {
		table["fig12/"+memName(r.CacheBytes)] = goldenRow{"agit_ns": r.AGITNS, "asit_ns": r.ASITNS}
	}
	return table
}

// quickTables returns the rows of Fig 7, Fig 13 and the four ablations
// at the quick scale, as anubis-bench prints them: counts as they are,
// and each float field by its math.Float64bits, so the comparison is
// exact.
func quickTables(t *testing.T, rc RunConfig) goldenTable {
	t.Helper()
	table := goldenTable{}
	bits := math.Float64bits
	fig7, err := Fig7(rc)
	if err != nil {
		t.Fatalf("fig7: %v", err)
	}
	for _, r := range fig7 {
		table["fig7/quick/"+r.App] = goldenRow{"clean_frac": bits(r.CleanFrac), "evictions": r.Evictions, "first_dirty": r.FirstDirty}
	}
	fig13, err := Fig13(rc)
	if err != nil {
		t.Fatalf("fig13: %v", err)
	}
	for _, r := range fig13 {
		row := goldenRow{}
		for _, s := range Fig13Schemes {
			row[s.String()] = bits(r.Norm[s])
		}
		table["fig13/quick/"+memName(r.CacheBytes)] = row
	}
	stopLoss, err := AblationStopLoss(rc)
	if err != nil {
		t.Fatalf("stop-loss ablation: %v", err)
	}
	for _, r := range stopLoss {
		table[fmt.Sprintf("ablation/stoploss/%d", r.StopLoss)] = goldenRow{
			"normalized": bits(r.Normalized), "stop_loss_writes": r.StopLossWrites, "recovery_crypto": r.RecoveryCrypto}
	}
	backends, err := AblationRecoveryBackend(rc)
	if err != nil {
		t.Fatalf("backend ablation: %v", err)
	}
	for _, r := range backends {
		table["ablation/backend/"+r.Backend.String()] = goldenRow{
			"normalized": bits(r.Normalized), "stop_loss_writes": r.StopLossWrites, "recovery_ops": r.RecoveryOps}
	}
	endurance, err := AblationEndurance(rc)
	if err != nil {
		t.Fatalf("endurance ablation: %v", err)
	}
	for _, r := range endurance {
		name := r.Scheme.String()
		if r.WearLeveled {
			name += "+wl"
		}
		table["ablation/endurance/"+name] = goldenRow{
			"writes_per_request": bits(r.WritesPerRequest), "hottest_wear": r.HottestWear, "lifetime_factor": bits(r.LifetimeFactor)}
	}
	triad, err := AblationTriad(rc)
	if err != nil {
		t.Fatalf("Triad ablation: %v", err)
	}
	for _, r := range triad {
		table[fmt.Sprintf("ablation/triad/levels%d", r.Levels)] = goldenRow{
			"normalized": bits(r.Normalized), "recovery_8tb_s": bits(r.Recovery8TBS), "measured_ops": r.MeasuredOps}
	}
	return table
}

// sortedKeys returns the union of the maps' keys in sorted order.
func sortedKeys[V any](a, b map[string]V) []string {
	var keys []string
	for k := range a {
		keys = append(keys, k)
	}
	for k := range b {
		if _, ok := a[k]; !ok {
			keys = append(keys, k)
		}
	}
	sort.Strings(keys)
	return keys
}

// encode renders the table one row per line, keys sorted, so a changed
// number shows up as a one-line diff.
func (g goldenTable) encode() ([]byte, error) {
	keys := sortedKeys(g, nil)
	var b bytes.Buffer
	b.WriteString("{\n")
	for i, k := range keys {
		row, err := json.Marshal(g[k]) // encoding/json sorts map keys
		if err != nil {
			return nil, err
		}
		fmt.Fprintf(&b, "%q: %s", k, row)
		if i < len(keys)-1 {
			b.WriteByte(',')
		}
		b.WriteByte('\n')
	}
	b.WriteString("}\n")
	return b.Bytes(), nil
}

// diff names every row and field that differs between got and want,
// one line per row.
func (g goldenTable) diff(want goldenTable) []string {
	var out []string
	for _, k := range sortedKeys(g, want) {
		got, inGot := g[k]
		exp, inWant := want[k]
		switch {
		case !inWant:
			out = append(out, k+": not in the golden file")
		case !inGot:
			out = append(out, k+": no longer produced")
		default:
			var changed []string
			for _, f := range sortedKeys(got, exp) {
				gv, gok := got[f]
				wv, wok := exp[f]
				if gv != wv || gok != wok {
					changed = append(changed, fmt.Sprintf("%s %s, want %s", f, field(gv, gok), field(wv, wok)))
				}
			}
			if len(changed) > 0 {
				out = append(out, k+": "+strings.Join(changed, "; "))
			}
		}
	}
	return out
}

func field(v uint64, ok bool) string {
	if !ok {
		return "absent"
	}
	return fmt.Sprint(v)
}

// TestGoldenSeed99 recomputes the seed-99 table and compares it with
// the checked-in one. On a mismatch it writes the fresh table to a
// temporary file and prints the cp command that adopts it.
func TestGoldenSeed99(t *testing.T) {
	got := seed99Table(t)
	var want goldenTable
	data, err := os.ReadFile(goldenPath)
	if err == nil {
		err = json.Unmarshal(data, &want)
	}
	var msg string
	if err != nil {
		msg = fmt.Sprintf("reading the golden table: %v", err)
	} else if problems := got.diff(want); len(problems) > 0 {
		msg = fmt.Sprintf("%d rows differ from %s:\n  %s", len(problems), goldenPath, strings.Join(problems, "\n  "))
	} else {
		return
	}
	fresh, err := got.encode()
	if err != nil {
		t.Fatalf("%s\nencoding the fresh table: %v", msg, err)
	}
	f, err := os.CreateTemp("", "golden_seed99-*.json")
	if err == nil {
		_, err = f.Write(fresh)
		if cerr := f.Close(); err == nil {
			err = cerr
		}
	}
	if err != nil {
		t.Fatalf("%s\nwriting the fresh table: %v", msg, err)
	}
	dst, err := filepath.Abs(goldenPath)
	if err != nil {
		dst = goldenPath
	}
	t.Fatalf("%s\nIf the change is intended, adopt the fresh table:\n  cp %s %s", msg, f.Name(), dst)
}
