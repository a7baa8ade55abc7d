package figures

import (
	"bytes"
	"encoding/json"
	"fmt"
	"regexp"
	"slices"
	"strings"
	"sync"
	"testing"

	"anubis/internal/memctrl"
	"anubis/internal/obs"
	"anubis/internal/sim"
)

func ablationRC() RunConfig {
	rc := QuickRunConfig()
	rc.Requests = 4000
	return rc
}

// quickAblations runs the ablation sweep at ablationRC once for every
// test that reads its tables.
var quickAblations = sync.OnceValues(func() (AblationTables, error) {
	tabs, err := Sweep(ablationRC(), TableAblations)
	return tabs.Ablations, err
})

func ablationTables(t *testing.T) AblationTables {
	t.Helper()
	tables, err := quickAblations()
	if err != nil {
		t.Fatal(err)
	}
	return tables
}

func TestAblationStopLossTradeoff(t *testing.T) {
	rows := ablationTables(t).StopLoss
	if len(rows) != 5 {
		t.Fatalf("rows = %d", len(rows))
	}
	// Larger stop-loss ⇒ fewer run-time persists.
	if rows[0].StopLossWrites <= rows[4].StopLossWrites {
		t.Fatalf("stop-loss 1 persists (%d) not above stop-loss 16 (%d)",
			rows[0].StopLossWrites, rows[4].StopLossWrites)
	}
	// Larger stop-loss ⇒ at least as many recovery trials.
	if rows[4].RecoveryCrypto < rows[0].RecoveryCrypto {
		t.Fatalf("stop-loss 16 trials (%d) below stop-loss 1 (%d)",
			rows[4].RecoveryCrypto, rows[0].RecoveryCrypto)
	}
	// Run-time overhead must not increase with the limit.
	if rows[4].Normalized > rows[0].Normalized+0.01 {
		t.Fatalf("overhead grew with stop-loss: %.3f -> %.3f",
			rows[0].Normalized, rows[4].Normalized)
	}
}

func TestAblationRecoveryBackend(t *testing.T) {
	rows := ablationTables(t).Backend
	if len(rows) != 2 {
		t.Fatalf("rows = %d", len(rows))
	}
	ecc, phase := rows[0], rows[1]
	if ecc.Backend != memctrl.RecoveryECC || phase.Backend != memctrl.RecoveryPhase {
		t.Fatal("backend order wrong")
	}
	if phase.StopLossWrites != 0 {
		t.Fatalf("phase backend made %d stop-loss writes", phase.StopLossWrites)
	}
	if ecc.StopLossWrites == 0 {
		t.Fatal("ECC backend made no stop-loss writes")
	}
	// Phase must not be slower than ECC at run time (it removes writes).
	if phase.Normalized > ecc.Normalized+0.01 {
		t.Fatalf("phase (%.3f) slower than ECC (%.3f)", phase.Normalized, ecc.Normalized)
	}
}

func TestAblationEndurance(t *testing.T) {
	rows := ablationTables(t).Endurance
	if len(rows) != 7 {
		t.Fatalf("rows = %d", len(rows))
	}
	byScheme := map[memctrl.Scheme]EnduranceRow{}
	for _, r := range rows {
		byScheme[r.Scheme] = r
	}
	wb := byScheme[memctrl.SchemeWriteBack]
	strict := byScheme[memctrl.SchemeStrict]
	plus := byScheme[memctrl.SchemeAGITPlus]
	// §6.2: strict causes many extra writes per memory write.
	if strict.WritesPerRequest < wb.WritesPerRequest+3 {
		t.Fatalf("strict writes/req %.2f not far above write-back %.2f",
			strict.WritesPerRequest, wb.WritesPerRequest)
	}
	// Strict must shorten lifetime substantially (factor < 0.5).
	if strict.LifetimeFactor > 0.5 {
		t.Fatalf("strict lifetime factor %.2f; expected heavy wear", strict.LifetimeFactor)
	}
	// AGIT-Plus stays within ~2x of write-back's hottest wear.
	if plus.LifetimeFactor < 0.3 {
		t.Fatalf("agit-plus lifetime factor %.2f implausibly bad", plus.LifetimeFactor)
	}
	if wb.LifetimeFactor != 1.0 {
		t.Fatalf("write-back lifetime factor = %.2f, want 1.0", wb.LifetimeFactor)
	}
}

func TestAblationPrinters(t *testing.T) {
	rc := ablationRC()
	rc.Requests = 1500
	tabs, err := Sweep(rc, TableAblations)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	PrintAblations(&buf, tabs.Ablations)
	out := buf.String()
	for _, want := range []string{"stop-loss", "backend", "endurance", "lifetime", "Triad-NVM"} {
		if !strings.Contains(out, want) {
			t.Fatalf("output missing %q", want)
		}
	}
	// Four tables, one blank line apart; the caller ends the section.
	if tables := strings.Split(out, "\n\n"); len(tables) != 4 || strings.HasSuffix(out, "\n\n") {
		t.Fatalf("output is not four tables one blank line apart:\n%s", out)
	}
	// The Triad table's Anubis contrast row prints the analytic recovery
	// and no normalized time.
	if !regexp.MustCompile(`(?m)^  anubis +- +\S`).MatchString(out) {
		t.Fatalf("Triad ablation's anubis row is not \"-\" plus a recovery time:\n%s", out)
	}
}

// TestAblationCellsReachObservers: ablation cells, reduced-scale
// recoveries included, run like figure cells, so each one reaches
// OnCell and the event trace, and each distinct cell runs once. The
// tables read 32 cells, of which 27 differ: 16 runs at rc.Requests
// (the write-back baseline, five stop-loss limits, two recovery
// backends, four more endurance schemes and four Triad levels) and 11
// crash-recovery cells of 3000 requests (the stop-loss, backend and
// Triad points). Each has a trace thread with a name of its own.
func TestAblationCellsReachObservers(t *testing.T) {
	requests, threads := tracedCells(t)
	want := make([]int, 27)
	for i := range want {
		want[i] = 800
		if i >= 16 {
			want[i] = 3000
		}
	}
	if !slices.Equal(requests, want) {
		t.Fatalf("OnCell saw cells of %v requests, want %v", requests, want)
	}
	if len(threads) != len(want) {
		t.Fatalf("trace has %d threads, want %d", len(threads), len(want))
	}
	slices.Sort(threads)
	if distinct := slices.Compact(slices.Clone(threads)); len(distinct) != len(threads) {
		t.Fatalf("trace names %d distinct cells in %d threads: %q", len(distinct), len(threads), threads)
	}
}

// tracedCells runs the ablation sweep at 800 requests on one worker
// and returns what tracedSweep returns of it but the tables.
func tracedCells(t *testing.T) (requests []int, threads []string) {
	t.Helper()
	rc := ablationRC()
	rc.Requests = 800
	rc.Parallel = 1
	_, requests, threads = tracedSweep(t, rc, TableAblations)
	return requests, threads
}

// tracedSweep runs a Sweep of want with an OnCell observer and a
// tracer, and returns its tables, the request count of every cell it
// ran, sorted, and the name of every trace thread.
func tracedSweep(t *testing.T, rc RunConfig, want Table) (tabs Tables, requests []int, threads []string) {
	t.Helper()
	rc.Trace = obs.NewTracer(64)
	var mu sync.Mutex
	rc.OnCell = func(res sim.Result) {
		mu.Lock()
		requests = append(requests, res.Requests)
		mu.Unlock()
	}
	tabs, err := Sweep(rc, want)
	if err != nil {
		t.Fatal(err)
	}
	slices.Sort(requests)
	var buf bytes.Buffer
	if err := rc.Trace.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	var events []struct {
		Name string         `json:"name"`
		Args map[string]any `json:"args"`
	}
	if err := json.Unmarshal(buf.Bytes(), &events); err != nil {
		t.Fatal(err)
	}
	for _, e := range events {
		if e.Name == "thread_name" {
			threads = append(threads, e.Args["name"].(string))
		}
	}
	return tabs, requests, threads
}

// TestAblationStopLossRunsBaselineOnce: the write-back baseline, which
// the stop-loss, backend and Triad tables normalize to and the
// endurance table lists, runs once in the sweep, and so do the cells
// two tables share: Osiris at stop-loss 4 (Table 1's limit, so the bare
// name) and AGIT-Plus with ECC recovery. Each stop-loss limit has its
// run and its crash-recovery cell.
func TestAblationStopLossRunsBaselineOnce(t *testing.T) {
	_, threads := tracedCells(t)
	count := map[string]int{}
	for _, name := range threads {
		count[name]++
	}
	for _, name := range []string{"bonsai/writeback/libquantum", "bonsai/osiris/libquantum", "bonsai/agit-plus/libquantum"} {
		if count[name] != 1 {
			t.Errorf("%s ran %d times, want once", name, count[name])
		}
	}
	for _, sl := range []int{1, 2, 4, 8, 16} {
		knob := ""
		if sl != 4 {
			knob = fmt.Sprintf(" stop-loss=%d", sl)
		}
		for _, name := range []string{"bonsai/osiris/libquantum" + knob, "bonsai/osiris/libquantum" + knob + " mem=16MB"} {
			if count[name] != 1 {
				t.Errorf("%s ran %d times, want once", name, count[name])
			}
		}
	}
}

// TestAblationCellNamesDistinct: cells that differ only by a knob get
// distinct trace (and pprof) names — here the recovery backend and the
// crash-recovery cells' memory size — while the default-configuration
// baseline keeps the bare family/scheme/profile name. The backend
// table's five cells are all in the sweep's trace.
func TestAblationCellNamesDistinct(t *testing.T) {
	_, threads := tracedCells(t)
	for _, want := range []string{
		"bonsai/agit-plus/libquantum",
		"bonsai/agit-plus/libquantum mem=16MB",
		"bonsai/agit-plus/libquantum recovery=phase",
		"bonsai/agit-plus/libquantum recovery=phase mem=16MB",
		"bonsai/writeback/libquantum",
	} {
		if !slices.Contains(threads, want) {
			t.Errorf("no trace thread named %q in %q", want, threads)
		}
	}
}

func TestAblationTriad(t *testing.T) {
	rows := ablationTables(t).Triad
	if len(rows) != 4 {
		t.Fatalf("rows = %d", len(rows))
	}
	for i := 1; i < len(rows); i++ {
		if rows[i].Recovery8TBS >= rows[i-1].Recovery8TBS {
			t.Fatal("recovery not decreasing with persisted levels")
		}
		if rows[i].MeasuredOps >= rows[i-1].MeasuredOps {
			t.Fatal("measured recovery ops not decreasing with persisted levels")
		}
	}
	// Run-time cost must grow with levels (more persists per write).
	if rows[3].Normalized <= rows[0].Normalized {
		t.Fatalf("level-3 run time (%.3f) not above level-0 (%.3f)",
			rows[3].Normalized, rows[0].Normalized)
	}
}
