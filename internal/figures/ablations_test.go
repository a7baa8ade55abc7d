package figures

import (
	"bytes"
	"encoding/json"
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

func TestAblationStopLossTradeoff(t *testing.T) {
	rows, err := AblationStopLoss(ablationRC())
	if err != nil {
		t.Fatal(err)
	}
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
	rows, err := AblationRecoveryBackend(ablationRC())
	if err != nil {
		t.Fatal(err)
	}
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
	rows, err := AblationEndurance(ablationRC())
	if err != nil {
		t.Fatal(err)
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
	var buf bytes.Buffer
	if err := PrintAblationStopLoss(&buf, rc); err != nil {
		t.Fatal(err)
	}
	if err := PrintAblationRecoveryBackend(&buf, rc); err != nil {
		t.Fatal(err)
	}
	if err := PrintAblationEndurance(&buf, rc); err != nil {
		t.Fatal(err)
	}
	if err := PrintAblationTriad(&buf, rc); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"stop-loss", "backend", "endurance", "lifetime", "Triad-NVM"} {
		if !strings.Contains(buf.String(), want) {
			t.Fatalf("output missing %q", want)
		}
	}
	// The Triad sweep runs no Anubis cell: its contrast row prints the
	// analytic recovery and no normalized time.
	if !regexp.MustCompile(`(?m)^  anubis +- +\S`).MatchString(buf.String()) {
		t.Fatalf("Triad ablation's anubis row is not \"-\" plus a recovery time:\n%s", buf.String())
	}
}

// TestAblationCellsReachObservers: ablation cells, reduced-scale
// recoveries included, run like figure cells, so each one reaches
// OnCell and the event trace.
func TestAblationCellsReachObservers(t *testing.T) {
	requests, threads := tracedCells(t, func(rc RunConfig) error {
		_, err := AblationRecoveryBackend(rc)
		return err
	})
	// The write-back baseline and the two backends' runs at rc.Requests,
	// then each backend's 3000-request crash-recovery cell.
	if want := []int{800, 800, 800, 3000, 3000}; !slices.Equal(requests, want) {
		t.Fatalf("OnCell saw cells of %v requests, want %v", requests, want)
	}
	if len(threads) != len(requests) {
		t.Fatalf("trace names %d cells, want %d", len(threads), len(requests))
	}
}

// tracedCells runs an ablation with an OnCell observer and a tracer, and
// returns the request count of every cell it ran, sorted, and the name
// of every trace thread.
func tracedCells(t *testing.T, ablation func(RunConfig) error) (requests []int, threads []string) {
	t.Helper()
	rc := ablationRC()
	rc.Requests = 800
	rc.Parallel = 1
	rc.Trace = obs.NewTracer(64)
	var mu sync.Mutex
	rc.OnCell = func(res sim.Result) {
		mu.Lock()
		requests = append(requests, res.Requests)
		mu.Unlock()
	}
	if err := ablation(rc); err != nil {
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
	return requests, threads
}

// TestAblationStopLossRunsBaselineOnce: the stop-loss sweep simulates
// its write-back baseline once, not once per limit, so it runs 11 cells
// (the baseline, five Osiris runs and their five crash-recovery cells),
// and each has a name of its own.
func TestAblationStopLossRunsBaselineOnce(t *testing.T) {
	requests, threads := tracedCells(t, func(rc RunConfig) error {
		_, err := AblationStopLoss(rc)
		return err
	})
	want := []int{800, 800, 800, 800, 800, 800, 3000, 3000, 3000, 3000, 3000}
	if !slices.Equal(requests, want) {
		t.Fatalf("OnCell saw cells of %v requests, want %v", requests, want)
	}
	slices.Sort(threads)
	if distinct := slices.Compact(threads); len(distinct) != len(want) {
		t.Fatalf("trace names %d distinct cells, want %d: %q", len(distinct), len(want), distinct)
	}
}

// TestAblationCellNamesDistinct: cells that differ only by a knob get
// distinct trace (and pprof) names — here the recovery backend and the
// crash-recovery cells' memory size — while the default-configuration
// baseline keeps the bare family/scheme/profile name.
func TestAblationCellNamesDistinct(t *testing.T) {
	_, threads := tracedCells(t, func(rc RunConfig) error {
		_, err := AblationRecoveryBackend(rc)
		return err
	})
	slices.Sort(threads)
	want := []string{
		"bonsai/agit-plus/libquantum",
		"bonsai/agit-plus/libquantum mem=16MB",
		"bonsai/agit-plus/libquantum recovery=phase",
		"bonsai/agit-plus/libquantum recovery=phase mem=16MB",
		"bonsai/writeback/libquantum",
	}
	if !slices.Equal(threads, want) {
		t.Fatalf("trace thread names %q, want %q", threads, want)
	}
}

func TestAblationTriad(t *testing.T) {
	rows, err := AblationTriad(ablationRC())
	if err != nil {
		t.Fatal(err)
	}
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
