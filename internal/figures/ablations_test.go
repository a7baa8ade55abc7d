package figures

import (
	"bytes"
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
	rc := ablationRC()
	rc.Requests = 800
	rc.Parallel = 1
	rc.Trace = obs.NewTracer(64)
	var mu sync.Mutex
	var cells []int
	rc.OnCell = func(res sim.Result) {
		mu.Lock()
		cells = append(cells, res.Requests)
		mu.Unlock()
	}
	if _, err := AblationRecoveryBackend(rc); err != nil {
		t.Fatal(err)
	}
	// The write-back baseline and the two backends' runs at rc.Requests,
	// then each backend's 3000-request crash-recovery cell.
	slices.Sort(cells)
	if want := []int{800, 800, 800, 3000, 3000}; !slices.Equal(cells, want) {
		t.Fatalf("OnCell saw cells of %v requests, want %v", cells, want)
	}
	var trace bytes.Buffer
	if err := rc.Trace.WriteJSON(&trace); err != nil {
		t.Fatal(err)
	}
	if n := strings.Count(trace.String(), `"thread_name"`); n != len(cells) {
		t.Fatalf("trace names %d cells, want %d", n, len(cells))
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
