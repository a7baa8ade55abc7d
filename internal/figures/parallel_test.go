package figures

import (
	"reflect"
	"testing"
)

// TestFig10ParallelDeterminism is the evaluation engine's core
// guarantee: Fig10 rows and averages with 8 workers are exactly equal
// (reflect.DeepEqual, i.e. bit-for-bit on the float64s) to the
// sequential single-worker run.
func TestFig10ParallelDeterminism(t *testing.T) {
	rc := QuickRunConfig()
	rc.Requests = 1500

	rc.Parallel = 1
	rows1, avg1, err := Fig10(rc)
	if err != nil {
		t.Fatal(err)
	}
	rc.Parallel = 8
	rows8, avg8, err := Fig10(rc)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(rows1, rows8) {
		t.Fatalf("Fig10 rows differ between -parallel 1 and -parallel 8:\nseq: %+v\npar: %+v", rows1, rows8)
	}
	if !reflect.DeepEqual(avg1, avg8) {
		t.Fatalf("Fig10 averages differ between -parallel 1 and -parallel 8:\nseq: %v\npar: %v", avg1, avg8)
	}
}

// TestFig7AndFig13ParallelDeterminism extends the guarantee to the
// single-scheme sweep (Fig7) and the cache-size sweep (Fig13).
func TestFig7AndFig13ParallelDeterminism(t *testing.T) {
	rc := QuickRunConfig()
	rc.Requests = 1200
	rc.Apps = []string{"mcf", "libquantum"}

	rc.Parallel = 1
	f7seq, err := Fig7(rc)
	if err != nil {
		t.Fatal(err)
	}
	f13seq, err := Fig13(rc)
	if err != nil {
		t.Fatal(err)
	}
	rc.Parallel = 8
	f7par, err := Fig7(rc)
	if err != nil {
		t.Fatal(err)
	}
	f13par, err := Fig13(rc)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(f7seq, f7par) {
		t.Fatal("Fig7 rows differ between worker counts")
	}
	if !reflect.DeepEqual(f13seq, f13par) {
		t.Fatal("Fig13 rows differ between worker counts")
	}
}

// TestAblationParallelDeterminism pins the ablation sweeps to their
// sequential results as well.
func TestAblationParallelDeterminism(t *testing.T) {
	rc := QuickRunConfig()
	rc.Requests = 1200

	rc.Parallel = 1
	seq, err := AblationEndurance(rc)
	if err != nil {
		t.Fatal(err)
	}
	rc.Parallel = 6
	par, err := AblationEndurance(rc)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(seq, par) {
		t.Fatalf("endurance rows differ:\nseq: %+v\npar: %+v", seq, par)
	}
}
