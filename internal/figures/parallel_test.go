package figures

import (
	"reflect"
	"slices"
	"sync/atomic"
	"testing"

	"anubis/internal/sim"
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
// single-scheme sweep (Fig 7), the cache-size sweep (Fig 13) and one
// sweep of every table, whose cells the tables share.
func TestFig7AndFig13ParallelDeterminism(t *testing.T) {
	rc := QuickRunConfig()
	rc.Requests = 1200
	rc.Apps = []string{"mcf", "libquantum"}

	for _, tc := range []struct {
		name string
		want Table
	}{
		{"Fig7", TableFig7},
		{"Fig13", TableFig13},
		{"all", allTables},
	} {
		rc.Parallel = 1
		seq, err := Sweep(rc, tc.want)
		if err != nil {
			t.Fatal(err)
		}
		rc.Parallel = 8
		par, err := Sweep(rc, tc.want)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(seq, par) {
			t.Fatalf("%s tables differ between worker counts", tc.name)
		}
	}
}

// TestAblationParallelDeterminism pins the ablation sweep, all four
// tables, to its sequential result as well.
func TestAblationParallelDeterminism(t *testing.T) {
	rc := QuickRunConfig()
	rc.Requests = 1200

	rc.Parallel = 1
	seq, err := Sweep(rc, TableAblations)
	if err != nil {
		t.Fatal(err)
	}
	rc.Parallel = 6
	par, err := Sweep(rc, TableAblations)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(seq, par) {
		t.Fatalf("ablation tables differ:\nseq: %+v\npar: %+v", seq, par)
	}
}

// allTables selects every table Sweep builds.
const allTables = TableFig7 | TableFig10 | TableFig11 | TableFig13 | TableAblations

// TestUnionSweepRunsEachCellOnce: one Sweep of every table at the quick
// scale runs 108 cells, each in a trace thread of its own name, where
// the five one-table sweeps run 132 (Fig 7's 3 cells are Fig 10's; Fig
// 13's 256 KB point is 15 Fig 10 and Fig 11 cells; 6 of the 27 ablation
// cells are Fig 10 and Fig 11 cells), and it builds the tables the
// one-table sweeps build.
func TestUnionSweepRunsEachCellOnce(t *testing.T) {
	rc := QuickRunConfig()
	rc.Requests = 1500
	union, requests, threads := tracedSweep(t, rc, allTables)
	if len(requests) != 108 || len(threads) != 108 {
		t.Fatalf("one sweep of every table reported %d cells in %d trace threads, want 108", len(requests), len(threads))
	}
	slices.Sort(threads)
	if distinct := slices.Compact(slices.Clone(threads)); len(distinct) != len(threads) {
		t.Fatalf("trace names %d distinct cells in %d threads", len(distinct), len(threads))
	}

	var cells atomic.Int64
	rc.OnCell = func(sim.Result) { cells.Add(1) }
	var one Tables
	for _, want := range []Table{TableFig7, TableFig10, TableFig11, TableFig13, TableAblations} {
		tabs, err := Sweep(rc, want)
		if err != nil {
			t.Fatal(err)
		}
		// A one-table sweep builds its table and leaves the others empty.
		got, dst := reflect.ValueOf(tabs), reflect.ValueOf(&one).Elem()
		built := 0
		for i := 0; i < got.NumField(); i++ {
			if !got.Field(i).IsZero() {
				dst.Field(i).Set(got.Field(i))
				built++
			}
		}
		if built != 1 {
			t.Fatalf("Sweep of table %b built %d tables", want, built)
		}
	}
	if cells.Load() != 132 {
		t.Fatalf("the five one-table sweeps reported %d cells, want 132", cells.Load())
	}
	if !reflect.DeepEqual(union, one) {
		t.Fatalf("one sweep of every table differs from the one-table sweeps:\nunion: %+v\none:   %+v", union, one)
	}
}
