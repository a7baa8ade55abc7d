package obs

import (
	"encoding/json"
	"strings"
	"sync"
	"testing"
)

func TestRecorderRingOrderAndWrap(t *testing.T) {
	r := NewRecorder(4)
	for i := 0; i < 10; i++ {
		r.Record(Event{Kind: EvtExec, Op: "write", WallNS: int64(i + 1), DurNS: uint64(i)})
	}
	if r.Total() != 10 {
		t.Fatalf("Total = %d, want 10", r.Total())
	}
	snap := r.Snapshot()
	if len(snap) != 4 {
		t.Fatalf("Snapshot len = %d, want ring cap 4", len(snap))
	}
	for i, e := range snap {
		want := uint64(6 + i) // events 6..9 survive, oldest first
		if e.Seq != want || e.DurNS != want {
			t.Fatalf("snap[%d] = seq %d dur %d, want %d", i, e.Seq, e.DurNS, want)
		}
	}
}

func TestRecorderJSONLines(t *testing.T) {
	r := NewRecorder(16)
	r.Record(Event{Kind: EvtEnqueue, Tenant: "t0", Op: "write"})
	r.Record(Event{Kind: EvtShed, Tenant: "t1", Op: "write", Reason: "wpq"})
	var ph RecLedger
	ph.Add(RPShadowReplay, 700)
	ph.Add(RPMerkleRebuild, 300)
	r.Record(Event{Kind: EvtRecover, Tenant: "t1", DurNS: 1000, Phases: ph})

	var sb strings.Builder
	if err := r.WriteJSONL(&sb); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimRight(sb.String(), "\n"), "\n")
	if len(lines) != 3 {
		t.Fatalf("got %d lines, want 3:\n%s", len(lines), sb.String())
	}
	var objs []map[string]any
	for i, ln := range lines {
		var m map[string]any
		if err := json.Unmarshal([]byte(ln), &m); err != nil {
			t.Fatalf("line %d is not JSON: %v\n%s", i, err, ln)
		}
		objs = append(objs, m)
	}
	if objs[0]["kind"] != "enqueue" || objs[0]["tenant"] != "t0" {
		t.Fatalf("line 0 wrong: %v", objs[0])
	}
	if objs[1]["kind"] != "shed" || objs[1]["reason"] != "wpq" {
		t.Fatalf("line 1 wrong: %v", objs[1])
	}
	if _, ok := objs[0]["recovery_phase_ns"]; ok {
		t.Fatal("non-recovery event carries a phase breakdown")
	}
	phm, ok := objs[2]["recovery_phase_ns"].(map[string]any)
	if !ok {
		t.Fatalf("recover event missing phase breakdown: %v", objs[2])
	}
	if phm["shadow_table_replay"].(float64) != 700 || phm["merkle_rebuild"].(float64) != 300 {
		t.Fatalf("phase breakdown wrong: %v", phm)
	}
	// Wall-clock stamps are monotone non-decreasing within a dump.
	prev := int64(0)
	for _, e := range r.Snapshot() {
		if e.WallNS < prev {
			t.Fatalf("wall clock went backwards: %d < %d", e.WallNS, prev)
		}
		prev = e.WallNS
	}
}

// TestDisabledRecorderZeroAlloc pins the disabled-path contract: a nil
// recorder must make the serving hot path cost one branch and zero
// allocations, the same bar the nil Probe check meets.
func TestDisabledRecorderZeroAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counting is not meaningful under -race")
	}
	var r *Recorder
	avg := testing.AllocsPerRun(1000, func() {
		r.Record(Event{Kind: EvtExec, Tenant: "t0", Op: "write", DurNS: 123})
		r.Record(Event{Kind: EvtShed, Tenant: "t0", Op: "write", Reason: "wpq"})
	})
	if avg != 0 {
		t.Fatalf("disabled recorder allocates %.2f allocs/op, want 0", avg)
	}
	if r.Enabled() || r.Total() != 0 || r.Snapshot() != nil {
		t.Fatal("nil recorder must read as empty and disabled")
	}
}

// TestRecorderConcurrent hammers Record from many goroutines while
// snapshots are taken; meaningful chiefly under -race, and the final
// count must be exact regardless.
func TestRecorderConcurrent(t *testing.T) {
	r := NewRecorder(64)
	const workers, per = 8, 500
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				r.Record(Event{Kind: EvtExec, Op: "write", DurNS: uint64(w)})
				if i%100 == 0 {
					_ = r.Snapshot()
				}
			}
		}(w)
	}
	wg.Wait()
	if r.Total() != workers*per {
		t.Fatalf("Total = %d, want %d", r.Total(), workers*per)
	}
	snap := r.Snapshot()
	if len(snap) != 64 {
		t.Fatalf("Snapshot len = %d, want 64", len(snap))
	}
	for i := 1; i < len(snap); i++ {
		if snap[i].Seq != snap[i-1].Seq+1 {
			t.Fatalf("sequence tear at %d: %d then %d", i, snap[i-1].Seq, snap[i].Seq)
		}
	}
}
