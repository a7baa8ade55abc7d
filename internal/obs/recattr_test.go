package obs

import (
	"bytes"
	"encoding/json"
	"reflect"
	"testing"
)

func TestRecPhaseNamesStable(t *testing.T) {
	// The names are JSON keys of every RecoveryReport (anubis-recover
	// and anubis-fsck -json) and of the frozen results/BENCH_*.json
	// records: a rename is a breaking change.
	want := []string{
		"image_load", "counter_osiris_scan", "shadow_table_replay",
		"merkle_rebuild", "epoch_journal_passA", "epoch_journal_passB",
		"ecc_verify", "root_anchor",
	}
	if NumRecPhases != len(want) {
		t.Fatalf("NumRecPhases = %d, want %d", NumRecPhases, len(want))
	}
	for i, w := range want {
		if got := RecPhase(i).String(); got != w {
			t.Errorf("RecPhase(%d) = %q, want %q", i, got, w)
		}
		p, ok := RecPhaseByName(w)
		if !ok || p != RecPhase(i) {
			t.Errorf("RecPhaseByName(%q) = %v,%v, want %d,true", w, p, ok, i)
		}
	}
	if _, ok := RecPhaseByName("no_such_phase"); ok {
		t.Error("RecPhaseByName accepted unknown name")
	}
}

func TestRecLedgerArithmetic(t *testing.T) {
	var l RecLedger
	l.Add(RPCounterScan, 300)
	l.Add(RPCounterScan, 200)
	l.Add(RPMerkleRebuild, 1000)
	if got := l.Get(RPCounterScan); got != 500 {
		t.Fatalf("Get = %d, want 500", got)
	}
	if got := l.Total(); got != 1500 {
		t.Fatalf("Total = %d, want 1500", got)
	}
	var m RecLedger
	m.Add(RPMerkleRebuild, 1)
	m.Add(RPRootAnchor, 2)
	m.Merge(&l)
	if m.Get(RPMerkleRebuild) != 1001 || m.Get(RPRootAnchor) != 2 || m.Total() != 1503 {
		t.Fatalf("Merge wrong: %v", m)
	}
}

func TestRecLedgerJSONRoundTrip(t *testing.T) {
	var l RecLedger
	for i := 0; i < NumRecPhases; i++ {
		l.Add(RecPhase(i), uint64(i*i+1))
	}
	data, err := json.Marshal(l)
	if err != nil {
		t.Fatal(err)
	}
	// Keys must appear in declaration order (stable byte output).
	var first string
	dec := json.NewDecoder(bytes.NewReader(data))
	if _, err := dec.Token(); err != nil { // {
		t.Fatal(err)
	}
	tok, err := dec.Token()
	if err != nil {
		t.Fatal(err)
	}
	first = tok.(string)
	if first != "image_load" {
		t.Fatalf("first key = %q, want image_load", first)
	}
	var back RecLedger
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(l, back) {
		t.Fatalf("round trip changed ledger: %v vs %v", l, back)
	}
	// Map agrees with the ledger.
	mp := l.Map()
	for i := 0; i < NumRecPhases; i++ {
		if mp[RecPhase(i).String()] != l.Get(RecPhase(i)) {
			t.Fatalf("Map mismatch at %v", RecPhase(i))
		}
	}
	// Unknown keys ignored.
	var l2 RecLedger
	if err := json.Unmarshal([]byte(`{"image_load":7,"future_phase":9}`), &l2); err != nil {
		t.Fatal(err)
	}
	if l2.Get(RPImageLoad) != 7 || l2.Total() != 7 {
		t.Fatalf("unknown-key decode wrong: %v", l2)
	}
}
