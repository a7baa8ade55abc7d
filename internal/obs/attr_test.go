package obs

import (
	"encoding/json"
	"testing"
)

func TestLedgerBasics(t *testing.T) {
	var l Ledger
	l.Add(CompCrypto, 40)
	l.Add(CompCrypto, 40)
	l.Add(CompCPUGap, 100)
	l.Add(CompWPQStall, 7)
	if got := l.Get(CompCrypto); got != 80 {
		t.Fatalf("crypto = %d, want 80", got)
	}
	if got := l.Total(); got != 187 {
		t.Fatalf("total = %d, want 187", got)
	}
}

func TestLedgerSinceAndMerge(t *testing.T) {
	var l Ledger
	l.Add(CompDataRead, 60)
	snap := l
	l.Add(CompDataRead, 60)
	l.Add(CompTreeFill, 120)
	d := l.Since(&snap)
	if d[CompDataRead] != 60 || d[CompTreeFill] != 120 || d.Total() != 180 {
		t.Fatalf("delta = %+v", d)
	}
	var m Ledger
	m.Merge(&snap)
	m.Merge(&d)
	if m != l {
		t.Fatalf("merge(snap, delta) = %v, want %v", m, l)
	}
}

func TestLedgerJSONRoundTrip(t *testing.T) {
	var l Ledger
	for i := range l {
		l[i] = uint64(i+1) * 11
	}
	data, err := json.Marshal(l)
	if err != nil {
		t.Fatal(err)
	}
	// Stable named-object shape: every component name present.
	var m map[string]uint64
	if err := json.Unmarshal(data, &m); err != nil {
		t.Fatalf("marshal produced invalid object: %v\n%s", err, data)
	}
	for _, c := range Comps() {
		if _, ok := m[c.String()]; !ok {
			t.Fatalf("component %q missing from JSON %s", c, data)
		}
	}
	var back Ledger
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatal(err)
	}
	if back != l {
		t.Fatalf("round trip: got %v want %v", back, l)
	}
}

func TestCompNames(t *testing.T) {
	seen := map[string]bool{}
	for _, c := range Comps() {
		n := c.String()
		if seen[n] {
			t.Fatalf("duplicate component name %q", n)
		}
		seen[n] = true
		got, ok := indexOf(compNames[:], n)
		if !ok || Comp(got) != c {
			t.Fatalf("indexOf(compNames, %q) = %v, %v", n, got, ok)
		}
	}
	if _, ok := indexOf(compNames[:], "nope"); ok {
		t.Fatal("indexOf accepted unknown name")
	}
	if got := Comp(NumComps).String(); got != "comp(9)" {
		t.Fatalf("out-of-range component prints %q", got)
	}
}
