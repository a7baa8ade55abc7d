package main

import (
	"encoding/json"
	"hash/fnv"
	"testing"

	"anubis"
)

// TestRowFailed pins the exit-status rule: a failed recovery or a bad
// read-back after a successful one fails the run; a scheme without a
// recovery mechanism does not.
func TestRowFailed(t *testing.T) {
	for _, tc := range []struct {
		row  recoverRow
		want bool
	}{
		{recoverRow{Result: "RECOVERED", DataVerified: 10}, false},
		{recoverRow{Result: "RECOVERED", DataVerified: 9, DataBad: 1}, true},
		{recoverRow{Result: "FAILED"}, true},
		{recoverRow{Result: "no-recovery", DataBad: 10}, false},
	} {
		if got := tc.row.failed(); got != tc.want {
			t.Errorf("%+v: failed() = %v, want %v", tc.row, got, tc.want)
		}
	}
}

// TestRowsPinned pins what anubis-recover -json prints at its default
// flags (2,000 writes into 32 MiB): every scheme's row, in
// SchemeNames order, folded into one FNV-64 hash of its JSON encoding.
// A change to the controllers, the device or the crypto engine must
// keep it; a change that moves it must say which rows moved and why.
func TestRowsPinned(t *testing.T) {
	const want uint64 = 0xcf12d797f80d0818
	h := fnv.New64a()
	for _, name := range anubis.SchemeNames() {
		row, err := runOne(name, 2000, 32<<20)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		b, err := json.Marshal(row)
		if err != nil {
			t.Fatal(err)
		}
		h.Write(b)
		h.Write([]byte{'\n'})
	}
	if got := h.Sum64(); got != want {
		t.Errorf("anubis-recover rows hash to %#016x, want %#016x", got, want)
	}
}
