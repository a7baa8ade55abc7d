package main

import "testing"

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
