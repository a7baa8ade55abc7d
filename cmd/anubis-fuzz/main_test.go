package main

import (
	"encoding/json"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"anubis/internal/crashfuzz"
	"anubis/internal/memctrl"
	"anubis/internal/nvm"
	"anubis/internal/obs"
)

// TestCampaignPolicyLabels records one trial per recovery-policy class
// and requires the trial counters to carry the readable class names.
func TestCampaignPolicyLabels(t *testing.T) {
	c := newCampaign()
	seen := make(map[crashfuzz.Policy]bool)
	for _, v := range memctrl.Variants {
		p := crashfuzz.PolicyOf(v)
		if seen[p] {
			continue
		}
		seen[p] = true
		c.trial(crashfuzz.Schedule{Variant: v, Model: nvm.CrashFullADR}, time.Millisecond, nil)
	}
	snap := c.reg.Snapshot()
	for _, policy := range []string{"must-recover", "must-not-recover", "may-recover"} {
		name := obs.Label("anubis_fuzz_trials_total", "policy", policy, "model", "full-adr")
		if snap[name] != 1 {
			t.Errorf("%s = %v, want 1 (counters: %v)", name, snap[name], snap)
		}
	}
}

// TestHistogramNamesEndInNS: the /dash page renders every histogram as
// a duration, so each one a campaign records holds nanoseconds under a
// name ending in _ns. The -v summary still prints microseconds.
func TestHistogramNamesEndInNS(t *testing.T) {
	c := newCampaign()
	c.tel = obs.NewTelemetry()
	c.trial(crashfuzz.Schedule{Variant: memctrl.Variants[0], Model: nvm.CrashFullADR}, 264*time.Microsecond, nil)
	rec := httptest.NewRecorder()
	c.tel.ServeHTTP(rec, httptest.NewRequest("GET", "/debug/dash.json", nil))
	var snap struct {
		Hists map[string]obs.Hist `json:"hists"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &snap); err != nil {
		t.Fatal(err)
	}
	if len(snap.Hists) == 0 {
		t.Fatal("the campaign recorded no histogram")
	}
	for name, h := range snap.Hists {
		if !strings.HasSuffix(name, "_ns") {
			t.Errorf("histogram %q does not hold nanoseconds", name)
		}
		if h.Sum != 264000 {
			t.Errorf("histogram %q sums %d for one 264 µs trial, want 264000", name, h.Sum)
		}
	}
}
