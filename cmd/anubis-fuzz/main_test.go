package main

import (
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
