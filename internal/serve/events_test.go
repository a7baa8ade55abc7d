package serve

import (
	"testing"

	"anubis/internal/obs"
)

// kinds pulls the ordered kind names of a tenant's events out of a
// snapshot (server-wide events, Tenant == "", come along when id is
// empty).
func kinds(evs []obs.Event, tenant string) []string {
	var out []string
	for _, e := range evs {
		if tenant == "" || e.Tenant == tenant {
			out = append(out, e.Kind.String())
		}
	}
	return out
}

// TestFlightRecorderCapturesRequestLife: the full request life cycle —
// create, enqueue, exec, shed, crash, recover (with its phase
// breakdown), audit, close — lands in the ring in order, and the
// recovery event's phases sum exactly to its recorded duration.
func TestFlightRecorderCapturesRequestLife(t *testing.T) {
	rec := obs.NewRecorder(256)
	s := newTestServer(t, Config{Recorder: rec})
	if s.rec != rec {
		t.Fatal("the server lost the configured recorder")
	}

	mustCreate(t, s, "t0", TenantConfig{Scheme: "agit-plus", MemoryBytes: 1 << 20})
	mustWrite(t, s, "t0", 3, []byte("payload"))
	if _, err := s.ReadBlock("t0", 3); err != nil {
		t.Fatal(err)
	}
	if err := s.Crash("t0"); err != nil {
		t.Fatal(err)
	}
	rep, err := s.Recover("t0")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Audit("t0"); err != nil {
		t.Fatal(err)
	}
	if err := s.CloseTenant("t0"); err != nil {
		t.Fatal(err)
	}

	evs := rec.Snapshot()
	var sawCreate, sawEnqueue, sawExec, sawCrash, sawRecover, sawAudit, sawClose bool
	var recoverEvt obs.Event
	lastSeq := uint64(0)
	for i, e := range evs {
		if i > 0 && e.Seq <= lastSeq {
			t.Fatalf("event %d: seq %d not increasing after %d", i, e.Seq, lastSeq)
		}
		lastSeq = e.Seq
		switch e.Kind {
		case obs.EvtCreate:
			sawCreate = true
		case obs.EvtEnqueue:
			sawEnqueue = true
		case obs.EvtExec:
			sawExec = true
		case obs.EvtCrash:
			sawCrash = true
		case obs.EvtRecover:
			sawRecover, recoverEvt = true, e
		case obs.EvtAudit:
			sawAudit = true
		case obs.EvtClose:
			sawClose = true
		}
	}
	if !sawCreate || !sawEnqueue || !sawExec || !sawCrash || !sawRecover || !sawAudit || !sawClose {
		t.Fatalf("missing event kinds in %v", kinds(evs, ""))
	}

	// The recover event carries the sum-exact phase breakdown.
	if recoverEvt.DurNS != rep.ModeledNS {
		t.Errorf("recover event DurNS = %d, want ModeledNS %d", recoverEvt.DurNS, rep.ModeledNS)
	}
	if got := recoverEvt.Phases.Total(); got != rep.ModeledNS {
		t.Errorf("recover event phase total = %d, want %d", got, rep.ModeledNS)
	}

	// And the same breakdown was folded into the serving registry.
	var phaseSum uint64
	s.Telemetry().Update(func(r *obs.Registry) {
		for _, p := range obs.RecPhases() {
			phaseSum += r.CounterValue(obs.Label("anubis_serve_recovery_phase_ns_total", "phase", p.String()))
		}
	})
	if phaseSum != rep.ModeledNS {
		t.Errorf("registry phase sum = %d, want %d", phaseSum, rep.ModeledNS)
	}
}

// TestFlightRecorderShedAndFork: admission sheds and tenant forks are
// recorded with their reasons.
func TestFlightRecorderShedAndFork(t *testing.T) {
	rec := obs.NewRecorder(64)
	s := newTestServer(t, Config{Recorder: rec, MaxTenants: 1})
	mustCreate(t, s, "parent", TenantConfig{MemoryBytes: 1 << 20})
	if err := s.CreateTenant("extra", TenantConfig{MemoryBytes: 1 << 20}); err == nil {
		t.Fatal("tenant quota did not shed")
	}

	var sawShed, sawFork bool
	for _, e := range rec.Snapshot() {
		if e.Kind == obs.EvtShed && e.Tenant == "extra" && e.Reason == "tenant_quota" {
			sawShed = true
		}
	}
	if !sawShed {
		t.Fatalf("no tenant_quota shed event for 'extra': %v", rec.Snapshot())
	}

	// Raise the quota via a fresh server to test fork events.
	rec2 := obs.NewRecorder(64)
	s2 := newTestServer(t, Config{Recorder: rec2})
	mustCreate(t, s2, "parent", TenantConfig{MemoryBytes: 1 << 20})
	mustWrite(t, s2, "parent", 1, []byte("base"))
	if err := s2.ForkTenant("parent", "child"); err != nil {
		t.Fatal(err)
	}
	for _, e := range rec2.Snapshot() {
		if e.Kind == obs.EvtFork && e.Tenant == "child" && e.Reason == "parent=parent" {
			sawFork = true
		}
	}
	if !sawFork {
		t.Fatalf("no fork event for 'child': %v", rec2.Snapshot())
	}
}

// TestServeWithoutRecorder: a server with no recorder behaves
// identically — requests execute, nothing is recorded, and the
// accessor returns the nil (disabled) recorder.
func TestServeWithoutRecorder(t *testing.T) {
	s := newTestServer(t, Config{})
	if s.rec.Enabled() {
		t.Fatal("recorder unexpectedly enabled")
	}
	mustCreate(t, s, "t0", TenantConfig{MemoryBytes: 1 << 20})
	mustWrite(t, s, "t0", 0, []byte("x"))
	if s.rec.Total() != 0 {
		t.Fatal("disabled recorder recorded something")
	}
}
