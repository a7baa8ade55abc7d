package obs

import (
	"encoding/json"
	"net/http/httptest"
	"strings"
	"testing"
)

// TestDashSmoke drives the embedded dashboard headlessly: the HTML
// page must serve with its section markers and poll loop, and the
// /debug/dash.json payload it polls must parse and carry the metrics
// and events the page renders from.
func TestDashSmoke(t *testing.T) {
	tel := NewTelemetry()
	tel.Update(func(r *Registry) {
		r.Counter(Label("anubis_serve_tenant_requests_total", "tenant", "t0", "op", "write"), 7)
		r.Counter(Label("anubis_serve_tenant_shed_total", "tenant", "t0", "reason", "wpq"), 2)
		r.Counter(Label("anubis_stall_ns_total", "component", "crypto"), 1000)
		r.Counter(Label("anubis_serve_recovery_phase_ns_total", "phase", "merkle_rebuild"), 4200)
		r.Observe("anubis_serve_op_wall_ns{op=\"write\"}", 1500)
	})
	rec := NewRecorder(8)
	rec.Record(Event{Kind: EvtEnqueue, Tenant: "t0", Op: "write"})
	var phases RecLedger
	phases.Add(RPMerkleRebuild, 4200)
	rec.Record(Event{Kind: EvtRecover, Tenant: "t0", DurNS: 4200, Phases: phases})
	tel.AttachRecorder(rec)

	// The HTML page.
	w := httptest.NewRecorder()
	tel.ServeHTTP(w, httptest.NewRequest("GET", "/dash", nil))
	if w.Code != 200 {
		t.Fatalf("GET /dash: status %d", w.Code)
	}
	if ct := w.Header().Get("Content-Type"); !strings.HasPrefix(ct, "text/html") {
		t.Fatalf("GET /dash: Content-Type %q", ct)
	}
	body := w.Body.String()
	for _, marker := range []string{
		"<!DOCTYPE html>", "anubis dashboard",
		`id="tenants"`, `id="lat"`, `id="stalls"`, `id="phases"`, `id="events"`,
		"/debug/dash.json", "setInterval(tick",
		"h.sum_ns", "h.max_ns", // the histogram keys of the JSON below
	} {
		if !strings.Contains(body, marker) {
			t.Errorf("GET /dash: missing marker %q", marker)
		}
	}

	// The JSON snapshot it polls.
	w = httptest.NewRecorder()
	tel.ServeHTTP(w, httptest.NewRequest("GET", "/debug/dash.json", nil))
	if w.Code != 200 {
		t.Fatalf("GET /debug/dash.json: status %d", w.Code)
	}
	var snap struct {
		Counters      map[string]uint64          `json:"counters"`
		Gauges        map[string]float64         `json:"gauges"`
		Hists         map[string]json.RawMessage `json:"hists"`
		Events        []json.RawMessage          `json:"events"`
		RecorderTotal uint64                     `json:"recorder_total"`
	}
	if err := json.Unmarshal(w.Body.Bytes(), &snap); err != nil {
		t.Fatalf("GET /debug/dash.json: %v\nbody: %s", err, w.Body.String())
	}
	if got := snap.Counters[`anubis_serve_tenant_requests_total{tenant="t0",op="write"}`]; got != 7 {
		t.Errorf("counter lost in snapshot: got %d, want 7", got)
	}
	if _, ok := snap.Gauges["anubis_goroutines"]; !ok {
		t.Errorf("process gauges missing from snapshot: %v", snap.Gauges)
	}
	if len(snap.Hists) != 1 {
		t.Errorf("want 1 hist in snapshot, got %v", snap.Hists)
	}
	for name, raw := range snap.Hists {
		if !strings.Contains(string(raw), `"sum_ns":1500,"max_ns":1500`) {
			t.Errorf("hist %s lacks the sum_ns/max_ns keys the page reads: %s", name, raw)
		}
	}
	if len(snap.Events) != 2 || snap.RecorderTotal != 2 {
		t.Errorf("want 2 events / total 2, got %d events / total %d", len(snap.Events), snap.RecorderTotal)
	}
	if !strings.Contains(string(snap.Events[1]), `"merkle_rebuild":4200`) {
		t.Errorf("recover event lost its phase breakdown: %s", snap.Events[1])
	}
	// The feed's events are the recorder's, oldest first.
	for i, raw := range snap.Events {
		var e struct {
			Seq  *uint64 `json:"seq"`
			Kind string  `json:"kind"`
		}
		if err := json.Unmarshal(raw, &e); err != nil || e.Seq == nil || *e.Seq != uint64(i) || e.Kind == "" {
			t.Errorf("event %d is not the recorder's event %d: %v: %s", i, i, err, raw)
		}
	}
}

// TestDashJSONWithoutRecorder: the dashboard endpoints stay up when no
// flight recorder is attached; events are simply empty — the page's
// "no flight recorder" state.
func TestDashJSONWithoutRecorder(t *testing.T) {
	tel := NewTelemetry()

	w := httptest.NewRecorder()
	tel.ServeHTTP(w, httptest.NewRequest("GET", "/debug/dash.json", nil))
	if w.Code != 200 {
		t.Fatalf("GET /debug/dash.json: status %d", w.Code)
	}
	var snap dashSnapshot
	if err := json.Unmarshal(w.Body.Bytes(), &snap); err != nil {
		t.Fatalf("decode: %v", err)
	}
	if len(snap.Events) != 0 || snap.RecorderTotal != 0 {
		t.Errorf("recorder-less snapshot carries events: %+v", snap)
	}
}
