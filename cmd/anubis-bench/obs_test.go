package main

import (
	"bytes"
	"encoding/json"
	"net/http/httptest"
	"strings"
	"testing"

	"anubis/internal/figures"
	"anubis/internal/obs"
)

// tinyRun returns the smallest figure sweep worth observing: one app,
// few requests, sequential.
func tinyRun() figures.RunConfig {
	rc := figures.DefaultRunConfig()
	rc.Requests = 800
	rc.Apps = []string{"libquantum"}
	rc.Parallel = 1
	return rc
}

// TestCellObserverFeedsTelemetry drives a real (tiny) sweep through the
// CLI's cell observer and asserts that the /metrics endpoint serves the
// acceptance counters (cells completed, requests simulated,
// per-component stall time) as Prometheus text.
func TestCellObserverFeedsTelemetry(t *testing.T) {
	tel := obs.NewTelemetry()
	rc := tinyRun()
	rc.OnCell = observeCells(tel)
	if _, err := figures.Sweep(rc, figures.TableFig7); err != nil {
		t.Fatal(err)
	}

	rec := httptest.NewRecorder()
	tel.ServeHTTP(rec, httptest.NewRequest("GET", "/metrics", nil))
	if rec.Code != 200 {
		t.Fatalf("/metrics status %d", rec.Code)
	}
	body := rec.Body.String()
	for _, want := range []string{
		"anubis_cells_completed_total 1",
		"anubis_requests_simulated_total 800",
		`anubis_stall_ns_total{component="crypto"}`,
		`anubis_stall_ns_total{component="cpu_gap"}`,
		"anubis_cell_exec_ns_count 1",
	} {
		if !strings.Contains(body, want) {
			t.Errorf("/metrics missing %q in:\n%s", want, body)
		}
	}
}

// TestHistogramNamesEndInNS: the /dash page renders every histogram as
// a duration, so each one the cell observer records holds nanoseconds
// under a name ending in _ns, and the per-cell write count is a counter.
func TestHistogramNamesEndInNS(t *testing.T) {
	tel := obs.NewTelemetry()
	rc := tinyRun()
	rc.OnCell = observeCells(tel)
	if _, err := figures.Sweep(rc, figures.TableFig7); err != nil {
		t.Fatal(err)
	}
	rec := httptest.NewRecorder()
	tel.ServeHTTP(rec, httptest.NewRequest("GET", "/debug/dash.json", nil))
	var snap struct {
		Counters map[string]uint64   `json:"counters"`
		Hists    map[string]obs.Hist `json:"hists"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &snap); err != nil {
		t.Fatal(err)
	}
	if len(snap.Hists) == 0 {
		t.Fatal("the cell observer recorded no histogram")
	}
	for name := range snap.Hists {
		if !strings.HasSuffix(name, "_ns") {
			t.Errorf("histogram %q does not hold nanoseconds", name)
		}
	}
	if snap.Counters["anubis_nvm_writes_total"] == 0 {
		t.Errorf("counter anubis_nvm_writes_total missing from %v", snap.Counters)
	}
}

// TestTraceEventsOutputValid runs a traced sweep and validates the
// -trace-events artifact end to end: parseable as a JSON array of
// Chrome trace events, with per-cell thread metadata, request slices
// carrying per-component attribution args, and microsecond timestamps.
func TestTraceEventsOutputValid(t *testing.T) {
	tracer := obs.NewTracer(8)
	rc := tinyRun()
	rc.Trace = tracer
	if _, err := figures.Sweep(rc, figures.TableFig7); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := tracer.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	var events []map[string]any
	if err := json.Unmarshal(buf.Bytes(), &events); err != nil {
		t.Fatalf("trace output is not a JSON array: %v", err)
	}
	if len(events) == 0 {
		t.Fatal("trace has no events")
	}
	sawMeta, sawRequest := false, false
	for i, e := range events {
		ph, _ := e["ph"].(string)
		switch ph {
		case "M":
			sawMeta = true
			name, _ := e["args"].(map[string]any)["name"].(string)
			if !strings.Contains(name, "bonsai/writeback/") {
				t.Fatalf("event %d: thread name %q lacks family/scheme/app", i, name)
			}
		case "X", "i":
			if ts, ok := e["ts"].(float64); !ok || ts < 0 {
				t.Fatalf("event %d: bad ts %v", i, e["ts"])
			}
			if e["cat"] == "request" {
				sawRequest = true
				args, _ := e["args"].(map[string]any)
				if _, hasGap := args["cpu_gap_ns"]; hasGap {
					t.Fatalf("event %d: cpu gap leaked into request args", i)
				}
			}
		default:
			t.Fatalf("event %d: unknown phase %q", i, ph)
		}
	}
	if !sawMeta || !sawRequest {
		t.Fatalf("trace lacks metadata (%v) or request (%v) events", sawMeta, sawRequest)
	}
}

// TestObservedSweepIsByteIdentical is the zero-interference acceptance
// check at the figure level: an observed run (cell observer + tracer)
// must produce exactly the rows an unobserved run produces.
func TestObservedSweepIsByteIdentical(t *testing.T) {
	plainRC := tinyRun()
	plain, err := figures.Sweep(plainRC, figures.TableFig7)
	if err != nil {
		t.Fatal(err)
	}
	obsRC := tinyRun()
	obsRC.OnCell = observeCells(obs.NewTelemetry())
	obsRC.Trace = obs.NewTracer(4)
	observed, err := figures.Sweep(obsRC, figures.TableFig7)
	if err != nil {
		t.Fatal(err)
	}
	a, _ := json.Marshal(plain.Fig7)
	b, _ := json.Marshal(observed.Fig7)
	if !bytes.Equal(a, b) {
		t.Fatalf("observation changed figure rows:\nplain:    %s\nobserved: %s", a, b)
	}
}
