package obs

import (
	"encoding/json"
	"strings"
	"testing"
)

// decodeTrace parses the tracer's output back as a JSON array of
// loosely-typed events.
func decodeTrace(t *testing.T, tr *Tracer) []map[string]any {
	t.Helper()
	var sb strings.Builder
	if err := tr.WriteJSON(&sb); err != nil {
		t.Fatal(err)
	}
	var evs []map[string]any
	if err := json.Unmarshal([]byte(sb.String()), &evs); err != nil {
		t.Fatalf("trace is not a JSON array: %v\n%s", err, sb.String())
	}
	return evs
}

func TestTracerJSONShape(t *testing.T) {
	tr := NewTracer(1)
	s := tr.Scope("cell-0")
	var l Ledger
	l.Add(CompDataRead, 70)
	l.Add(CompCrypto, 30)
	s.Request(EvReadReq, 0x1000, 500, 600, &l)
	s.Event(EvCommit, 700, 900, 3)
	s.Event(EvOverflow, 950, 950, 1) // instant

	evs := decodeTrace(t, tr)
	if len(evs) != 4 { // thread_name + request + 2 events
		t.Fatalf("got %d events, want 4", len(evs))
	}
	for _, e := range evs {
		for _, k := range []string{"name", "ph", "ts", "pid", "tid"} {
			if _, ok := e[k]; !ok {
				t.Fatalf("event missing %q: %v", k, e)
			}
		}
	}
	if evs[0]["ph"] != "M" || evs[0]["name"] != "thread_name" {
		t.Fatalf("first event not thread_name metadata: %v", evs[0])
	}
	req := evs[1]
	if req["name"] != "read" || req["ph"] != "X" {
		t.Fatalf("request event wrong: %v", req)
	}
	// ns → µs conversion.
	if req["ts"].(float64) != 0.5 || req["dur"].(float64) != 0.1 {
		t.Fatalf("ts/dur not microseconds: %v", req)
	}
	args := req["args"].(map[string]any)
	if args["data_read_ns"].(float64) != 70 || args["crypto_ns"].(float64) != 30 {
		t.Fatalf("attribution args wrong: %v", args)
	}
	if evs[3]["ph"] != "i" {
		t.Fatalf("zero-duration event not instant: %v", evs[3])
	}
}

func TestTracerSamplingDeterministic(t *testing.T) {
	const n, sample = 100, 7
	countRequests := func() int {
		tr := NewTracer(sample)
		s := tr.Scope("w")
		for i := 0; i < n; i++ {
			s.Request(EvWriteReq, uint64(i), uint64(i)*10, uint64(i)*10+5, nil)
		}
		evs := decodeTrace(t, tr)
		reqs := 0
		for _, e := range evs {
			if e["cat"] == "request" {
				reqs++
			}
		}
		return reqs
	}
	want := (n + sample - 1) / sample // first of every window kept
	a, b := countRequests(), countRequests()
	if a != want || b != want {
		t.Fatalf("sampled %d then %d requests, want %d both times", a, b, want)
	}
}

func TestTracerScopesGetDistinctTIDs(t *testing.T) {
	tr := NewTracer(1)
	s1, s2 := tr.Scope("a"), tr.Scope("b")
	s1.Event(EvCommit, 0, 0, 0)
	s2.Event(EvCommit, 0, 0, 0)
	evs := decodeTrace(t, tr)
	tids := map[float64]bool{}
	for _, e := range evs {
		if e["name"] == "commit" {
			tids[e["tid"].(float64)] = true
		}
	}
	if len(tids) != 2 {
		t.Fatalf("commit events share a tid: %v", evs)
	}
}

func TestTracerCPUGapExcludedFromArgs(t *testing.T) {
	tr := NewTracer(1)
	s := tr.Scope("x")
	var l Ledger
	l.Add(CompCPUGap, 999)
	l.Add(CompBankBusy, 5)
	s.Request(EvReadReq, 1, 0, 5, &l)
	evs := decodeTrace(t, tr)
	args := evs[1]["args"].(map[string]any)
	if _, ok := args["cpu_gap_ns"]; ok {
		t.Fatalf("cpu_gap leaked into request args: %v", args)
	}
	if args["bank_busy_ns"].(float64) != 5 {
		t.Fatalf("bank_busy missing: %v", args)
	}
}
