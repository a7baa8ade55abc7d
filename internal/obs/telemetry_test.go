package obs

import (
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
)

func get(t *testing.T, h http.Handler, path string) (int, string, string) {
	t.Helper()
	req := httptest.NewRequest("GET", path, nil)
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	res := rec.Result()
	body, _ := io.ReadAll(res.Body)
	return res.StatusCode, string(body), res.Header.Get("Content-Type")
}

func TestTelemetryMetricsEndpoint(t *testing.T) {
	tel := NewTelemetry()
	tel.Update(func(r *Registry) {
		r.Counter("anubis_cells_completed_total", 3)
		var l Ledger
		l.Add(CompCrypto, 42)
		r.MergeLedger("anubis_stall_ns_total", &l)
	})
	code, body, ct := get(t, tel, "/metrics")
	if code != 200 {
		t.Fatalf("status %d", code)
	}
	if !strings.HasPrefix(ct, "text/plain") {
		t.Fatalf("content type %q", ct)
	}
	if !strings.Contains(body, "anubis_cells_completed_total 3") {
		t.Fatalf("counter missing:\n%s", body)
	}
	if !strings.Contains(body, `anubis_stall_ns_total{component="crypto"} 42`) {
		t.Fatalf("stall counter missing:\n%s", body)
	}
	// Process gauges are stamped at render time.
	for _, g := range []string{"anubis_heap_alloc_bytes", "anubis_goroutines", "anubis_uptime_seconds"} {
		if !strings.Contains(body, g) {
			t.Fatalf("process gauge %s missing:\n%s", g, body)
		}
	}
	// Serving must not mutate the published registry.
	tel.Update(func(r *Registry) {
		if v := r.gauges["anubis_goroutines"]; v != 0 {
			t.Fatalf("process gauge leaked into published registry: %v", v)
		}
	})
}

func TestTelemetryIndexAnd404(t *testing.T) {
	tel := NewTelemetry()
	if code, body, _ := get(t, tel, "/"); code != 200 || !strings.Contains(body, "/metrics") {
		t.Fatalf("index: %d %q", code, body)
	}
	// /vars, /debug/vars and /debug/events were removed: /metrics and
	// /debug/dash.json carry everything they served.
	for _, path := range []string{"/nope", "/vars", "/debug/vars", "/debug/events"} {
		if code, _, _ := get(t, tel, path); code != 404 {
			t.Fatalf("%s: want 404, got %d", path, code)
		}
	}
}

func TestServeBindsEphemeralPort(t *testing.T) {
	tel := NewTelemetry()
	tel.Update(func(r *Registry) { r.Counter("x_total", 1) })
	srv, err := Serve("127.0.0.1:0", tel)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	resp, err := http.Get("http://" + srv.Addr() + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, _ := io.ReadAll(resp.Body)
	if resp.StatusCode != 200 || !strings.Contains(string(body), "x_total 1") {
		t.Fatalf("live serve: %d\n%s", resp.StatusCode, body)
	}
}

// TestServeCloseReleasesPort is the regression for the original leak:
// Serve handed back only the bound address, so the listener and its
// goroutine lived until process exit and the port could never be
// re-bound. Closing the handle must release the port immediately.
func TestServeCloseReleasesPort(t *testing.T) {
	srv, err := Serve("127.0.0.1:0", NewTelemetry())
	if err != nil {
		t.Fatal(err)
	}
	addr := srv.Addr()
	if err := srv.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	if err := srv.Close(); err != nil {
		t.Fatalf("second Close: %v", err)
	}
	// The exact address must be re-bindable now that the server is down.
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		t.Fatalf("port %s not released after Close: %v", addr, err)
	}
	ln.Close()
	// And scrapes must fail — the old server is really gone.
	if _, err := http.Get("http://" + addr + "/metrics"); err == nil {
		t.Fatal("scrape succeeded after Close")
	}
}

// TestTelemetryConcurrentMergeAndScrape hammers a Telemetry from both
// sides at once — writer goroutines folding registries in through
// Update while scraper goroutines GET /metrics and /debug/dash.json —
// and strictly parses every scraped body: each sample line must be
// well-formed, no line may be torn, and counters must be monotone
// across a single scraper's successive reads. Run with -race this
// doubles as the data-race proof for the serving boundary.
func TestTelemetryConcurrentMergeAndScrape(t *testing.T) {
	tel := NewTelemetry()
	rec := NewRecorder(64)
	tel.AttachRecorder(rec)

	const (
		writers = 4
		scrapes = 40
		rounds  = 50
	)
	var wg sync.WaitGroup
	for wkr := 0; wkr < writers; wkr++ {
		wg.Add(1)
		go func(wkr int) {
			defer wg.Done()
			for i := 0; i < rounds; i++ {
				part := NewRegistry()
				part.Counter(Label("hammer_total", "worker", fmt.Sprintf("w%d", wkr)), 1)
				part.Counter("hammer_all_total", 1)
				part.Observe("hammer_wall_ns", uint64(i+1))
				tel.Update(func(r *Registry) { r.Merge(part) })
				rec.Record(Event{Kind: EvtExec, Op: "hammer"})
			}
		}(wkr)
	}

	paths := []string{"/metrics", "/debug/dash.json"}
	scrapeErr := make(chan error, len(paths))
	for _, path := range paths {
		wg.Add(1)
		go func(path string) {
			defer wg.Done()
			var lastAll uint64
			for i := 0; i < scrapes; i++ {
				w := httptest.NewRecorder()
				tel.ServeHTTP(w, httptest.NewRequest("GET", path, nil))
				if w.Code != 200 {
					scrapeErr <- fmt.Errorf("%s: status %d", path, w.Code)
					return
				}
				body := w.Body.String()
				switch path {
				case "/metrics":
					all, err := strictParseMetrics(body)
					if err != nil {
						scrapeErr <- fmt.Errorf("%s scrape %d: %v", path, i, err)
						return
					}
					if all < lastAll {
						scrapeErr <- fmt.Errorf("%s: counter went backwards: %d -> %d", path, lastAll, all)
						return
					}
					lastAll = all
				default: // JSON endpoints must stay parseable mid-merge
					var v map[string]any
					if err := json.Unmarshal([]byte(body), &v); err != nil {
						scrapeErr <- fmt.Errorf("%s scrape %d: %v", path, i, err)
						return
					}
				}
			}
		}(path)
	}
	wg.Wait()
	close(scrapeErr)
	for err := range scrapeErr {
		t.Error(err)
	}

	// Final state: nothing lost to the concurrency.
	w := httptest.NewRecorder()
	tel.ServeHTTP(w, httptest.NewRequest("GET", "/metrics", nil))
	all, err := strictParseMetrics(w.Body.String())
	if err != nil {
		t.Fatalf("final scrape: %v", err)
	}
	if want := uint64(writers * rounds); all != want {
		t.Errorf("hammer_all_total = %d, want %d", all, want)
	}
	if rec.Total() != uint64(writers*rounds) {
		t.Errorf("recorder total = %d, want %d", rec.Total(), writers*rounds)
	}
}

// strictParseMetrics validates a whole Prometheus exposition body line
// by line — TYPE comments, `name value` and `name{labels} value`
// samples, nothing else — and returns the hammer_all_total value (0 if
// absent). A torn line (interleaved writes, split buffers) fails the
// parse.
func strictParseMetrics(body string) (hammerAll uint64, err error) {
	if !strings.HasSuffix(body, "\n") {
		return 0, fmt.Errorf("body does not end in newline (torn write?)")
	}
	for _, line := range strings.Split(strings.TrimSuffix(body, "\n"), "\n") {
		if strings.HasPrefix(line, "# TYPE ") {
			f := strings.Fields(line)
			if len(f) != 4 {
				return 0, fmt.Errorf("malformed TYPE line %q", line)
			}
			continue
		}
		sp := strings.LastIndexByte(line, ' ')
		if sp <= 0 {
			return 0, fmt.Errorf("malformed sample line %q", line)
		}
		name, val := line[:sp], line[sp+1:]
		if open := strings.IndexByte(name, '{'); open >= 0 {
			if !strings.HasSuffix(name, "}") {
				return 0, fmt.Errorf("unbalanced braces in %q", line)
			}
		} else if strings.ContainsAny(name, `"}=`) {
			return 0, fmt.Errorf("label characters outside braces in %q", line)
		}
		var f float64
		if _, serr := fmt.Sscanf(val, "%g", &f); serr != nil {
			return 0, fmt.Errorf("bad value in %q: %v", line, serr)
		}
		if name == "hammer_all_total" {
			hammerAll = uint64(f)
		}
	}
	return hammerAll, nil
}
