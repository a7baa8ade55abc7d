package obs

import (
	"context"
	"fmt"
	"net"
	"net/http"
	"runtime"
	"sync"
	"time"
)

// Telemetry publishes a registry over HTTP while a sweep or fuzz
// campaign runs. The hot path never touches it: workers report at cell
// (or trial) granularity through Update, which takes the mutex; the
// HTTP handlers take the same mutex only while rendering a snapshot.
//
// Endpoints:
//
//	/metrics      — Prometheus text exposition (plus process gauges:
//	                heap bytes, goroutines, uptime) for scraping.
//	/dash         — embedded live dashboard (dash.go).
//	/debug/dash.json — structured snapshot the dashboard polls; its
//	                events field is the flight recorder's retained
//	                events, oldest first.
//	/             — tiny index page.
type Telemetry struct {
	mu    sync.Mutex
	reg   *Registry
	start time.Time
	rec   *Recorder // nil until AttachRecorder
}

// AttachRecorder publishes a flight recorder in /debug/dash.json's
// events and the dashboard's event tail. Attach before serving; a nil
// recorder detaches.
func (t *Telemetry) AttachRecorder(r *Recorder) {
	t.mu.Lock()
	t.rec = r
	t.mu.Unlock()
}

// NewTelemetry returns an empty live-telemetry publisher.
func NewTelemetry() *Telemetry {
	return &Telemetry{reg: NewRegistry(), start: time.Now()}
}

// Update runs f against the published registry under the lock. Callers
// report coarse progress (one call per completed simulation cell or
// fuzz trial), so contention is negligible.
func (t *Telemetry) Update(f func(r *Registry)) {
	t.mu.Lock()
	f(t.reg)
	t.mu.Unlock()
}

// ServeHTTP implements http.Handler.
func (t *Telemetry) ServeHTTP(w http.ResponseWriter, req *http.Request) {
	switch req.URL.Path {
	case "/metrics":
		t.serveMetrics(w)
	case "/dash":
		t.serveDash(w)
	case "/debug/dash.json":
		t.serveDashJSON(w)
	case "/":
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		fmt.Fprintln(w, "anubis telemetry: /metrics (Prometheus), /dash (dashboard), /debug/dash.json (JSON, with the flight recorder's events)")
	default:
		http.NotFound(w, req)
	}
}

// processGauges adds point-in-time process stats to a registry copy.
func (t *Telemetry) processGauges(r *Registry) {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	r.Gauge("anubis_heap_alloc_bytes", float64(ms.HeapAlloc))
	r.Gauge("anubis_heap_sys_bytes", float64(ms.HeapSys))
	r.Gauge("anubis_gc_cycles_total", float64(ms.NumGC))
	r.Gauge("anubis_goroutines", float64(runtime.NumGoroutine()))
	r.Gauge("anubis_uptime_seconds", time.Since(t.start).Seconds())
}

func (t *Telemetry) serveMetrics(w http.ResponseWriter) {
	t.mu.Lock()
	snap := NewRegistry()
	snap.Merge(t.reg)
	t.mu.Unlock()
	t.processGauges(snap)
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	snap.WritePrometheus(w)
}

// Server is a handle to a running telemetry HTTP server: the bound
// address plus a way to shut it down. Earlier revisions leaked the
// listener and serving goroutine until process exit; every caller now
// owns a handle and closes it when the campaign ends, so the port is
// released (and tests can re-bind it immediately).
type Server struct {
	srv  *http.Server
	ln   net.Listener
	addr string

	mu     sync.Mutex
	closed bool
}

// Addr returns the bound listen address (useful with ":0").
func (s *Server) Addr() string { return s.addr }

// Close shuts the server down gracefully, waiting (up to a short
// deadline) for in-flight scrapes to finish before releasing the port.
// Safe to call more than once.
func (s *Server) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return nil
	}
	s.closed = true
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
	defer cancel()
	err := s.srv.Shutdown(ctx)
	if err != nil {
		err = s.srv.Close()
	}
	// Shutdown only closes listeners the serve goroutine has already
	// registered; close ours directly so the port is guaranteed free the
	// moment Close returns, however the startup/shutdown race fell.
	_ = s.ln.Close()
	return err
}

// Serve starts the telemetry HTTP server on addr (e.g. ":9090" or
// "127.0.0.1:0") in a background goroutine and returns a handle with
// the bound address. The caller must Close the handle on exit —
// otherwise the goroutine and port live until the process dies.
func Serve(addr string, t *Telemetry) (*Server, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("obs: metrics listener: %w", err)
	}
	srv := &http.Server{Handler: t, ReadHeaderTimeout: 5 * time.Second}
	go func() { _ = srv.Serve(ln) }()
	return &Server{srv: srv, ln: ln, addr: ln.Addr().String()}, nil
}
