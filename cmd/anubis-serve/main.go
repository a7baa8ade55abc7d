// anubis-serve: a long-running multi-tenant secure-memory service.
//
// Each tenant is an independent secure NVM (one controller + device)
// created, written, forked, crashed, recovered, and audited over a
// REST-ish HTTP/JSON API — the paper's "in-memory database under live
// traffic" scenario as an actual server. Admission control sheds load
// (429 + Retry-After) on the per-tenant WPQ back-pressure signal, the
// per-tenant queue depth, and a global in-flight cap; per-tenant and
// aggregate metrics stream from -metrics-addr as Prometheus text.
//
// Run:
//
//	anubis-serve -addr 127.0.0.1:8080 -metrics-addr 127.0.0.1:9090
//
// then drive it with the kvstore example's HTTP mode:
//
//	go run ./examples/kvstore -addr 127.0.0.1:8080 -tenant alice
//
// Graceful shutdown (SIGINT/SIGTERM) stops admission, waits for each
// tenant's running operation, flushes all metadata, and — with
// -state-dir — saves each tenant's NVM image plus a manifest so the
// next start reattaches every tenant through the scheme's recovery
// path. A tenant that fails to reattach is reported on stderr and kept
// in the next manifest, and the server serves the rest; an unreadable
// manifest stops the start.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/signal"
	"path/filepath"
	"syscall"
	"time"

	"anubis/internal/obs"
	"anubis/internal/serve"
)

func main() {
	var (
		addr        = flag.String("addr", "127.0.0.1:8080", "API listen address")
		metricsAddr = flag.String("metrics-addr", "", "serve live telemetry on this address (/metrics Prometheus text)")
		stateDir    = flag.String("state-dir", "", "save tenant NVM images here on shutdown and reattach them on start")
		maxTenants  = flag.Int("max-tenants", 64, "tenant-count quota")
		maxBytes    = flag.Uint64("max-tenant-bytes", 64<<20, "per-tenant protected-capacity quota (bytes)")
		queueDepth  = flag.Int("queue-depth", 64, "per-tenant pending-request queue bound")
		maxInflight = flag.Int("max-inflight", 256, "global in-flight request cap")
		events      = flag.Int("events", obs.DefaultRecorderCap,
			"flight-recorder ring capacity (last N events in /debug/dash.json and /dash; dumped to state-dir/events.jsonl on shutdown; 0 disables)")
	)
	flag.Parse()
	fail := func(err error) {
		fmt.Fprintln(os.Stderr, "anubis-serve:", err)
		os.Exit(1)
	}

	var rec *obs.Recorder
	if *events > 0 {
		rec = obs.NewRecorder(*events)
	}
	s := serve.New(serve.Config{
		MaxTenants:         *maxTenants,
		MaxBlocksPerTenant: *maxBytes / 64,
		QueueDepth:         *queueDepth,
		MaxInflight:        *maxInflight,
		Recorder:           rec,
	})
	if *stateDir != "" {
		if _, err := os.Stat(filepath.Join(*stateDir, "manifest.json")); err == nil {
			if err := s.LoadState(*stateDir); err != nil {
				// Per-tenant failures come joined. Any other error is an
				// unreadable manifest, which the next shutdown would
				// overwrite, orphaning every saved image.
				var perTenant interface{ Unwrap() []error }
				if !errors.As(err, &perTenant) {
					fail(err)
				}
				fmt.Fprintln(os.Stderr, "anubis-serve:", err)
			}
			fmt.Printf("reattached %d tenants from %s (recovery ran per tenant)\n",
				len(s.Tenants()), *stateDir)
		}
	}

	if *metricsAddr != "" {
		msrv, err := obs.Serve(*metricsAddr, s.Telemetry())
		if err != nil {
			fail(err)
		}
		defer msrv.Close()
		fmt.Printf("telemetry: http://%s/metrics\n", msrv.Addr())
	}

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		fail(err)
	}
	httpSrv := &http.Server{Handler: s.Handler(), ReadHeaderTimeout: 10 * time.Second}
	errCh := make(chan error, 1)
	go func() { errCh <- httpSrv.Serve(ln) }()
	fmt.Printf("anubis-serve: listening on %s (max %d tenants, %d blocks each)\n",
		ln.Addr(), *maxTenants, *maxBytes/64)

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	select {
	case got := <-sig:
		fmt.Printf("anubis-serve: %v — draining %d tenants\n", got, len(s.Tenants()))
	case err := <-errCh:
		fail(err)
	}

	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := httpSrv.Shutdown(ctx); err != nil {
		fmt.Fprintln(os.Stderr, "anubis-serve: http shutdown:", err)
	}
	if err := s.Shutdown(*stateDir); err != nil {
		fail(err)
	}
	dumpEvents(rec, *stateDir)
	if *stateDir != "" {
		fmt.Printf("anubis-serve: flushed and saved %s/manifest.json\n", *stateDir)
	} else {
		fmt.Println("anubis-serve: all tenants flushed")
	}
}

// dumpEvents writes the flight-recorder tail on shutdown: to
// <stateDir>/events.jsonl when state is being saved, to stderr
// otherwise — either way the last thing the server did survives the
// process.
func dumpEvents(rec *obs.Recorder, stateDir string) {
	if !rec.Enabled() || rec.Total() == 0 {
		return
	}
	if stateDir == "" {
		fmt.Fprintf(os.Stderr, "anubis-serve: flight recorder tail (%d events total):\n", rec.Total())
		_ = rec.WriteJSONL(os.Stderr)
		return
	}
	path := filepath.Join(stateDir, "events.jsonl")
	f, err := os.Create(path)
	if err != nil {
		fmt.Fprintln(os.Stderr, "anubis-serve: event dump:", err)
		return
	}
	defer f.Close()
	if err := rec.WriteJSONL(f); err != nil {
		fmt.Fprintln(os.Stderr, "anubis-serve: event dump:", err)
		return
	}
	fmt.Printf("anubis-serve: dumped flight recorder to %s (%d events total)\n", path, rec.Total())
}
