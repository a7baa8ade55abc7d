package serve

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"anubis"
	"anubis/internal/obs"
)

func newTestServer(t *testing.T, cfg Config) *Server {
	t.Helper()
	s := New(cfg)
	t.Cleanup(func() {
		// Shutdown twice is an error; tests that shut down themselves
		// just ignore this one.
		_ = s.Shutdown("")
	})
	return s
}

// counterValue reads one counter out of the server's telemetry.
func counterValue(s *Server, name string) uint64 {
	var v uint64
	s.Telemetry().Update(func(r *obs.Registry) { v = r.CounterValue(name) })
	return v
}

func mustCreate(t *testing.T, s *Server, id string, tc TenantConfig) {
	t.Helper()
	if err := s.CreateTenant(id, tc); err != nil {
		t.Fatalf("create %s: %v", id, err)
	}
}

// writeRetry writes one block from any goroutine, honoring
// back-pressure: a WPQ shed advances the tenant's virtual clock past the
// drain point, so a bounded retry always lands.
func writeRetry(s *Server, id string, addr uint64, data []byte) error {
	var err error
	for attempt := 0; attempt < 4; attempt++ {
		if err = s.WriteBlock(id, addr, data); err == nil {
			return nil
		}
		var shed *ShedError
		if !errors.As(err, &shed) || shed.Reason != "wpq" {
			return err
		}
	}
	return err
}

func mustWrite(t *testing.T, s *Server, id string, addr uint64, data []byte) {
	t.Helper()
	if err := writeRetry(s, id, addr, data); err != nil {
		t.Fatalf("write %s[%d]: %v", id, addr, err)
	}
}

func TestCreateWriteReadRoundtrip(t *testing.T) {
	s := newTestServer(t, Config{})
	mustCreate(t, s, "alice", TenantConfig{Scheme: "agit-plus", MemoryBytes: 1 << 20})
	if err := s.WriteBlock("alice", 7, []byte("hello tenant")); err != nil {
		t.Fatal(err)
	}
	got, err := s.ReadBlock("alice", 7)
	if err != nil {
		t.Fatal(err)
	}
	if string(got[:12]) != "hello tenant" {
		t.Fatalf("read back %q", got[:12])
	}
	if _, err := s.ReadBlock("nobody", 0); !errors.Is(err, ErrNoTenant) {
		t.Fatalf("unknown tenant: %v", err)
	}
	if err := s.CreateTenant("alice", TenantConfig{}); !errors.Is(err, ErrTenantExists) {
		t.Fatalf("duplicate create: %v", err)
	}
	if err := s.CreateTenant("bad id!", TenantConfig{}); !errors.Is(err, ErrBadTenantID) {
		t.Fatalf("bad id: %v", err)
	}
	if err := s.CreateTenant("bob", TenantConfig{Scheme: "no-such-scheme"}); err == nil {
		t.Fatal("unknown scheme accepted")
	}
}

func TestTenantQuotaShedsAndIsCounted(t *testing.T) {
	s := newTestServer(t, Config{MaxTenants: 2})
	mustCreate(t, s, "t0", TenantConfig{MemoryBytes: 1 << 20})
	mustCreate(t, s, "t1", TenantConfig{MemoryBytes: 1 << 20})
	err := s.CreateTenant("t2", TenantConfig{MemoryBytes: 1 << 20})
	var shed *ShedError
	if !errors.As(err, &shed) || shed.Reason != "tenant_quota" {
		t.Fatalf("over-quota create: %v", err)
	}
	if got := counterValue(s, `anubis_serve_tenant_shed_total{tenant="t2",reason="tenant_quota"}`); got != 1 {
		t.Fatalf("shed counter = %d, want 1", got)
	}
	// Closing one tenant frees the slot.
	if err := s.CloseTenant("t0"); err != nil {
		t.Fatal(err)
	}
	mustCreate(t, s, "t2", TenantConfig{MemoryBytes: 1 << 20})
}

func TestBlocksQuotaSheds(t *testing.T) {
	s := newTestServer(t, Config{MaxBlocksPerTenant: 1 << 14}) // 1 MiB
	err := s.CreateTenant("big", TenantConfig{MemoryBytes: 8 << 20})
	var shed *ShedError
	if !errors.As(err, &shed) || shed.Reason != "blocks_quota" {
		t.Fatalf("over-size create: %v", err)
	}
	mustCreate(t, s, "ok", TenantConfig{MemoryBytes: 1 << 20})
}

func TestWPQBackpressureShedsAndSelfHeals(t *testing.T) {
	s := newTestServer(t, Config{})
	mustCreate(t, s, "w", TenantConfig{Scheme: "strict", MemoryBytes: 1 << 20})
	// A pure write burst never advances the virtual clock enough to
	// drain the WPQ, so budget must eventually hit zero and shed.
	var sheds, writes int
	for i := 0; i < 512; i++ {
		err := s.WriteBlock("w", uint64(i%128), []byte{byte(i)})
		var shed *ShedError
		switch {
		case err == nil:
			writes++
		case errors.As(err, &shed):
			if shed.Reason != "wpq" {
				t.Fatalf("write %d: shed reason %q, want wpq", i, shed.Reason)
			}
			sheds++
			// The shed advanced the tenant clock past the drain point: the
			// immediate retry must be admitted.
			if err := s.WriteBlock("w", uint64(i%128), []byte{byte(i)}); err != nil {
				t.Fatalf("write %d retry after shed: %v", i, err)
			}
			writes++
		default:
			t.Fatalf("write %d: %v", i, err)
		}
	}
	if sheds == 0 {
		t.Fatal("512-write burst never tripped WPQ back-pressure")
	}
	if got := counterValue(s, `anubis_serve_tenant_shed_total{tenant="w",reason="wpq"}`); got != uint64(sheds) {
		t.Fatalf("wpq shed counter = %d, client observed %d", got, sheds)
	}
	// Back-pressure was admission-only: everything admitted landed.
	rep, err := s.Audit("w")
	if err != nil || !rep.OK() {
		t.Fatalf("audit after burst: %v %v", err, rep.Violations)
	}
}

func TestGlobalInflightCapSheds(t *testing.T) {
	s := newTestServer(t, Config{MaxInflight: 1})
	mustCreate(t, s, "a", TenantConfig{MemoryBytes: 1 << 20})
	// Saturate the single in-flight slot from inside an operation: the
	// nested call must shed on the global cap.
	err := s.Do("a", "outer", func(sys *anubis.System) error {
		return s.Flush("a")
	})
	var shed *ShedError
	if !errors.As(err, &shed) || shed.Reason != "inflight" {
		t.Fatalf("nested call under cap 1: %v", err)
	}
	if got := counterValue(s, `anubis_serve_tenant_shed_total{tenant="a",reason="inflight"}`); got != 1 {
		t.Fatalf("inflight shed counter = %d, want 1", got)
	}
	// And the slot is released afterwards.
	if err := s.Flush("a"); err != nil {
		t.Fatal(err)
	}
}

func TestCrashRecoverIsolation(t *testing.T) {
	s := newTestServer(t, Config{})
	for i := 0; i < 3; i++ {
		id := fmt.Sprintf("t%d", i)
		mustCreate(t, s, id, TenantConfig{Scheme: "asit", MemoryBytes: 1 << 20})
		for b := uint64(0); b < 50; b++ {
			mustWrite(t, s, id, b, []byte(fmt.Sprintf("%s-%d", id, b)))
		}
	}
	d1, _ := s.Digest("t1")
	d2, _ := s.Digest("t2")

	if err := s.Crash("t0"); err != nil {
		t.Fatal(err)
	}
	// Crashed tenant rejects I/O with the typed error...
	if _, err := s.ReadBlock("t0", 0); !errors.Is(err, anubis.ErrCrashed) {
		t.Fatalf("read on crashed tenant: %v", err)
	}
	// ...while the others keep serving.
	if _, err := s.ReadBlock("t1", 3); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Recover("t0"); err != nil {
		t.Fatal(err)
	}
	got, err := s.ReadBlock("t0", 49)
	if err != nil || string(got[:6]) != "t0-49\x00"[:6] {
		t.Fatalf("post-recovery read: %v %q", err, got[:6])
	}
	// The crash/recover cycle never moved the neighbours' digests.
	if d, _ := s.Digest("t1"); d != d1 {
		t.Fatalf("t1 digest moved across t0 crash: %#x -> %#x", d1, d)
	}
	if d, _ := s.Digest("t2"); d != d2 {
		t.Fatalf("t2 digest moved across t0 crash: %#x -> %#x", d2, d)
	}
	if got := counterValue(s, `anubis_serve_tenant_recoveries_total{tenant="t0"}`); got != 1 {
		t.Fatalf("recovery counter = %d, want 1", got)
	}
}

func TestForkTenant(t *testing.T) {
	s := newTestServer(t, Config{})
	mustCreate(t, s, "parent", TenantConfig{MemoryBytes: 1 << 20})
	if err := s.WriteBlock("parent", 0, []byte("shared")); err != nil {
		t.Fatal(err)
	}
	if err := s.ForkTenant("parent", "child"); err != nil {
		t.Fatal(err)
	}
	got, err := s.ReadBlock("child", 0)
	if err != nil || string(got[:6]) != "shared" {
		t.Fatalf("child inherited: %v %q", err, got[:6])
	}
	// Divergence is invisible to the other side.
	if err := s.WriteBlock("child", 0, []byte("childs")); err != nil {
		t.Fatal(err)
	}
	got, _ = s.ReadBlock("parent", 0)
	if string(got[:6]) != "shared" {
		t.Fatalf("child write leaked into parent: %q", got[:6])
	}
	if err := s.ForkTenant("ghost", "x"); !errors.Is(err, ErrNoTenant) {
		t.Fatalf("fork of unknown parent: %v", err)
	}
}

func TestShutdownFlushesAndPersistsState(t *testing.T) {
	dir := t.TempDir()
	s := New(Config{})
	schemes := map[string]string{"a": "agit-plus", "b": "asit", "c": "triad", "d": "strict-sgx"}
	for id, scheme := range schemes {
		mustCreate(t, s, id, TenantConfig{Scheme: scheme, MemoryBytes: 1 << 20})
		for b := uint64(0); b < 100; b++ {
			mustWrite(t, s, id, b, []byte(fmt.Sprintf("%s%d", id, b)))
		}
	}
	if err := s.Shutdown(dir); err != nil {
		t.Fatal(err)
	}
	if err := s.Flush("a"); !errors.Is(err, ErrShutdown) {
		t.Fatalf("op after shutdown: %v", err)
	}
	if _, err := os.Stat(filepath.Join(dir, "manifest.json")); err != nil {
		t.Fatal(err)
	}

	// A new server process reattaches every tenant through recovery and
	// audits clean — the "power cycle under management" contract.
	s2 := New(Config{})
	if err := s2.LoadState(dir); err != nil {
		t.Fatal(err)
	}
	defer s2.Shutdown("")
	for id, scheme := range schemes {
		rep, err := s2.Audit(id)
		if err != nil || !rep.OK() {
			t.Fatalf("tenant %s (%s) audit after restart: %v %v", id, scheme, err, rep.Violations)
		}
		got, err := s2.ReadBlock(id, 99)
		if err != nil || string(got[:3]) != id+"99" {
			t.Fatalf("tenant %s (%s) data after restart: %v %q", id, scheme, err, got[:3])
		}
		if info, err := s2.TenantInfo(id); err != nil || info.Scheme != scheme {
			t.Fatalf("tenant %s scheme after restart: %+v %v, want %s", id, info, err, scheme)
		}
	}
	if got := counterValue(s2, "anubis_serve_recoveries_total"); got != uint64(len(schemes)) {
		t.Fatalf("restart recoveries = %v, want %d", got, len(schemes))
	}
}
