package serve

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"anubis"
	"anubis/internal/nvm"
	"anubis/internal/obs"
)

// eventCount counts the recorded events of one kind on one tenant that
// match keep (nil keeps all).
func eventCount(rec *obs.Recorder, kind obs.EvtKind, tenant string, keep func(obs.Event) bool) int {
	n := 0
	for _, e := range rec.Snapshot() {
		if e.Kind == kind && e.Tenant == tenant && (keep == nil || keep(e)) {
			n++
		}
	}
	return n
}

// TestPanicQuarantinesTenant: a panicking operation fails with the
// typed error instead of killing the process, its neighbours keep
// serving, and the tenant refuses everything but CloseTenant from then
// on. Shutdown neither flushes nor saves it.
func TestPanicQuarantinesTenant(t *testing.T) {
	rec := obs.NewRecorder(256)
	s := New(Config{Recorder: rec})
	for _, id := range []string{"a", "b", "c"} {
		mustCreate(t, s, id, TenantConfig{MemoryBytes: 1 << 20})
		for b := uint64(0); b < 20; b++ {
			mustWrite(t, s, id, b, []byte(id))
		}
	}

	err := s.Do("a", "boom", func(*anubis.System) error { panic("boom") })
	if !errors.Is(err, ErrTenantQuarantined) {
		t.Fatalf("panicking op returned %v, want ErrTenantQuarantined", err)
	}
	mustWrite(t, s, "b", 3, []byte("still here"))
	if got, err := s.ReadBlock("b", 3); err != nil || string(got[:10]) != "still here" {
		t.Fatalf("neighbour after the panic: %v %q", err, got)
	}
	if _, err := s.ReadBlock("a", 0); !errors.Is(err, ErrTenantQuarantined) {
		t.Fatalf("read on quarantined tenant: %v", err)
	}
	if err := s.WriteBlock("a", 0, []byte("x")); !errors.Is(err, ErrTenantQuarantined) {
		t.Fatalf("write on quarantined tenant: %v", err)
	}
	if err := s.ForkTenant("a", "a2"); !errors.Is(err, ErrTenantQuarantined) {
		t.Fatalf("fork of quarantined tenant: %v", err)
	}
	if _, err := s.TenantInfo("a"); !errors.Is(err, ErrTenantQuarantined) {
		t.Fatalf("info of quarantined tenant: %v", err)
	}
	newHTTPClient(t, s).want(http.StatusServiceUnavailable, "GET", "/t/a/block/0", nil)

	if got := counterValue(s, `anubis_serve_tenant_errors_total{tenant="a",op="boom"}`); got != 1 {
		t.Fatalf("errors counter for the panicking op = %d, want 1", got)
	}
	n := eventCount(rec, obs.EvtQuarantine, "a", func(e obs.Event) bool { return e.Op == "boom" && e.Err == "boom" })
	if n != 1 || eventCount(rec, obs.EvtQuarantine, "a", nil) != 1 {
		t.Fatalf("want one quarantine event for a/boom, have %v", kinds(rec.Snapshot(), "a"))
	}

	// CloseTenant drops a quarantined tenant without flushing it. The
	// panicking op leaks the system so the test can see that.
	var leaked *anubis.System
	err = s.Do("c", "boom", func(sys *anubis.System) error { leaked = sys; panic("boom") })
	if !errors.Is(err, ErrTenantQuarantined) {
		t.Fatal(err)
	}
	before := leaked.StateDigest()
	if err := s.CloseTenant("c"); err != nil {
		t.Fatalf("close of quarantined tenant: %v", err)
	}
	if leaked.StateDigest() != before {
		t.Fatal("CloseTenant flushed a quarantined tenant")
	}
	if err := leaked.Flush(); err != nil || leaked.StateDigest() == before {
		t.Fatalf("control: a flush does not move the digest (%v), so the check above shows nothing", err)
	}
	if _, err := s.ReadBlock("c", 0); !errors.Is(err, ErrNoTenant) {
		t.Fatalf("closed quarantined tenant still answers: %v", err)
	}

	dir := t.TempDir()
	if err := s.Shutdown(dir); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(filepath.Join(dir, "a.img")); !os.IsNotExist(err) {
		t.Fatalf("quarantined tenant's image was saved: %v", err)
	}
	if ids := manifestIDs(t, dir); fmt.Sprint(ids) != "[b]" {
		t.Fatalf("manifest = %v, want [b]", ids)
	}
}

func manifestIDs(t *testing.T, dir string) []string {
	t.Helper()
	raw, err := os.ReadFile(filepath.Join(dir, "manifest.json"))
	if err != nil {
		t.Fatal(err)
	}
	var m []manifestEntry
	if err := json.Unmarshal(raw, &m); err != nil {
		t.Fatal(err)
	}
	ids := make([]string, len(m))
	for i, e := range m {
		ids[i] = e.ID
	}
	return ids
}

// TestQueueShedAtDepth: with QueueDepth 1, one operation runs, one
// waits behind it, and a third is shed with reason "queue" and counted
// once; releasing the first lets both admitted operations finish.
func TestQueueShedAtDepth(t *testing.T) {
	rec := obs.NewRecorder(64)
	s := newTestServer(t, Config{QueueDepth: 1, Recorder: rec})
	mustCreate(t, s, "q", TenantConfig{MemoryBytes: 1 << 20})
	started, release := make(chan struct{}), make(chan struct{})
	errs := make(chan error, 2)
	go func() {
		errs <- s.Do("q", "first", func(*anubis.System) error {
			close(started)
			<-release
			return nil
		})
	}()
	<-started
	go func() {
		errs <- s.Do("q", "second", func(*anubis.System) error { return nil })
	}()
	// The second has passed admission once its enqueue event is out.
	deadline := time.Now().Add(10 * time.Second)
	for eventCount(rec, obs.EvtEnqueue, "q", func(e obs.Event) bool { return e.Op == "second" }) == 0 {
		if time.Now().After(deadline) {
			t.Fatal("second operation never passed admission")
		}
		time.Sleep(time.Millisecond)
	}
	err := s.Do("q", "third", func(*anubis.System) error { return nil })
	var shed *ShedError
	if !errors.As(err, &shed) || shed.Reason != "queue" {
		t.Fatalf("third operation at depth 1: %v", err)
	}
	if got := counterValue(s, `anubis_serve_tenant_shed_total{tenant="q",reason="queue"}`); got != 1 {
		t.Fatalf("queue shed counter = %d, want 1", got)
	}
	close(release)
	for i := 0; i < 2; i++ {
		if err := <-errs; err != nil {
			t.Fatalf("admitted operation: %v", err)
		}
	}
}

// TestForkTenantUnderLoad forks a tenant while writers hit it: every
// child is a consistent cut (it serves and audits clean), and a block
// written only on a child never reads back on the parent.
func TestForkTenantUnderLoad(t *testing.T) {
	s := newTestServer(t, Config{})
	mustCreate(t, s, "p", TenantConfig{MemoryBytes: 1 << 20})
	const writers, forks = 4, 6
	var wg sync.WaitGroup
	errs := make(chan error, writers+forks)
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			base := uint64(w) * 256
			for i := 0; i < 150; i++ {
				if err := writeRetry(s, "p", base+uint64(i)%256, []byte{byte(w), byte(i)}); err != nil {
					errs <- fmt.Errorf("writer %d: %w", w, err)
					return
				}
			}
		}(w)
	}
	for f := 0; f < forks; f++ {
		wg.Add(1)
		go func(f int) {
			defer wg.Done()
			child := fmt.Sprintf("p.fork%d", f)
			if err := s.ForkTenant("p", child); err != nil {
				errs <- fmt.Errorf("fork %d: %w", f, err)
				return
			}
			if err := writeRetry(s, child, 4000+uint64(f), []byte{0xCC, byte(f)}); err != nil {
				errs <- fmt.Errorf("fork %d write: %w", f, err)
				return
			}
			if rep, err := s.Audit(child); err != nil || !rep.OK() {
				errs <- fmt.Errorf("fork %d audit: %v %v", f, err, rep.Violations)
			}
		}(f)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	for f := 0; f < forks; f++ {
		got, err := s.ReadBlock("p", 4000+uint64(f))
		if err != nil {
			t.Fatalf("parent read after forks: %v", err)
		}
		if got[0] == 0xCC {
			t.Fatalf("fork %d write leaked into parent", f)
		}
		// The parent kept changing after each fork; the child still
		// audits clean.
		if rep, err := s.Audit(fmt.Sprintf("p.fork%d", f)); err != nil || !rep.OK() {
			t.Fatalf("fork %d audit after parent writes: %v %v", f, err, rep.Violations)
		}
	}
}

// TestTenantsStartNoGoroutines: a tenant is a lock and a System, not a
// goroutine.
func TestTenantsStartNoGoroutines(t *testing.T) {
	s := newTestServer(t, Config{})
	before := runtime.NumGoroutine()
	for i := 0; i < 32; i++ {
		mustCreate(t, s, fmt.Sprintf("t%d", i), TenantConfig{MemoryBytes: 64 << 10})
	}
	if grew := runtime.NumGoroutine() - before; grew >= 32 {
		t.Fatalf("creating 32 tenants started %d goroutines", grew)
	}
}

// TestLoadStateReattachesPastFailures: a tenant that cannot reattach
// (write-back has no recovery, so OpenImage refuses even a flushed
// image) is reported and recorded, and the tenants after it in the
// manifest still attach with their data.
func TestLoadStateReattachesPastFailures(t *testing.T) {
	dir := t.TempDir()
	s := New(Config{})
	for _, tc := range []struct{ id, scheme string }{{"b-asit", "asit"}, {"a-wb", "writeback"}} {
		mustCreate(t, s, tc.id, TenantConfig{Scheme: tc.scheme, MemoryBytes: 1 << 20})
		for b := uint64(0); b < 20; b++ {
			mustWrite(t, s, tc.id, b, []byte(fmt.Sprintf("%s%d", tc.id, b)))
		}
	}
	if err := s.Shutdown(dir); err != nil {
		t.Fatal(err)
	}
	if ids := manifestIDs(t, dir); fmt.Sprint(ids) != "[a-wb b-asit]" {
		t.Fatalf("manifest order = %v, want sorted by id", ids)
	}

	rec := obs.NewRecorder(64)
	s2 := newTestServer(t, Config{Recorder: rec})
	err := s2.LoadState(dir)
	var joined interface{ Unwrap() []error }
	if !errors.Is(err, anubis.ErrNotRecoverable) || !strings.Contains(err.Error(), `"a-wb"`) || !errors.As(err, &joined) {
		t.Fatalf("LoadState = %v, want a-wb's ErrNotRecoverable, joined", err)
	}
	if ids := s2.Tenants(); fmt.Sprint(ids) != "[b-asit]" {
		t.Fatalf("attached tenants = %v, want [b-asit]", ids)
	}
	got, err := s2.ReadBlock("b-asit", 19)
	if err != nil || string(got[:8]) != "b-asit19" {
		t.Fatalf("b-asit data after restart: %v %q", err, got[:8])
	}
	if rep, err := s2.Audit("b-asit"); err != nil || !rep.OK() {
		t.Fatalf("b-asit audit after restart: %v %v", err, rep.Violations)
	}
	if n := eventCount(rec, obs.EvtRecover, "a-wb", func(e obs.Event) bool { return e.Err != "" }); n != 1 {
		t.Fatalf("failed reattach events for a-wb = %d, want 1", n)
	}
	if got := counterValue(s2, `anubis_serve_tenant_errors_total{tenant="a-wb",op="open"}`); got != 1 {
		t.Fatalf("open errors for a-wb = %d, want 1", got)
	}

	// An unparsable manifest comes back unjoined, which is how
	// anubis-serve tells it from per-tenant failures and refuses to
	// start rather than overwrite it.
	if err := os.WriteFile(filepath.Join(dir, "manifest.json"), []byte("not json"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := newTestServer(t, Config{}).LoadState(dir); err == nil || errors.As(err, &joined) {
		t.Fatalf("LoadState of a garbled manifest = %v, want an unjoined error", err)
	}
}

// TestUnattachedTenantStaysInManifest: a tenant that fails to reattach
// stays in the manifest, with its image untouched, across any number of
// restarts, until it is closed or a new tenant takes its id.
func TestUnattachedTenantStaysInManifest(t *testing.T) {
	dir := t.TempDir()
	s := New(Config{})
	for _, tc := range []struct{ id, scheme string }{{"b-asit", "asit"}, {"a-wb", "writeback"}} {
		mustCreate(t, s, tc.id, TenantConfig{Scheme: tc.scheme, MemoryBytes: 1 << 20})
		for b := uint64(0); b < 20; b++ {
			mustWrite(t, s, tc.id, b, []byte(fmt.Sprintf("%s%d", tc.id, b)))
		}
	}
	if err := s.Shutdown(dir); err != nil {
		t.Fatal(err)
	}
	imgPath := filepath.Join(dir, "a-wb.img")
	img, err := os.ReadFile(imgPath)
	if err != nil {
		t.Fatal(err)
	}
	load := func() *Server {
		t.Helper()
		s := New(Config{})
		if err := s.LoadState(dir); !errors.Is(err, anubis.ErrNotRecoverable) || !strings.Contains(err.Error(), `"a-wb"`) {
			t.Fatalf("LoadState = %v, want a-wb's ErrNotRecoverable", err)
		}
		return s
	}
	for restart := 1; restart <= 2; restart++ {
		if err := load().Shutdown(dir); err != nil {
			t.Fatal(err)
		}
		if ids := manifestIDs(t, dir); fmt.Sprint(ids) != "[a-wb b-asit]" {
			t.Fatalf("restart %d: manifest = %v, want [a-wb b-asit]", restart, ids)
		}
		if got, err := os.ReadFile(imgPath); err != nil || string(got) != string(img) {
			t.Fatalf("restart %d: a-wb.img changed (%v)", restart, err)
		}
	}

	// A new tenant that takes the id replaces the entry.
	s = load()
	mustCreate(t, s, "a-wb", TenantConfig{Scheme: "agit-plus", MemoryBytes: 1 << 20})
	other := t.TempDir()
	if err := s.Shutdown(other); err != nil {
		t.Fatal(err)
	}
	if err := newTestServer(t, Config{}).LoadState(other); err != nil {
		t.Fatalf("LoadState after a new tenant took the id: %v", err)
	}

	// Closing the entry removes it.
	s = load()
	if err := s.CloseTenant("a-wb"); err != nil {
		t.Fatalf("CloseTenant of an unattached tenant: %v", err)
	}
	if err := s.CloseTenant("a-wb"); !errors.Is(err, ErrNoTenant) {
		t.Fatalf("second CloseTenant = %v, want ErrNoTenant", err)
	}
	if err := s.Shutdown(dir); err != nil {
		t.Fatal(err)
	}
	if ids := manifestIDs(t, dir); fmt.Sprint(ids) != "[b-asit]" {
		t.Fatalf("manifest after close = %v, want [b-asit]", ids)
	}
}

// TestOldFormatImageStaysUnattached: a tenant whose image is in the v1
// format, written before the keyed-mix pad, is refused at LoadState
// with nvm.ErrOldImage rather than opened into reads that all fail as
// MAC mismatches, and stays in the manifest, image untouched, as a
// tenant that failed to reattach. The v1 image is a current one with
// its magic rewritten (same length, so the gob stays well-formed).
func TestOldFormatImageStaysUnattached(t *testing.T) {
	dir := t.TempDir()
	s := New(Config{})
	mustCreate(t, s, "old", TenantConfig{Scheme: "asit", MemoryBytes: 1 << 20})
	mustWrite(t, s, "old", 3, []byte("old3"))
	if err := s.Shutdown(dir); err != nil {
		t.Fatal(err)
	}
	imgPath := filepath.Join(dir, "old.img")
	img, err := os.ReadFile(imgPath)
	if err != nil {
		t.Fatal(err)
	}
	v1 := bytes.Replace(img, []byte("anubis-nvm-image-v2"), []byte("anubis-nvm-image-v1"), 1)
	if bytes.Equal(v1, img) {
		t.Fatal("saved image does not carry the v2 magic")
	}
	if err := os.WriteFile(imgPath, v1, 0o644); err != nil {
		t.Fatal(err)
	}
	s2 := New(Config{})
	if err := s2.LoadState(dir); !errors.Is(err, nvm.ErrOldImage) || !strings.Contains(err.Error(), `"old"`) {
		t.Fatalf("LoadState = %v, want old's nvm.ErrOldImage", err)
	}
	if ids := s2.Tenants(); len(ids) != 0 {
		t.Fatalf("attached tenants = %v, want none", ids)
	}
	if err := s2.Shutdown(dir); err != nil {
		t.Fatal(err)
	}
	if ids := manifestIDs(t, dir); fmt.Sprint(ids) != "[old]" {
		t.Fatalf("manifest = %v, want [old]", ids)
	}
	if got, err := os.ReadFile(imgPath); err != nil || !bytes.Equal(got, v1) {
		t.Fatalf("old.img changed (%v)", err)
	}
}
