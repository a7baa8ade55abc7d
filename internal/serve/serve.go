// Package serve multiplexes many independent secure-NVM tenants behind
// one long-running service: the paper's deployment story made concrete.
// Each tenant is a full anubis.System (controller + device) that can be
// created, written, forked, crashed, recovered, audited, and closed
// while every other tenant keeps serving — Anubis recovery is fast
// enough that a mid-traffic crash is an in-process event, not an outage.
//
// A registry mutex guards the id → tenant map and is never held during
// I/O. Each tenant has one mutex beside its System, and every operation
// runs on its caller's goroutine under that lock: a tenant's operations
// serialize (the controller models one memory-controller pipeline), and
// a hot tenant contends only with itself. Admission control sheds
// instead of queueing unboundedly, on a global in-flight cap, a
// per-tenant queue depth, and for writes the tenant's WPQ back-pressure
// probe; quotas cap the tenant count and each tenant's size. A shed is
// a typed ShedError with a retry-after hint, which the HTTP layer maps
// to 429 + Retry-After. A panic inside an operation quarantines its
// tenant and no other. DESIGN.md §15 has the details.
//
// Metrics flow into the server's own obs.Telemetry (Server.Telemetry,
// which anubis-serve serves on -metrics-addr), with aggregate families
// (anubis_serve_requests_total, ..._tenants) and per-tenant labeled
// families (anubis_serve_tenant_requests_total{...}).
package serve

import (
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"anubis"
	"anubis/internal/obs"
)

// Lifecycle and lookup errors.
var (
	// ErrTenantExists reports a create/fork against an id already in use.
	ErrTenantExists = errors.New("serve: tenant already exists")
	// ErrNoTenant reports an operation against an unknown tenant id.
	ErrNoTenant = errors.New("serve: no such tenant")
	// ErrTenantClosed reports a request that raced with tenant close.
	ErrTenantClosed = errors.New("serve: tenant closed")
	// ErrTenantQuarantined reports a request on a tenant whose earlier
	// operation panicked; only CloseTenant still acts on it.
	ErrTenantQuarantined = errors.New("serve: tenant quarantined")
	// ErrShutdown reports a request after Shutdown began.
	ErrShutdown = errors.New("serve: server is shut down")
	// ErrBadTenantID reports an empty or oversized tenant id.
	ErrBadTenantID = errors.New("serve: tenant id must be 1..64 bytes of [a-zA-Z0-9._-]")
)

// ShedError is an admission-control rejection: the request was not
// executed and should be retried after RetryAfter. Reason is one of
// "inflight" (global in-flight cap), "queue" (QueueDepth operations
// already wait for the tenant), "wpq" (tenant's write-pending-queue
// back-pressure), "tenant_quota" (tenant-count cap), or "blocks_quota"
// (per-tenant block-count cap).
type ShedError struct {
	Tenant     string
	Reason     string
	RetryAfter time.Duration
}

func (e *ShedError) Error() string {
	return fmt.Sprintf("serve: tenant %q shed (%s), retry after %v", e.Tenant, e.Reason, e.RetryAfter)
}

// Config bounds the service. Zero values take defaults.
type Config struct {
	// MaxTenants caps the number of live tenants (default 64).
	MaxTenants int
	// MaxBlocksPerTenant caps each tenant's protected capacity in
	// 64-byte blocks (default 1<<18 blocks = 16 MiB).
	MaxBlocksPerTenant uint64
	// QueueDepth bounds how many operations may wait for one tenant
	// behind the one it is running (default 64).
	QueueDepth int
	// MaxInflight caps requests admitted process-wide at one moment
	// (default 256).
	MaxInflight int
	// Recorder is the flight recorder receiving structured request and
	// lifecycle events (enqueue/shed/exec/quarantine, create/fork/close,
	// crash/recover/audit). nil disables recording at zero hot-path
	// cost. The recorder is auto-attached to the server's Telemetry, so
	// /debug/dash.json's events and the dashboard's event tail see it.
	Recorder *obs.Recorder
}

func (c Config) withDefaults() Config {
	if c.MaxTenants <= 0 {
		c.MaxTenants = 64
	}
	if c.MaxBlocksPerTenant == 0 {
		c.MaxBlocksPerTenant = 1 << 18
	}
	if c.QueueDepth <= 0 {
		c.QueueDepth = 64
	}
	if c.MaxInflight <= 0 {
		c.MaxInflight = 256
	}
	return c
}

// TenantConfig is the per-tenant creation request (the PUT /t/{id}
// body). Zero values take serving defaults, not the library's 1 GB.
type TenantConfig struct {
	// Scheme names the persistence scheme, one of anubis.SchemeNames()
	// ("agit-plus", "strict-sgx", ...; default "agit-plus").
	Scheme string `json:"scheme,omitempty"`
	// MemoryBytes is the protected capacity (default 8 MiB; must be a
	// multiple of 4096 and within the block quota).
	MemoryBytes uint64 `json:"memory_bytes,omitempty"`
}

func (tc TenantConfig) resolve() (anubis.Config, TenantConfig, error) {
	if tc.Scheme == "" {
		tc.Scheme = anubis.AGITPlus.String()
	}
	if tc.MemoryBytes == 0 {
		tc.MemoryBytes = 8 << 20
	}
	scheme, tree, err := anubis.ParseScheme(tc.Scheme)
	if err != nil {
		return anubis.Config{}, tc, err
	}
	if tc.MemoryBytes%4096 != 0 {
		return anubis.Config{}, tc, fmt.Errorf("serve: memory_bytes %d not a multiple of 4096", tc.MemoryBytes)
	}
	return anubis.Config{Scheme: scheme, Tree: tree, MemoryBytes: tc.MemoryBytes}, tc, nil
}

// tenant is one registered System and the lock that serializes it.
type tenant struct {
	id  string
	tc  TenantConfig // resolved (scheme/bytes filled in)
	cfg anubis.Config

	// waiting counts the operations holding or waiting for mu; admission
	// sheds an operation that would make it exceed QueueDepth+1.
	waiting atomic.Int64

	mu  sync.Mutex // guards sys and refusal
	sys *anubis.System
	// refusal is nil while t serves; after that it is what every
	// operation gets: ErrTenantQuarantined or ErrTenantClosed.
	refusal error
}

// retire closes a serving t and flushes its metadata, and reports
// whether t was serving. A quarantined t stays quarantined and is not
// flushed: its controller may have stopped halfway through an update.
// Call with t.mu held.
func (t *tenant) retire() (serving bool, err error) {
	if t.refusal != nil {
		return false, nil
	}
	t.refusal = ErrTenantClosed
	if err := t.sys.Flush(); err != nil {
		return true, fmt.Errorf("serve: flush tenant %q: %w", t.id, err)
	}
	return true, nil
}

// Server is the multi-tenant registry plus admission control. Create
// one with New; serve it over HTTP with Handler.
type Server struct {
	cfg Config
	tel *obs.Telemetry
	rec *obs.Recorder // nil = flight recorder disabled

	mu      sync.Mutex
	tenants map[string]*tenant
	// unattached holds, by id, the manifest entries LoadState could not
	// reattach. Shutdown writes them back, next to the live tenants and
	// with their images untouched, until CloseTenant removes one or a
	// new tenant takes its id, so a failed tenant is never dropped from
	// the manifest while its image stays.
	unattached map[string]manifestEntry
	closed     bool

	inflight atomic.Int64
}

// New returns an empty server.
func New(cfg Config) *Server {
	cfg = cfg.withDefaults()
	s := &Server{cfg: cfg, tel: obs.NewTelemetry(), rec: cfg.Recorder, tenants: make(map[string]*tenant),
		unattached: make(map[string]manifestEntry)}
	if s.rec != nil {
		s.tel.AttachRecorder(s.rec)
	}
	s.publishGauges()
	return s
}

// Telemetry returns the server's metrics sink (serve it with obs.Serve).
func (s *Server) Telemetry() *obs.Telemetry { return s.tel }

// recLedgerFromMap rebuilds a phase ledger from the public report's
// name → ns map (unknown names are dropped, matching UnmarshalJSON).
func recLedgerFromMap(m map[string]uint64) obs.RecLedger {
	var l obs.RecLedger
	for name, v := range m {
		if p, ok := obs.RecPhaseByName(name); ok {
			l.Add(p, v)
		}
	}
	return l
}

func validID(id string) bool {
	if len(id) == 0 || len(id) > 64 {
		return false
	}
	for i := 0; i < len(id); i++ {
		c := id[i]
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c >= '0' && c <= '9',
			c == '.', c == '_', c == '-':
		default:
			return false
		}
	}
	return true
}

// --- lifecycle -------------------------------------------------------------

// CreateTenant provisions a fresh tenant. Quota violations return a
// *ShedError (the request may succeed later, once capacity frees up).
func (s *Server) CreateTenant(id string, tc TenantConfig) error {
	if !validID(id) {
		return ErrBadTenantID
	}
	cfg, rtc, err := tc.resolve()
	if err != nil {
		return err
	}
	if blocks := cfg.MemoryBytes / anubis.BlockSize; blocks > s.cfg.MaxBlocksPerTenant {
		return s.shed(id, "create", "blocks_quota", time.Second)
	}
	sys, err := anubis.New(cfg)
	if err != nil {
		return err
	}
	return s.add(id, rtc, cfg, sys, "create")
}

// ForkTenant creates child as an independent copy-on-write clone of
// parent — checkpoint/what-if as a service primitive. The fork point is
// a consistent cut between the parent's in-flight operations; the
// parent keeps serving throughout.
func (s *Server) ForkTenant(parent, child string) error {
	if !validID(child) {
		return ErrBadTenantID
	}
	p, err := s.lookup(parent)
	var sys *anubis.System
	if err == nil {
		// The clone is taken under the parent's lock, between two of its
		// operations, and outside the registry mutex.
		p.mu.Lock()
		if err = p.refusal; err == nil {
			sys = p.sys.Fork()
		}
		p.mu.Unlock()
	}
	if err != nil {
		s.countOp(parent, "fork", err)
		return err
	}
	if err := s.add(child, p.tc, p.cfg, sys, "fork"); err != nil {
		return err
	}
	s.countOp(parent, "fork", nil)
	if s.rec != nil {
		s.rec.Record(obs.Event{Kind: obs.EvtFork, Tenant: child, Op: "fork", Reason: "parent=" + parent})
	}
	return nil
}

// add registers a live system under id, enforcing the tenant-count
// quota.
func (s *Server) add(id string, tc TenantConfig, cfg anubis.Config, sys *anubis.System, op string) error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return ErrShutdown
	}
	if _, ok := s.tenants[id]; ok {
		s.mu.Unlock()
		return ErrTenantExists
	}
	if len(s.tenants) >= s.cfg.MaxTenants {
		s.mu.Unlock()
		return s.shed(id, op, "tenant_quota", time.Second)
	}
	s.tenants[id] = &tenant{id: id, tc: tc, cfg: cfg, sys: sys}
	delete(s.unattached, id)
	s.mu.Unlock()
	s.countOp(id, op, nil)
	if op != "fork" { // fork is recorded by ForkTenant with its parent
		s.rec.Record(obs.Event{Kind: obs.EvtCreate, Tenant: id, Op: op})
	}
	s.publishGauges()
	return nil
}

// CloseTenant drops a tenant from the registry, then retires it under
// its lock, so an operation already past lookup is refused. Closing a
// tenant that LoadState could not reattach removes it from the
// manifest the next Shutdown writes.
func (s *Server) CloseTenant(id string) error {
	s.mu.Lock()
	t, ok := s.tenants[id]
	if ok {
		delete(s.tenants, id)
	}
	_, unattached := s.unattached[id]
	delete(s.unattached, id)
	s.mu.Unlock()
	if !ok && !unattached {
		return ErrNoTenant
	}
	var err error
	if ok {
		t.mu.Lock()
		_, err = t.retire()
		t.mu.Unlock()
	}
	s.countOp(id, "close", err)
	s.rec.Record(obs.Event{Kind: obs.EvtClose, Tenant: id, Op: "close"})
	s.publishGauges()
	return err
}

// Tenants returns the live tenant ids (unordered).
func (s *Server) Tenants() []string {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]string, 0, len(s.tenants))
	for id := range s.tenants {
		out = append(out, id)
	}
	return out
}

// Shutdown stops admission, closes every tenant once its running
// operation ends, and flushes all metadata — the graceful counterpart
// of kill -9. If dir is non-empty, each tenant's NVM image plus a
// manifest sorted by tenant id are saved there for a later LoadState
// (a served power cycle). Quarantined tenants are neither flushed nor
// saved. Tenants LoadState could not reattach stay in the manifest,
// and their images are left as they are.
func (s *Server) Shutdown(dir string) error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return ErrShutdown
	}
	s.closed = true
	tenants := make([]*tenant, 0, len(s.tenants))
	for _, t := range s.tenants {
		tenants = append(tenants, t)
	}
	kept := make([]manifestEntry, 0, len(s.unattached))
	for id, e := range s.unattached {
		if _, live := s.tenants[id]; !live {
			kept = append(kept, e)
		}
	}
	s.mu.Unlock()
	sort.Slice(tenants, func(i, j int) bool { return tenants[i].id < tenants[j].id })

	var firstErr error
	serving := make([]*tenant, 0, len(tenants))
	for _, t := range tenants {
		// Held until Shutdown returns; operations that wait for it then
		// find the tenant closed.
		t.mu.Lock()
		defer t.mu.Unlock()
		ok, err := t.retire()
		if ok {
			serving = append(serving, t)
		}
		if err != nil && firstErr == nil {
			firstErr = err
		}
	}
	if dir != "" {
		if err := s.saveState(dir, serving, kept); err != nil && firstErr == nil {
			firstErr = err
		}
	}
	return firstErr
}

// --- state persistence -----------------------------------------------------

type manifestEntry struct {
	ID          string `json:"id"`
	Scheme      string `json:"scheme"`
	MemoryBytes uint64 `json:"memory_bytes"`
}

// saveState writes each tenant's image and then the manifest, which
// also lists the kept entries of tenants that failed to reattach. Call
// with every tenant's lock held.
func (s *Server) saveState(dir string, tenants []*tenant, kept []manifestEntry) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	manifest := append(make([]manifestEntry, 0, len(tenants)+len(kept)), kept...)
	for _, t := range tenants {
		f, err := os.Create(filepath.Join(dir, t.id+".img"))
		if err != nil {
			return err
		}
		err = t.sys.SaveImage(f)
		if cerr := f.Close(); err == nil {
			err = cerr
		}
		if err != nil {
			return fmt.Errorf("serve: saving tenant %q: %w", t.id, err)
		}
		manifest = append(manifest, manifestEntry{ID: t.id, Scheme: t.tc.Scheme, MemoryBytes: t.tc.MemoryBytes})
	}
	sort.Slice(manifest, func(i, j int) bool { return manifest[i].ID < manifest[j].ID })
	raw, err := json.MarshalIndent(manifest, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(dir, "manifest.json"), raw, 0o644)
}

// LoadState reattaches every tenant recorded in dir's manifest: each NVM
// image is reopened with anubis.OpenImage, which runs the scheme's
// recovery (images are by definition post-power-cycle). A tenant that
// fails is skipped, counted as an "open" error and recorded as a failed
// recover event, and its entry is kept for the next Shutdown's manifest;
// the returned error joins (errors.Join) one error per such tenant,
// each naming it. A manifest that cannot be read or parsed
// is returned unjoined, and nothing is attached. Call before serving
// traffic.
func (s *Server) LoadState(dir string) error {
	raw, err := os.ReadFile(filepath.Join(dir, "manifest.json"))
	if err != nil {
		return err
	}
	var manifest []manifestEntry
	if err := json.Unmarshal(raw, &manifest); err != nil {
		return fmt.Errorf("serve: manifest: %w", err)
	}
	var errs []error
	for _, e := range manifest {
		if err := s.reattach(dir, e); err != nil {
			err = fmt.Errorf("serve: reattaching tenant %q: %w", e.ID, err)
			s.countOp(e.ID, "open", err)
			s.rec.Record(obs.Event{Kind: obs.EvtRecover, Tenant: e.ID, Op: "open", Err: err.Error()})
			s.mu.Lock()
			s.unattached[e.ID] = e
			s.mu.Unlock()
			errs = append(errs, err)
		}
	}
	return errors.Join(errs...)
}

// reattach reopens one saved tenant image and registers it.
func (s *Server) reattach(dir string, e manifestEntry) error {
	if !validID(e.ID) {
		return ErrBadTenantID
	}
	cfg, rtc, err := TenantConfig{Scheme: e.Scheme, MemoryBytes: e.MemoryBytes}.resolve()
	if err != nil {
		return err
	}
	f, err := os.Open(filepath.Join(dir, e.ID+".img"))
	if err != nil {
		return err
	}
	sys, rep, err := anubis.OpenImage(cfg, f)
	f.Close()
	if err != nil {
		return err
	}
	if err := s.add(e.ID, rtc, cfg, sys, "open"); err != nil {
		return err
	}
	s.countRecovery(e.ID, "open", rep)
	return nil
}

// --- admission + execution -----------------------------------------------

func (s *Server) lookup(id string) (*tenant, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return nil, ErrShutdown
	}
	t, ok := s.tenants[id]
	if !ok {
		return nil, ErrNoTenant
	}
	return t, nil
}

// Do admits one read-like operation on a tenant and runs fn on the
// caller's goroutine under the tenant's lock. fn must not call back
// into the server for the same tenant: the lock is not reentrant.
func (s *Server) Do(id, op string, fn func(sys *anubis.System) error) error {
	return s.do(id, op, false, fn)
}

// DoWrite is Do plus the WPQ back-pressure admission check, made under
// the tenant's lock just before fn runs: when the tenant's
// write-pending queue has no free slot at the current virtual clock,
// the request is shed and the tenant's clock is advanced by the drain
// time — modeling a client that honors Retry-After, during which the
// queue empties.
func (s *Server) DoWrite(id, op string, fn func(sys *anubis.System) error) error {
	return s.do(id, op, true, fn)
}

func (s *Server) do(id, op string, write bool, fn func(sys *anubis.System) error) error {
	start := time.Now()
	if n := s.inflight.Add(1); n > int64(s.cfg.MaxInflight) {
		s.inflight.Add(-1)
		return s.shed(id, op, "inflight", time.Second)
	}
	defer s.inflight.Add(-1)

	t, err := s.lookup(id)
	if err != nil {
		s.countOp(id, op, err)
		return err
	}
	if n := t.waiting.Add(1); n > int64(s.cfg.QueueDepth)+1 {
		t.waiting.Add(-1)
		return s.shed(id, op, "queue", time.Second)
	}
	s.rec.Record(obs.Event{Kind: obs.EvtEnqueue, Tenant: id, Op: op})
	retry, err := s.exec(t, op, write, fn)
	t.waiting.Add(-1)
	if retry > 0 {
		return s.shed(id, op, "wpq", retry)
	}
	s.countOp(id, op, err)
	wall := uint64(time.Since(start).Nanoseconds())
	s.tel.Update(func(r *obs.Registry) {
		r.Observe(obs.Label("anubis_serve_op_wall_ns", "op", op), wall)
	})
	if s.rec != nil {
		e := obs.Event{Kind: obs.EvtExec, Tenant: id, Op: op, DurNS: wall}
		if err != nil {
			e.Err = err.Error()
		}
		s.rec.Record(e)
	}
	return err
}

// exec runs one admitted operation under t's lock; a positive retry
// means the WPQ check shed the write instead. A panic in fn quarantines
// t, since its controller may have stopped halfway through an update.
func (s *Server) exec(t *tenant, op string, write bool, fn func(sys *anubis.System) error) (retry time.Duration, err error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.refusal != nil {
		return 0, t.refusal
	}
	if write && t.sys.PushBudget() == 0 {
		drain := t.sys.WPQDrainNS()
		// The shed response tells the client to back off; virtual time
		// keeps flowing while they do, so the queue it is waiting on has
		// drained by the retry. Without this advance a write-only tenant
		// would wedge at budget 0 forever (virtual clocks only move when
		// operations run).
		t.sys.AdvanceClock(drain)
		// The hint reads virtual nanoseconds as real ones (the modeled
		// hardware's own timescale), floored so a retry never busy-spins.
		return max(time.Duration(drain), time.Millisecond), nil
	}
	defer func() {
		if r := recover(); r != nil {
			t.refusal = ErrTenantQuarantined
			err = fmt.Errorf("%w: %s panicked: %v", ErrTenantQuarantined, op, r)
			s.rec.Record(obs.Event{Kind: obs.EvtQuarantine, Tenant: t.id, Op: op, Err: fmt.Sprint(r)})
		}
	}()
	return 0, fn(t.sys)
}

// --- metrics ---------------------------------------------------------------

func (s *Server) shed(id, op, reason string, retry time.Duration) error {
	s.tel.Update(func(r *obs.Registry) {
		r.Counter("anubis_serve_shed_total", 1)
		r.Counter(obs.Label("anubis_serve_tenant_shed_total", "tenant", id, "reason", reason), 1)
	})
	s.rec.Record(obs.Event{Kind: obs.EvtShed, Tenant: id, Op: op, Reason: reason})
	return &ShedError{Tenant: id, Reason: reason, RetryAfter: retry}
}

func (s *Server) countOp(id, op string, err error) {
	s.tel.Update(func(r *obs.Registry) {
		r.Counter("anubis_serve_requests_total", 1)
		r.Counter(obs.Label("anubis_serve_tenant_requests_total", "tenant", id, "op", op), 1)
		if err != nil {
			r.Counter(obs.Label("anubis_serve_tenant_errors_total", "tenant", id, "op", op), 1)
		}
	})
}

// countRecovery counts a completed recovery with its phase breakdown
// and records it.
func (s *Server) countRecovery(id, op string, rep anubis.RecoveryReport) {
	phases := recLedgerFromMap(rep.Phases)
	s.tel.Update(func(r *obs.Registry) {
		r.Counter("anubis_serve_recoveries_total", 1)
		r.Counter(obs.Label("anubis_serve_tenant_recoveries_total", "tenant", id), 1)
		r.MergeRecLedger("anubis_serve_recovery_phase_ns_total", &phases)
	})
	s.rec.Record(obs.Event{Kind: obs.EvtRecover, Tenant: id, Op: op, DurNS: rep.ModeledNS, Phases: phases})
}

func (s *Server) countBytes(id, dir string, n int) {
	if n <= 0 {
		return
	}
	s.tel.Update(func(r *obs.Registry) {
		r.Counter("anubis_serve_bytes_total", uint64(n))
		r.Counter(obs.Label("anubis_serve_tenant_bytes_total", "tenant", id, "dir", dir), uint64(n))
	})
}

func (s *Server) publishGauges() {
	s.mu.Lock()
	n := len(s.tenants)
	s.mu.Unlock()
	s.tel.Update(func(r *obs.Registry) {
		r.Gauge("anubis_serve_tenants", float64(n))
	})
}

// --- typed tenant operations ----------------------------------------------
// Thin wrappers over Do/DoWrite: the HTTP layer and in-process callers
// (tests, the hammer) share one code path, so admission control and
// accounting can never be bypassed.

// ReadBlock returns the verified plaintext of a tenant block.
func (s *Server) ReadBlock(id string, addr uint64) (out []byte, err error) {
	err = s.Do(id, "read_block", func(sys *anubis.System) (err error) {
		out, err = sys.ReadBlock(addr)
		return err
	})
	s.countBytes(id, "read", len(out))
	return out, err
}

// WriteBlock encrypts and persists one tenant block.
func (s *Server) WriteBlock(id string, addr uint64, data []byte) error {
	err := s.DoWrite(id, "write_block", func(sys *anubis.System) error {
		return sys.WriteBlock(addr, data)
	})
	if err == nil {
		s.countBytes(id, "write", len(data))
	}
	return err
}

// WriteBlocks applies a batch under one admission and one lock
// acquisition.
func (s *Server) WriteBlocks(id string, writes []anubis.BlockWrite) error {
	err := s.DoWrite(id, "write_blocks", func(sys *anubis.System) error {
		return sys.WriteBlocks(writes)
	})
	if err == nil {
		s.countBytes(id, "write", len(writes)*anubis.BlockSize)
	}
	return err
}

// ReadRange reads n bytes at byte offset off.
func (s *Server) ReadRange(id string, off uint64, n int) (out []byte, err error) {
	err = s.Do(id, "read_range", func(sys *anubis.System) (err error) {
		out, err = sys.ReadRange(off, n)
		return err
	})
	s.countBytes(id, "read", len(out))
	return out, err
}

// WriteRange writes data at byte offset off.
func (s *Server) WriteRange(id string, off uint64, data []byte) error {
	err := s.DoWrite(id, "write_range", func(sys *anubis.System) error {
		return sys.WriteRange(off, data)
	})
	if err == nil {
		s.countBytes(id, "write", len(data))
	}
	return err
}

// Flush writes back a tenant's dirty metadata.
func (s *Server) Flush(id string) error {
	return s.Do(id, "flush", func(sys *anubis.System) error {
		return sys.Flush()
	})
}

// Crash power-fails one tenant. Its subsequent requests fail with
// anubis.ErrCrashed until Recover; every other tenant is untouched.
func (s *Server) Crash(id string) error {
	err := s.Do(id, "crash", func(sys *anubis.System) error {
		sys.Crash()
		return nil
	})
	if err == nil {
		s.rec.Record(obs.Event{Kind: obs.EvtCrash, Tenant: id, Op: "crash"})
	}
	return err
}

// Recover runs the tenant's recovery algorithm and counts it.
func (s *Server) Recover(id string) (rep anubis.RecoveryReport, err error) {
	err = s.Do(id, "recover", func(sys *anubis.System) (err error) {
		rep, err = sys.Recover()
		return err
	})
	if err == nil {
		s.countRecovery(id, "recover", rep)
	}
	return rep, err
}

// Audit runs the tenant's whole-memory integrity check.
func (s *Server) Audit(id string) (rep anubis.AuditReport, err error) {
	err = s.Do(id, "audit", func(sys *anubis.System) (err error) {
		rep, err = sys.Audit()
		return err
	})
	if s.rec != nil {
		e := obs.Event{Kind: obs.EvtAudit, Tenant: id, Op: "audit",
			Reason: fmt.Sprintf("violations=%d", len(rep.Violations))}
		if err != nil {
			e.Err = err.Error()
		}
		s.rec.Record(e)
	}
	return rep, err
}

// Stats returns the tenant's accumulated statistics.
func (s *Server) Stats(id string) (st anubis.Stats, err error) {
	err = s.Do(id, "stats", func(sys *anubis.System) error {
		st = sys.Stats()
		return nil
	})
	return st, err
}

// Digest returns the tenant's deterministic device-state digest — the
// isolation oracle (one tenant's crash/recover must never move another
// tenant's digest).
func (s *Server) Digest(id string) (d uint64, err error) {
	err = s.Do(id, "digest", func(sys *anubis.System) error {
		d = sys.StateDigest()
		return nil
	})
	return d, err
}

// Info describes a live tenant.
type Info struct {
	ID          string `json:"id"`
	Scheme      string `json:"scheme"`
	MemoryBytes uint64 `json:"memory_bytes"`
	Blocks      uint64 `json:"blocks"`
	PushBudget  int    `json:"push_budget"`
}

// TenantInfo returns a tenant's configuration and live back-pressure.
func (s *Server) TenantInfo(id string) (Info, error) {
	t, err := s.lookup(id)
	if err != nil {
		return Info{}, err
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.refusal != nil {
		return Info{}, t.refusal
	}
	return Info{
		ID:          t.id,
		Scheme:      t.tc.Scheme,
		MemoryBytes: t.tc.MemoryBytes,
		Blocks:      t.sys.NumBlocks(),
		PushBudget:  t.sys.PushBudget(),
	}, nil
}
