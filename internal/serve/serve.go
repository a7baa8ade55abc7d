// Package serve multiplexes many independent secure-NVM tenants behind
// one long-running service: the paper's deployment story made concrete.
// Each tenant is a full anubis.SafeSystem (controller + device) that can
// be created, written, forked, crashed, recovered, audited, and closed
// while every other tenant keeps serving — Anubis recovery is fast
// enough that a mid-traffic crash is an in-process event, not an outage.
//
// The serving plane is deliberately boring and explicit:
//
//   - A registry maps tenant id → tenant, guarded by one mutex that is
//     held only for lookups and lifecycle changes, never during I/O.
//   - Every tenant owns ONE bounded worker goroutine draining a task
//     queue. Operations on a tenant serialize (the controller models a
//     single memory-controller pipeline anyway); a hot tenant saturates
//     its own queue and its own worker, and nothing else.
//   - Admission control sheds instead of queueing unboundedly, with
//     three signals: the global in-flight cap (process-wide), the
//     per-tenant queue depth (one slow tenant), and — for writes — the
//     tenant's WPQ back-pressure probe (SafeSystem.PushBudget == 0
//     means the next write would stall on a drain). Shed requests get
//     a typed ShedError carrying a retry-after hint; the HTTP layer
//     maps it to 429 + Retry-After, and every shed is counted in the
//     obs registry by tenant and reason.
//   - Quotas bound the blast radius: a tenant-count cap and a
//     per-tenant block-count cap, both rejected as sheds.
//
// Metrics flow into an obs.Telemetry (shared with -metrics-addr), with
// aggregate families (anubis_serve_requests_total, ..._tenants) and
// per-tenant labeled families (anubis_serve_tenant_requests_total{...}).
package serve

import (
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
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
	// ErrShutdown reports a request after Shutdown began.
	ErrShutdown = errors.New("serve: server is shut down")
	// ErrBadTenantID reports an empty or oversized tenant id.
	ErrBadTenantID = errors.New("serve: tenant id must be 1..64 bytes of [a-zA-Z0-9._-]")
)

// ShedError is an admission-control rejection: the request was not
// executed and should be retried after RetryAfter. Reason is one of
// "inflight" (global in-flight cap), "queue" (per-tenant worker queue
// full), "wpq" (tenant's write-pending-queue back-pressure),
// "tenant_quota" (tenant-count cap), or "blocks_quota" (per-tenant
// block-count cap).
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
	// QueueDepth bounds each tenant's pending-task queue (default 64).
	QueueDepth int
	// MaxInflight caps requests admitted process-wide at one moment
	// (default 256).
	MaxInflight int
	// Telemetry receives serving metrics; nil allocates a private one
	// (exposed via Server.Telemetry for a -metrics-addr endpoint).
	Telemetry *obs.Telemetry
	// Recorder is the flight recorder receiving structured request and
	// lifecycle events (enqueue/shed/exec/drain, create/fork/close,
	// crash/recover/audit). nil disables recording at zero hot-path
	// cost. The recorder is auto-attached to Telemetry so /debug/events
	// and the dashboard's event tail see it.
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
	if c.Telemetry == nil {
		c.Telemetry = obs.NewTelemetry()
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

// task is one unit of tenant work: the worker runs fn against the
// tenant's system and sends the result on reply (buffered, never
// blocking the worker).
type task struct {
	fn    func(sys *anubis.SafeSystem) error
	reply chan error
}

type tenant struct {
	id    string
	tc    TenantConfig // resolved (scheme/bytes filled in)
	cfg   anubis.Config
	sys   *anubis.SafeSystem
	tasks chan task
	quit  chan struct{} // closed to stop the worker
	done  chan struct{} // closed when the worker has exited
	stop  sync.Once     // guards quit against CloseTenant/Shutdown racing
}

func (t *tenant) stopWorker() { t.stop.Do(func() { close(t.quit) }) }

// Server is the multi-tenant registry plus admission control. Create
// one with New; serve it over HTTP with Handler.
type Server struct {
	cfg Config
	tel *obs.Telemetry
	rec *obs.Recorder // nil = flight recorder disabled

	mu      sync.Mutex
	tenants map[string]*tenant
	closed  bool

	inflight atomic.Int64
	wg       sync.WaitGroup
}

// New returns an empty server.
func New(cfg Config) *Server {
	cfg = cfg.withDefaults()
	s := &Server{cfg: cfg, tel: cfg.Telemetry, rec: cfg.Recorder, tenants: make(map[string]*tenant)}
	if s.rec != nil {
		s.tel.AttachRecorder(s.rec)
	}
	s.publishGauges()
	return s
}

// Telemetry returns the metrics sink (serve it with obs.Serve).
func (s *Server) Telemetry() *obs.Telemetry { return s.tel }

// Recorder returns the flight recorder (nil when disabled).
func (s *Server) Recorder() *obs.Recorder { return s.rec }

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
	sys, err := anubis.NewSafe(cfg)
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
	if err != nil {
		s.countOp(parent, "fork", err)
		return err
	}
	// SafeSystem.Fork is lock-consistent against live traffic; taking it
	// outside the registry mutex keeps lifecycle changes from blocking
	// behind tenant I/O.
	sys := p.sys.Fork()
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
// quota, and starts its worker.
func (s *Server) add(id string, tc TenantConfig, cfg anubis.Config, sys *anubis.SafeSystem, op string) error {
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
	t := &tenant{
		id:    id,
		tc:    tc,
		cfg:   cfg,
		sys:   sys,
		tasks: make(chan task, s.cfg.QueueDepth),
		quit:  make(chan struct{}),
		done:  make(chan struct{}),
	}
	s.tenants[id] = t
	s.wg.Add(1)
	go s.worker(t)
	s.mu.Unlock()
	s.countOp(id, op, nil)
	if op != "fork" { // fork is recorded by ForkTenant with its parent
		s.rec.Record(obs.Event{Kind: obs.EvtCreate, Tenant: id, Op: op})
	}
	s.publishGauges()
	return nil
}

// CloseTenant stops a tenant's worker, flushes its metadata, and drops
// it from the registry.
func (s *Server) CloseTenant(id string) error {
	s.mu.Lock()
	t, ok := s.tenants[id]
	if ok {
		delete(s.tenants, id)
	}
	s.mu.Unlock()
	if !ok {
		return ErrNoTenant
	}
	t.stopWorker()
	<-t.done
	err := t.sys.Flush()
	if err != nil {
		err = fmt.Errorf("serve: flush tenant %q: %w", id, err)
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

// Shutdown stops admission, drains and stops every tenant worker, and
// flushes all metadata — the graceful counterpart of kill -9. If dir is
// non-empty, each tenant's NVM image plus a manifest are saved there
// for a later LoadState (a served power cycle).
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
	s.mu.Unlock()

	for _, t := range tenants {
		t.stopWorker()
	}
	s.wg.Wait()
	var firstErr error
	for _, t := range tenants {
		if err := t.sys.Flush(); err != nil && firstErr == nil {
			firstErr = fmt.Errorf("serve: flush tenant %q: %w", t.id, err)
		}
	}
	if dir != "" {
		if err := s.saveState(dir, tenants); err != nil && firstErr == nil {
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

func (s *Server) saveState(dir string, tenants []*tenant) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	manifest := make([]manifestEntry, 0, len(tenants))
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
	raw, err := json.MarshalIndent(manifest, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(dir, "manifest.json"), raw, 0o644)
}

// LoadState restores every tenant recorded in dir's manifest: each NVM
// image is reattached with anubis.OpenImage, which runs the scheme's
// recovery (images are by definition post-power-cycle). Recoveries are
// counted in the metrics registry. Call before serving traffic.
func (s *Server) LoadState(dir string) error {
	raw, err := os.ReadFile(filepath.Join(dir, "manifest.json"))
	if err != nil {
		return err
	}
	var manifest []manifestEntry
	if err := json.Unmarshal(raw, &manifest); err != nil {
		return fmt.Errorf("serve: manifest: %w", err)
	}
	for _, e := range manifest {
		cfg, rtc, err := TenantConfig{Scheme: e.Scheme, MemoryBytes: e.MemoryBytes}.resolve()
		if err != nil {
			return fmt.Errorf("serve: tenant %q: %w", e.ID, err)
		}
		f, err := os.Open(filepath.Join(dir, e.ID+".img"))
		if err != nil {
			return err
		}
		sys, rep, err := anubis.OpenImage(cfg, f)
		f.Close()
		if err != nil {
			return fmt.Errorf("serve: reattaching tenant %q: %w", e.ID, err)
		}
		if err := s.add(e.ID, rtc, cfg, anubis.Wrap(sys), "open"); err != nil {
			return err
		}
		phases := recLedgerFromMap(rep.Phases)
		s.tel.Update(func(r *obs.Registry) {
			r.Counter("anubis_serve_recoveries_total", 1)
			r.Counter(obs.Label("anubis_serve_tenant_recoveries_total", "tenant", e.ID), 1)
			r.MergeRecLedger("anubis_serve_recovery_phase_ns_total", &phases)
		})
		s.rec.Record(obs.Event{Kind: obs.EvtRecover, Tenant: e.ID, Op: "open", DurNS: rep.ModeledNS, Phases: phases})
	}
	return nil
}

// --- worker + admission ----------------------------------------------------

func (s *Server) worker(t *tenant) {
	defer s.wg.Done()
	defer close(t.done)
	for {
		select {
		case tk := <-t.tasks:
			tk.reply <- tk.fn(t.sys)
		case <-t.quit:
			// Reject stragglers that raced with close; their callers are
			// also watching t.done, so nobody is left waiting.
			for {
				select {
				case tk := <-t.tasks:
					tk.reply <- ErrTenantClosed
				default:
					s.rec.Record(obs.Event{Kind: obs.EvtDrain, Tenant: t.id})
					return
				}
			}
		}
	}
}

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

// Do admits, enqueues, and waits for one read-like operation on a
// tenant. fn runs on the tenant's worker goroutine.
func (s *Server) Do(id, op string, fn func(sys *anubis.SafeSystem) error) error {
	return s.do(id, op, false, fn)
}

// DoWrite is Do plus the WPQ back-pressure admission check: when the
// tenant's write-pending queue has no free slot at the current virtual
// clock, the request is shed and the tenant's clock is advanced by the
// drain time — modeling a client that honors Retry-After, during which
// the queue empties.
func (s *Server) DoWrite(id, op string, fn func(sys *anubis.SafeSystem) error) error {
	return s.do(id, op, true, fn)
}

func (s *Server) do(id, op string, write bool, fn func(sys *anubis.SafeSystem) error) error {
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
	if write && t.sys.PushBudget() == 0 {
		drain := t.sys.WPQDrainNS()
		// The shed response tells the client to back off; virtual time
		// keeps flowing while they do, so the queue it is waiting on has
		// drained by the retry. Without this advance a write-only tenant
		// would wedge at budget 0 forever (virtual clocks only move when
		// operations run).
		t.sys.AdvanceClock(drain)
		return s.shed(id, op, "wpq", retryAfter(drain))
	}
	tk := task{fn: fn, reply: make(chan error, 1)}
	select {
	case t.tasks <- tk:
		s.rec.Record(obs.Event{Kind: obs.EvtEnqueue, Tenant: id, Op: op})
	default:
		return s.shed(id, op, "queue", time.Second)
	}
	select {
	case err = <-tk.reply:
	case <-t.done:
		// The worker exited while our task was queued; it drains the
		// queue with ErrTenantClosed on the way out, so check once more.
		select {
		case err = <-tk.reply:
		default:
			err = ErrTenantClosed
		}
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

// retryAfter converts a virtual drain time into a client-facing hint:
// virtual nanoseconds are treated as real nanoseconds (the modeled
// hardware's own timescale), floored at one millisecond so a retry is
// never a busy spin.
func retryAfter(drainNS uint64) time.Duration {
	d := time.Duration(drainNS)
	if d < time.Millisecond {
		d = time.Millisecond
	}
	return d
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
func (s *Server) ReadBlock(id string, addr uint64) ([]byte, error) {
	var out []byte
	err := s.Do(id, "read_block", func(sys *anubis.SafeSystem) error {
		b, err := sys.ReadBlock(addr)
		out = b
		return err
	})
	s.countBytes(id, "read", len(out))
	return out, err
}

// WriteBlock encrypts and persists one tenant block.
func (s *Server) WriteBlock(id string, addr uint64, data []byte) error {
	err := s.DoWrite(id, "write_block", func(sys *anubis.SafeSystem) error {
		return sys.WriteBlock(addr, data)
	})
	if err == nil {
		s.countBytes(id, "write", len(data))
	}
	return err
}

// WriteBlocks applies a batch under one queue slot and one lock
// acquisition.
func (s *Server) WriteBlocks(id string, writes []anubis.BlockWrite) error {
	err := s.DoWrite(id, "write_blocks", func(sys *anubis.SafeSystem) error {
		return sys.WriteBlocks(writes)
	})
	if err == nil {
		s.countBytes(id, "write", len(writes)*anubis.BlockSize)
	}
	return err
}

// ReadRange reads n bytes at byte offset off.
func (s *Server) ReadRange(id string, off uint64, n int) ([]byte, error) {
	var out []byte
	err := s.Do(id, "read_range", func(sys *anubis.SafeSystem) error {
		b, err := sys.ReadRange(off, n)
		out = b
		return err
	})
	s.countBytes(id, "read", len(out))
	return out, err
}

// WriteRange writes data at byte offset off.
func (s *Server) WriteRange(id string, off uint64, data []byte) error {
	err := s.DoWrite(id, "write_range", func(sys *anubis.SafeSystem) error {
		return sys.WriteRange(off, data)
	})
	if err == nil {
		s.countBytes(id, "write", len(data))
	}
	return err
}

// Flush writes back a tenant's dirty metadata.
func (s *Server) Flush(id string) error {
	return s.Do(id, "flush", func(sys *anubis.SafeSystem) error {
		return sys.Flush()
	})
}

// Crash power-fails one tenant. Its subsequent requests fail with
// anubis.ErrCrashed until Recover; every other tenant is untouched.
func (s *Server) Crash(id string) error {
	err := s.Do(id, "crash", func(sys *anubis.SafeSystem) error {
		sys.Crash()
		return nil
	})
	if err == nil {
		s.rec.Record(obs.Event{Kind: obs.EvtCrash, Tenant: id, Op: "crash"})
	}
	return err
}

// Recover runs the tenant's recovery algorithm and counts it.
func (s *Server) Recover(id string) (anubis.RecoveryReport, error) {
	var rep anubis.RecoveryReport
	err := s.Do(id, "recover", func(sys *anubis.SafeSystem) error {
		var err error
		rep, err = sys.Recover()
		return err
	})
	if err == nil {
		phases := recLedgerFromMap(rep.Phases)
		s.tel.Update(func(r *obs.Registry) {
			r.Counter("anubis_serve_recoveries_total", 1)
			r.Counter(obs.Label("anubis_serve_tenant_recoveries_total", "tenant", id), 1)
			r.MergeRecLedger("anubis_serve_recovery_phase_ns_total", &phases)
		})
		s.rec.Record(obs.Event{Kind: obs.EvtRecover, Tenant: id, Op: "recover", DurNS: rep.ModeledNS, Phases: phases})
	}
	return rep, err
}

// Audit runs the tenant's whole-memory integrity check.
func (s *Server) Audit(id string) (anubis.AuditReport, error) {
	var rep anubis.AuditReport
	err := s.Do(id, "audit", func(sys *anubis.SafeSystem) error {
		var err error
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
func (s *Server) Stats(id string) (anubis.Stats, error) {
	var st anubis.Stats
	err := s.Do(id, "stats", func(sys *anubis.SafeSystem) error {
		st = sys.Stats()
		return nil
	})
	return st, err
}

// Digest returns the tenant's deterministic device-state digest — the
// isolation oracle (one tenant's crash/recover must never move another
// tenant's digest).
func (s *Server) Digest(id string) (uint64, error) {
	var d uint64
	err := s.Do(id, "digest", func(sys *anubis.SafeSystem) error {
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
	return Info{
		ID:          t.id,
		Scheme:      t.tc.Scheme,
		MemoryBytes: t.tc.MemoryBytes,
		Blocks:      t.sys.NumBlocks(),
		PushBudget:  t.sys.PushBudget(),
	}, nil
}
