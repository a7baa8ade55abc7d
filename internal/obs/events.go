package obs

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"sync"
	"time"
)

// EvtKind classifies a flight-recorder event: the life of a request
// through the serving plane (enqueue → exec, or shed), plus tenant
// lifecycle and crash/recovery audit events.
type EvtKind uint8

const (
	// EvtEnqueue records a request passing admission control; it then
	// waits for its tenant's lock.
	EvtEnqueue EvtKind = iota
	// EvtShed records a request rejected by admission control; Reason
	// carries the shed family (inflight, queue, wpq, tenant_quota,
	// blocks_quota).
	EvtShed
	// EvtExec records a request completing execution; DurNS is the wall
	// time from admission to completion, Err a typed error if any.
	EvtExec
	// EvtQuarantine records a tenant operation that panicked: the
	// tenant refuses every later operation until it is closed. Err
	// carries the panic value.
	EvtQuarantine
	// EvtCreate / EvtFork / EvtClose are tenant lifecycle events.
	EvtCreate
	EvtFork
	EvtClose
	// EvtCrash records an injected power failure.
	EvtCrash
	// EvtRecover records a completed recovery; DurNS is the modeled
	// recovery time and Phases carries its per-phase breakdown.
	EvtRecover
	// EvtAudit records a full-image audit.
	EvtAudit

	numEvtKinds = iota
)

var evtKindNames = [numEvtKinds]string{
	"enqueue", "shed", "exec", "quarantine", "create", "fork", "close",
	"crash", "recover", "audit",
}

// String returns the kind's stable snake_case name (part of the
// JSON-lines event schema).
func (k EvtKind) String() string {
	if int(k) < len(evtKindNames) {
		return evtKindNames[k]
	}
	return fmt.Sprintf("evt(%d)", uint8(k))
}

// Event is one flight-recorder entry. It is a plain value type — no
// pointers, no interfaces — so recording copies it into the ring
// without allocating and a snapshot cannot race with later writes.
type Event struct {
	Seq    uint64    // monotone sequence number, assigned by Record
	WallNS int64     // wall-clock ns (UnixNano), assigned by Record if zero
	Kind   EvtKind   // what happened
	Tenant string    // tenant id ("" for server-wide events)
	Op     string    // operation name (read, write, flush, ...)
	Reason string    // shed reason, fork parent, error class, ...
	DurNS  uint64    // duration: exec wall time or modeled recovery ns
	Err    string    // error text for failed operations
	Phases RecLedger // recovery-phase breakdown (EvtRecover only)
}

// eventJSON is the stable wire shape of one JSON-lines entry.
type eventJSON struct {
	Seq    uint64     `json:"seq"`
	WallNS int64      `json:"wall_ns"`
	Kind   string     `json:"kind"`
	Tenant string     `json:"tenant,omitempty"`
	Op     string     `json:"op,omitempty"`
	Reason string     `json:"reason,omitempty"`
	DurNS  uint64     `json:"dur_ns,omitempty"`
	Err    string     `json:"err,omitempty"`
	Phases *RecLedger `json:"recovery_phase_ns,omitempty"`
}

// MarshalJSON renders the event as one stable JSON object; the phase
// breakdown appears only when non-empty (recovery events).
func (e Event) MarshalJSON() ([]byte, error) {
	j := eventJSON{
		Seq: e.Seq, WallNS: e.WallNS, Kind: e.Kind.String(),
		Tenant: e.Tenant, Op: e.Op, Reason: e.Reason,
		DurNS: e.DurNS, Err: e.Err,
	}
	if e.Phases.Total() > 0 {
		p := e.Phases
		j.Phases = &p
	}
	return json.Marshal(j)
}

// Recorder is a fixed-size ring buffer of Events: the serving plane's
// flight recorder. Recording takes one short mutex hold and copies the
// event by value — no allocation, no I/O — so it is safe on the request
// path; a nil *Recorder is the disabled state and costs a single
// predictable branch (the same contract as the nil-checked Probe,
// DESIGN.md §11). When the ring is full the oldest events are
// overwritten: after a crash or SIGTERM the tail holds the last
// Cap() things the server did.
type Recorder struct {
	mu  sync.Mutex
	buf []Event
	n   uint64 // total events ever recorded
}

// DefaultRecorderCap is the ring capacity used when NewRecorder is
// given a non-positive one.
const DefaultRecorderCap = 4096

// NewRecorder returns a flight recorder holding the last capacity
// events.
func NewRecorder(capacity int) *Recorder {
	if capacity <= 0 {
		capacity = DefaultRecorderCap
	}
	return &Recorder{buf: make([]Event, capacity)}
}

// Record appends one event, stamping its sequence number and (when the
// caller left it zero) its wall-clock time. Safe for concurrent use;
// a nil receiver records nothing.
func (r *Recorder) Record(e Event) {
	if r == nil {
		return
	}
	if e.WallNS == 0 {
		e.WallNS = time.Now().UnixNano()
	}
	r.mu.Lock()
	e.Seq = r.n
	r.buf[r.n%uint64(len(r.buf))] = e
	r.n++
	r.mu.Unlock()
}

// Enabled reports whether events are being kept.
func (r *Recorder) Enabled() bool { return r != nil }

// Cap returns the ring capacity (0 for a nil recorder).
func (r *Recorder) Cap() int {
	if r == nil {
		return 0
	}
	return len(r.buf)
}

// Total returns how many events have ever been recorded (including
// overwritten ones).
func (r *Recorder) Total() uint64 {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.n
}

// Snapshot returns the retained events oldest → newest.
func (r *Recorder) Snapshot() []Event {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	capacity := uint64(len(r.buf))
	count := r.n
	if count > capacity {
		count = capacity
	}
	out := make([]Event, 0, count)
	for i := r.n - count; i < r.n; i++ {
		out = append(out, r.buf[i%capacity])
	}
	return out
}

// WriteJSONL writes the retained events oldest → newest, one JSON
// object per line (the /debug/events format and the SIGTERM dump).
func (r *Recorder) WriteJSONL(w io.Writer) error {
	bw := bufio.NewWriter(w)
	for _, e := range r.Snapshot() {
		data, err := json.Marshal(e)
		if err != nil {
			return err
		}
		bw.Write(data)
		bw.WriteByte('\n')
	}
	return bw.Flush()
}
