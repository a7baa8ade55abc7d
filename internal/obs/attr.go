// Package obs is the simulator's observability layer: per-request
// stall attribution (Ledger), a merge-able metrics registry (Registry),
// sampled event tracing (Tracer, emitting Chrome trace-event JSON), and
// a live telemetry HTTP endpoint (Telemetry).
//
// Design constraints, in order of priority (DESIGN.md §11):
//
//  1. Zero interference: nothing in this package may change simulated
//     timing or simulation results. Attribution is pure bookkeeping on
//     clock advances that happen anyway; probes are nil-checked
//     interfaces that observe but never steer.
//  2. Zero hot-path cost when disabled: with no Probe attached the
//     request loop performs no allocations and no synchronization; the
//     always-on attribution ledger is a handful of uint64 additions.
//  3. Deterministic merging: workers own their metrics privately
//     (per-cell RunStats/Ledger, per-worker Registry) and merge at
//     reduction time — no atomics anywhere near the request loop.
package obs

import (
	"bytes"
	"encoding/json"
	"fmt"
)

// Comp names one component of a simulated request's latency. Every
// advance of a controller's virtual clock is attributed to exactly one
// component, so the components of a request sum exactly to its latency
// (and, with CompCPUGap, to the whole run's execution time). The
// taxonomy follows the paper's evaluation questions: where does the
// extra memory time of a persistence scheme go?
type Comp uint8

const (
	// CompCPUGap is inter-request think time (trace gap), the only
	// component outside request latency.
	CompCPUGap Comp = iota
	// CompDataRead is critical-path data-block fetch time (media read,
	// plus bank/drain waits hidden under the overlapped metadata walk).
	CompDataRead
	// CompCounterFill is counter-block (or SGX combined-metadata leaf)
	// cache-miss fill time: the media-read portion of the fetch.
	CompCounterFill
	// CompTreeFill is integrity-tree-node cache-miss fill time: the
	// media-read portion of the tree walk.
	CompTreeFill
	// CompShadow is shadow-table time: SCT/SMT/ST region reads on the
	// critical path and WPQ stalls caused by shadow-entry writes
	// (Anubis's own overhead — the paper's <1% claim lives here).
	CompShadow
	// CompBankBusy is time a read spent waiting for its bank to free
	// (occupied by earlier reads or draining writes).
	CompBankBusy
	// CompDrainStall is time a read spent blocked by write-drain mode
	// (WPQ above the drain watermark).
	CompDrainStall
	// CompWPQStall is time a write spent waiting for a WPQ slot
	// (back-pressure from metadata write amplification).
	CompWPQStall
	// CompCrypto is hash/MAC/encryption engine occupancy on the
	// critical path.
	CompCrypto

	// NumComps is the number of attribution components.
	NumComps = iota
)

var compNames = [NumComps]string{
	"cpu_gap", "data_read", "counter_fill", "tree_fill", "shadow",
	"bank_busy", "drain_stall", "wpq_stall", "crypto",
}

// String returns the component's snake_case name (stable: part of the
// JSON report schema).
func (c Comp) String() string {
	if int(c) < len(compNames) {
		return compNames[c]
	}
	return fmt.Sprintf("comp(%d)", uint8(c))
}

// CompByName inverts String.
func CompByName(name string) (Comp, bool) {
	for i, n := range compNames {
		if n == name {
			return Comp(i), true
		}
	}
	return 0, false
}

// Comps lists every component in declaration (and report) order.
func Comps() []Comp {
	out := make([]Comp, NumComps)
	for i := range out {
		out[i] = Comp(i)
	}
	return out
}

// Ledger accumulates nanoseconds per component. It is a plain value
// type: copying snapshots it, and Since/Merge make per-request deltas
// and cross-worker reduction trivial and deterministic.
type Ledger [NumComps]uint64

// Add charges ns to component c.
func (l *Ledger) Add(c Comp, ns uint64) { l[c] += ns }

// Get returns the accumulated time of component c.
func (l *Ledger) Get(c Comp) uint64 { return l[c] }

// Total returns the sum over all components (== execution time when
// the ledger covers a whole run).
func (l *Ledger) Total() uint64 {
	var t uint64
	for _, v := range l {
		t += v
	}
	return t
}

// Since returns the component-wise delta l - prev. prev must be an
// earlier snapshot of the same ledger (components are monotone).
func (l *Ledger) Since(prev *Ledger) Ledger {
	var d Ledger
	for i := range l {
		d[i] = l[i] - prev[i]
	}
	return d
}

// Merge adds another ledger component-wise (cross-cell reduction).
func (l *Ledger) Merge(other *Ledger) {
	for i := range l {
		l[i] += other[i]
	}
}

// MarshalJSON renders the ledger as an object with stable, named keys
// in component order, e.g. {"cpu_gap":1234,"data_read":567,...}.
func (l Ledger) MarshalJSON() ([]byte, error) {
	var b bytes.Buffer
	b.WriteByte('{')
	for i, v := range l {
		if i > 0 {
			b.WriteByte(',')
		}
		fmt.Fprintf(&b, "%q:%d", compNames[i], v)
	}
	b.WriteByte('}')
	return b.Bytes(), nil
}

// UnmarshalJSON accepts the object form produced by MarshalJSON.
// Unknown keys are ignored so older tools can read newer reports.
func (l *Ledger) UnmarshalJSON(data []byte) error {
	var m map[string]uint64
	if err := json.Unmarshal(data, &m); err != nil {
		return err
	}
	for name, v := range m {
		if c, ok := CompByName(name); ok {
			l[c] = v
		}
	}
	return nil
}
