// Package sim drives a secure memory controller with a workload trace
// and reports timing and traffic statistics.
//
// The engine is trace-driven and in-order: each request waits out its
// CPU gap, then occupies the controller until it completes (reads block
// until data+verification; writes return once the atomic group is in
// the persistence domain, stalling only on WPQ back-pressure). This is
// the substitution for the paper's gem5 setup — see DESIGN.md §1. The
// reported quantity is the same as the paper's figures: execution time
// normalized to the write-back baseline.
package sim

import (
	"fmt"

	"anubis/internal/memctrl"
	"anubis/internal/obs"
	"anubis/internal/trace"
)

// Result summarizes one simulation run. The JSON field names match the
// frozen results/BENCH_*.json records and feed perfbench's output
// digests, so keep them stable.
type Result struct {
	Workload string           `json:"workload"`
	Scheme   memctrl.Scheme   `json:"scheme"`
	Family   Family           `json:"family"`
	Requests int              `json:"requests"`
	ExecNS   uint64           `json:"exec_ns"`
	Stats    memctrl.RunStats `json:"stats"`

	// ReadLat and WriteLat are per-request latency histograms: reads
	// measure issue-to-data-verified, writes issue-to-persist-accepted.
	ReadLat  LatencyHist `json:"read_latency"`
	WriteLat LatencyHist `json:"write_latency"`
}

// Normalized returns this run's execution time relative to a baseline
// run of the same trace (1.0 = identical, 1.1 = 10% overhead).
func (r Result) Normalized(base Result) float64 {
	if base.ExecNS == 0 {
		return 0
	}
	return float64(r.ExecNS) / float64(base.ExecNS)
}

// CleanEvictionFrac returns the fraction of counter-cache evictions that
// were clean (Figure 7). For the SGX family the combined metadata cache
// (reported in Stats.TreeCache) is used. Selection is by family, not by
// which cache happens to have evictions: the old fallback ("use the
// tree cache whenever the counter cache has zero evictions") silently
// reported Merkle-tree evictions for short Bonsai runs whose counter
// working set still fit in the cache.
func (r Result) CleanEvictionFrac() float64 {
	cs := r.Stats.CounterCache
	if r.Family == FamilySGX {
		cs = r.Stats.TreeCache
	}
	if cs.Evictions == 0 {
		return 0
	}
	return float64(cs.CleanEvictions) / float64(cs.Evictions)
}

// WritesPerRequest returns NVM write amplification: media writes per
// CPU write request.
func (r Result) WritesPerRequest() float64 {
	if r.Stats.WriteRequests == 0 {
		return 0
	}
	return float64(r.Stats.NVM.Writes) / float64(r.Stats.WriteRequests)
}

// Run drives nReq requests from the source through the controller.
// The source's blocks are taken modulo the controller's capacity, so
// profiles with larger footprints than the simulated memory still run
// (with correspondingly reduced locality).
func Run(ctrl memctrl.Controller, gen trace.Source, nReq int) (Result, error) {
	return RunObserved(ctrl, gen, nReq, nil)
}

// probeSetter is implemented by controllers that accept an event probe.
// It is matched by type assertion rather than widening the Controller
// interface, so third-party controllers need not implement it.
type probeSetter interface{ SetProbe(obs.Probe) }

// RunObserved is Run with an optional event probe: each completed
// request is reported with its per-component latency attribution, and
// the controller (when it supports SetProbe) reports structural events
// — evictions, commit-group drains, page overflows — to the same probe.
// A nil probe makes RunObserved behave exactly like Run: the hot loop
// takes one predictable branch per request and allocates nothing, and
// simulated timing is byte-identical either way (probes only ever
// receive completed facts).
func RunObserved(ctrl memctrl.Controller, gen trace.Source, nReq int, probe obs.Probe) (Result, error) {
	res := Result{Workload: gen.Name(), Scheme: ctrl.Scheme(), Family: FamilyOf(ctrl), Requests: nReq}
	nBlocks := ctrl.NumBlocks()
	if probe != nil {
		if ps, ok := ctrl.(probeSetter); ok {
			ps.SetProbe(probe)
			defer ps.SetProbe(nil)
		}
	}
	att := ctrl.Device().Attr()
	// One scratch block for the whole run: fill overwrites all 64 bytes
	// per write request, so re-zeroing a fresh array every iteration
	// (the old per-iteration `var data`) was pure waste on the hot loop.
	var data [memctrl.BlockBytes]byte
	// Arena-backed runs that start at position zero share the arena's
	// memoized payload table instead of regenerating plaintext per cell:
	// payload content is a pure function of (block, position), and a
	// sweep replays one stream across many cells. Mid-stream cursors
	// (forked recovery windows) keep calling FillBlock — their per-run
	// counter does not line up with the table's positions.
	var payloads [][memctrl.BlockBytes]byte
	if cur, ok := gen.(*trace.Cursor); ok && cur.Pos() == 0 {
		payloads = cur.Payloads(FillBlock)
	}
	// snap/delta are heap state for the probe path only: &delta crosses
	// the Probe interface boundary, so a plain stack var would escape —
	// and be allocated — even on probe-free runs. Two fixed allocations
	// when observing, zero when not.
	var snap, delta *obs.Ledger
	if probe != nil {
		snap, delta = new(obs.Ledger), new(obs.Ledger)
	}
	for i := 0; i < nReq; i++ {
		req := gen.Next()
		ctrl.AdvanceTo(ctrl.Now() + req.GapNS)
		addr := req.Block % nBlocks
		issue := ctrl.Now()
		if probe != nil {
			*snap = *att
		}
		if req.Op == trace.OpWrite {
			if payloads != nil {
				data = payloads[i]
			} else {
				FillBlock(&data, req.Block, uint64(i))
			}
			if err := ctrl.WriteBlock(addr, data); err != nil {
				return res, fmt.Errorf("sim: request %d (write %d): %w", i, addr, err)
			}
			res.WriteLat.Add(ctrl.Now() - issue)
			if probe != nil {
				*delta = att.Since(snap)
				probe.Request(obs.EvWriteReq, addr, issue, ctrl.Now(), delta)
			}
		} else {
			if _, err := ctrl.ReadBlock(addr); err != nil {
				return res, fmt.Errorf("sim: request %d (read %d): %w", i, addr, err)
			}
			res.ReadLat.Add(ctrl.Now() - issue)
			if probe != nil {
				*delta = att.Since(snap)
				probe.Request(obs.EvReadReq, addr, issue, ctrl.Now(), delta)
			}
		}
	}
	// Close any open epoch window (bank-parallel epoch pipeline) so the
	// reported execution time and device state cover the whole workload;
	// legacy controllers and configs don't implement or no-op it.
	if f, ok := ctrl.(epochFlusher); ok {
		if err := f.FlushEpoch(); err != nil {
			return res, fmt.Errorf("sim: epoch flush: %w", err)
		}
	}
	res.ExecNS = ctrl.Now()
	res.Stats = ctrl.Stats()
	return res, nil
}

// epochFlusher is implemented by controllers with a deferred-update
// epoch pipeline (the Bonsai family); matched by assertion like
// probeSetter, so the Controller interface stays family-agnostic.
type epochFlusher interface{ FlushEpoch() error }

// FillBlock writes deterministic content so every write has distinct
// data. Exported so the crash-injection fuzzer can regenerate the exact
// bytes Run wrote when maintaining its golden shadow copy.
func FillBlock(d *[memctrl.BlockBytes]byte, block, n uint64) {
	x := block*0x9e3779b97f4a7c15 ^ n
	for i := range d {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		d[i] = byte(x)
	}
}

// NewController constructs the right controller family for a scheme:
// AGIT schemes and the general-tree baselines use Bonsai; ASIT uses the
// SGX family. For WriteBack/Strict/Osiris the family must be chosen by
// the caller (both exist in the paper's two evaluations), so this helper
// takes it explicitly.
type Family int

const (
	// FamilyBonsai selects split counters + general Merkle tree (§6.1).
	FamilyBonsai Family = iota
	// FamilySGX selects SGX-style counters + parallelizable tree (§6.2).
	FamilySGX
)

func (f Family) String() string {
	if f == FamilySGX {
		return "sgx"
	}
	return "bonsai"
}

// MarshalText renders the family name, so JSON reports say "bonsai"
// and "sgx" instead of enum ordinals.
func (f Family) MarshalText() ([]byte, error) { return []byte(f.String()), nil }

// UnmarshalText parses a family name.
func (f *Family) UnmarshalText(b []byte) error {
	switch string(b) {
	case "bonsai":
		*f = FamilyBonsai
	case "sgx":
		*f = FamilySGX
	default:
		return fmt.Errorf("sim: unknown family %q", b)
	}
	return nil
}

// FamilyOf reports which controller family a controller belongs to.
func FamilyOf(ctrl memctrl.Controller) Family {
	if _, ok := ctrl.(*memctrl.SGX); ok {
		return FamilySGX
	}
	return FamilyBonsai
}

// NewController builds a controller of the given family and config.
func NewController(f Family, cfg memctrl.Config) (memctrl.Controller, error) {
	switch f {
	case FamilyBonsai:
		return memctrl.NewBonsai(cfg)
	case FamilySGX:
		return memctrl.NewSGX(cfg)
	}
	return nil, fmt.Errorf("sim: unknown family %d", f)
}
