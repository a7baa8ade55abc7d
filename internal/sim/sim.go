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
	Family   memctrl.Family   `json:"family"`
	Requests int              `json:"requests"`
	ExecNS   uint64           `json:"exec_ns"`
	Stats    memctrl.RunStats `json:"stats"`

	// ReadLat and WriteLat are per-request latency histograms: reads
	// measure issue-to-data-verified, writes issue-to-persist-accepted.
	ReadLat  obs.Hist `json:"read_latency"`
	WriteLat obs.Hist `json:"write_latency"`
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
	if r.Family == memctrl.FamilySGX {
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
	if probe != nil {
		if ps, ok := ctrl.(probeSetter); ok {
			ps.SetProbe(probe)
			defer ps.SetProbe(nil)
		}
	}
	// A stack Runner: Step and finish keep it from escaping, so the
	// probe-free path stays allocation-free.
	var r Runner
	r.init(ctrl, gen, probe)
	if err := r.Step(nReq); err != nil {
		return r.res, err
	}
	return r.finish(ctrl), nil
}

// Runner is the request loop in resumable form. Step issues requests
// and accumulates their latency histograms. Run and RunObserved are
// one Step that then closes the run on the runner's controller. A
// recovery sweep instead keeps one Runner on its warm controller,
// Steps it from crash point to crash point, and closes each point's
// window on a Fork, so every window request is simulated once.
//
// The request counter that seeds FillBlock continues across Steps, so
// Step(a) then Step(b) writes exactly the data of one Step(a+b).
type Runner struct {
	ctrl     memctrl.Controller
	gen      trace.Source
	probe    obs.Probe
	nBlocks  uint64
	att      *obs.Ledger
	payloads [][memctrl.BlockBytes]byte
	// snap/delta are heap state for the probe path only: &delta crosses
	// the Probe interface boundary, so a plain stack var would escape —
	// and be allocated — even on probe-free runs. Two fixed allocations
	// when observing, zero when not.
	snap, delta *obs.Ledger
	// res accumulates the histograms; Requests counts issued requests.
	res Result
}

// NewRunner starts an unobserved run of ctrl over gen.
func NewRunner(ctrl memctrl.Controller, gen trace.Source) *Runner {
	r := new(Runner)
	r.init(ctrl, gen, nil)
	return r
}

// init starts the run; a non-nil probe receives every completed
// request (RunObserved also attaches it to the controller).
func (r *Runner) init(ctrl memctrl.Controller, gen trace.Source, probe obs.Probe) {
	r.ctrl, r.gen, r.probe = ctrl, gen, probe
	r.nBlocks = ctrl.NumBlocks()
	r.att = ctrl.Device().Attr()
	r.res = Result{Workload: gen.Name(), Scheme: ctrl.Scheme(), Family: memctrl.FamilyOf(ctrl)}
	// Arena-backed runs that start at position zero share the arena's
	// memoized payload table instead of regenerating plaintext per cell:
	// payload content is a pure function of (block, position), and a
	// sweep replays one stream across many cells. Mid-stream cursors
	// (recovery windows) keep calling FillBlock — their run counter
	// does not line up with the table's positions.
	if cur, ok := gen.(*trace.Cursor); ok && cur.Pos() == 0 {
		r.payloads = cur.Payloads(FillBlock)
	}
	if probe != nil {
		r.snap, r.delta = new(obs.Ledger), new(obs.Ledger)
	}
}

// Step issues the next n requests, stopping at the first that fails.
func (r *Runner) Step(n int) error {
	ctrl, gen, probe, att := r.ctrl, r.gen, r.probe, r.att
	nBlocks, payloads, snap, delta := r.nBlocks, r.payloads, r.snap, r.delta
	res := &r.res
	// One scratch block per Step: fill overwrites all 64 bytes per
	// write request, so nothing carries over between requests.
	var data [memctrl.BlockBytes]byte
	i := res.Requests
	for end := i + n; i < end; i++ {
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
				res.Requests = i
				return fmt.Errorf("sim: request %d (write %d): %w", i, addr, err)
			}
			res.WriteLat.Add(ctrl.Now() - issue)
			if probe != nil {
				*delta = att.Since(snap)
				probe.Request(obs.EvWriteReq, addr, issue, ctrl.Now(), delta)
			}
		} else {
			if _, err := ctrl.ReadBlock(addr); err != nil {
				res.Requests = i
				return fmt.Errorf("sim: request %d (read %d): %w", i, addr, err)
			}
			res.ReadLat.Add(ctrl.Now() - issue)
			if probe != nil {
				*delta = att.Since(snap)
				probe.Request(obs.EvReadReq, addr, issue, ctrl.Now(), delta)
			}
		}
	}
	res.Requests = i
	return nil
}

// Fork clones the runner's controller and closes the run on the clone:
// the clone and its Result, which carries the histograms accumulated so
// far, are what one Run of every request issued so far would have
// produced from the controller the runner started on. Step may continue
// the runner's own controller toward the next fork.
func (r *Runner) Fork() (memctrl.Controller, Result) {
	c := r.ctrl.Clone()
	return c, r.finish(c)
}

// finish closes the run on ctrl and returns its Result.
func (r *Runner) finish(ctrl memctrl.Controller) Result {
	res := r.res
	res.ExecNS = ctrl.Now()
	res.Stats = ctrl.Stats()
	return res
}

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

// Family aliases memctrl.Family: memctrl.Variants lists the schemes
// each family runs. The perfbench module is the only caller of Family,
// its constants, FamilyOf and NewController; everything else uses
// memctrl's names. They go once perfbench moves to memctrl's names.
type Family = memctrl.Family

const (
	// FamilyBonsai selects split counters + general Merkle tree (§6.1).
	FamilyBonsai = memctrl.FamilyBonsai
	// FamilySGX selects SGX-style counters + parallelizable tree (§6.2).
	FamilySGX = memctrl.FamilySGX
)

// FamilyOf reports which controller family a controller belongs to.
func FamilyOf(ctrl memctrl.Controller) Family { return memctrl.FamilyOf(ctrl) }

// NewController builds a controller of the given family and config.
func NewController(f Family, cfg memctrl.Config) (memctrl.Controller, error) {
	return memctrl.New(f, cfg)
}
