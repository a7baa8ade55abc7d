// Package trace generates the memory request streams that drive the
// simulator.
//
// The paper evaluates with 11 memory-intensive SPEC CPU2006 applications
// under gem5. Neither gem5 nor SPEC binaries are available offline, so
// this package substitutes parameterized synthetic generators calibrated
// to each application's published memory character — the properties the
// paper's figures actually discriminate on:
//
//   - write fraction (Osiris/ASIT overheads scale with writes),
//   - memory intensity (CPU gap between requests dilutes stalls),
//   - footprint and hot-set locality (drives metadata cache miss rate,
//     i.e. AGIT-Read shadow traffic and Figure 7 clean evictions),
//   - rewrite concentration (drives stop-loss persists: LIBQUANTUM
//     repeatedly rewrites hot lines past the stop-loss limit).
//
// Streams are deterministic per (profile, seed), so different schemes
// see byte-identical request sequences.
package trace

import (
	"fmt"
	"math"
	"math/rand"
)

// Op distinguishes reads from writes.
type Op uint8

const (
	// OpRead is a 64-byte read request.
	OpRead Op = iota
	// OpWrite is a 64-byte write request.
	OpWrite
)

// Request is one memory access: the block index, the operation, and the
// CPU think time preceding it.
type Request struct {
	Op    Op
	Block uint64
	GapNS uint64
}

// Source produces a request stream: a profile's Generator, or a Cursor
// into an Arena.
type Source interface {
	Name() string
	Next() Request
}

// Profile parameterizes a synthetic workload.
type Profile struct {
	// Name identifies the workload (SPEC application names in the
	// built-in set).
	Name string
	// WriteFrac is the fraction of requests that are writes.
	WriteFrac float64
	// GapMeanNS is the mean CPU gap between memory requests; smaller
	// means more memory-bound.
	GapMeanNS float64
	// FootprintBlocks is the total working set in 64-byte blocks.
	FootprintBlocks uint64
	// HotFrac is the probability an access goes to the hot subset.
	HotFrac float64
	// HotBlocks is the size of the hot subset.
	HotBlocks uint64
	// SeqProb is the probability of continuing a sequential run
	// (streaming workloads approach 1).
	SeqProb float64
	// RewriteProb is the probability a write re-targets the most
	// recently written blocks (drives stop-loss persistence).
	RewriteProb float64
}

// Validate reports configuration errors.
func (p *Profile) Validate() error {
	switch {
	case p.FootprintBlocks == 0:
		return fmt.Errorf("trace %s: zero footprint", p.Name)
	case p.WriteFrac < 0 || p.WriteFrac > 1:
		return fmt.Errorf("trace %s: write fraction %v out of range", p.Name, p.WriteFrac)
	case p.HotFrac < 0 || p.HotFrac > 1:
		return fmt.Errorf("trace %s: hot fraction %v out of range", p.Name, p.HotFrac)
	case p.HotBlocks > p.FootprintBlocks:
		return fmt.Errorf("trace %s: hot set exceeds footprint", p.Name)
	case p.SeqProb < 0 || p.SeqProb >= 1:
		return fmt.Errorf("trace %s: sequential probability %v out of range", p.Name, p.SeqProb)
	case p.RewriteProb < 0 || p.RewriteProb > 1:
		return fmt.Errorf("trace %s: rewrite probability %v out of range", p.Name, p.RewriteProb)
	}
	return nil
}

// Generator produces a deterministic request stream for a profile.
type Generator struct {
	p   Profile
	rng *rand.Rand

	cur        uint64 // current sequential position
	lastWrites []uint64
}

// NewGenerator creates a generator for a profile. It panics on invalid
// profiles (programmer error; the built-in set is always valid).
func NewGenerator(p Profile, seed int64) *Generator {
	if err := p.Validate(); err != nil {
		panic(err)
	}
	return &Generator{
		p:          p,
		rng:        rand.New(rand.NewSource(seed)),
		lastWrites: make([]uint64, 0, 8),
	}
}

// Name returns the profile name.
func (g *Generator) Name() string { return g.p.Name }

// Next produces the next request.
func (g *Generator) Next() Request {
	var req Request
	isWrite := g.rng.Float64() < g.p.WriteFrac
	if isWrite {
		req.Op = OpWrite
	}

	switch {
	case isWrite && len(g.lastWrites) > 0 && g.rng.Float64() < g.p.RewriteProb:
		// Re-write one of the recently written blocks.
		req.Block = g.lastWrites[g.rng.Intn(len(g.lastWrites))]
	case g.rng.Float64() < g.p.SeqProb:
		// Continue the sequential run.
		g.cur = (g.cur + 1) % g.p.FootprintBlocks
		req.Block = g.cur
	case g.p.HotBlocks > 0 && g.rng.Float64() < g.p.HotFrac:
		req.Block = uint64(g.rng.Int63n(int64(g.p.HotBlocks)))
		g.cur = req.Block
	default:
		req.Block = uint64(g.rng.Int63n(int64(g.p.FootprintBlocks)))
		g.cur = req.Block
	}

	if isWrite {
		if len(g.lastWrites) < cap(g.lastWrites) {
			g.lastWrites = append(g.lastWrites, req.Block)
		} else {
			g.lastWrites[g.rng.Intn(len(g.lastWrites))] = req.Block
		}
	}

	// Exponential CPU gap with the profile's mean.
	gap := -math.Log(1-g.rng.Float64()) * g.p.GapMeanNS
	if gap > 50*g.p.GapMeanNS {
		gap = 50 * g.p.GapMeanNS
	}
	req.GapNS = uint64(gap)
	return req
}

// Generate materializes n requests.
func (g *Generator) Generate(n int) []Request {
	out := make([]Request, n)
	for i := range out {
		out[i] = g.Next()
	}
	return out
}

// SPEC2006 returns the 11 memory-intensive SPEC CPU2006 profiles the
// paper evaluates (§5), calibrated to each application's qualitative
// character as described in §6.1:
//
//   - MCF: the most read-intensive, poor locality ("few counters are
//     actually written/updated in the cache before eviction").
//   - LBM: write-intensive streaming with an insignificant number of
//     read requests.
//   - LIBQUANTUM: "performs both reads and writes more than the rest"
//     and is "the most write-intensive application we have tested",
//     with rewrites past the stop-loss limit.
//
// Footprints are expressed in 64-byte blocks (8M blocks = 512 MB).
func SPEC2006() []Profile {
	const mb = 1024 * 1024 / 64 // blocks per MB
	return []Profile{
		{Name: "mcf", WriteFrac: 0.06, GapMeanNS: 45, FootprintBlocks: 320 * mb, HotFrac: 0.35, HotBlocks: 24 * mb, SeqProb: 0.05, RewriteProb: 0.05},
		{Name: "lbm", WriteFrac: 0.47, GapMeanNS: 70, FootprintBlocks: 384 * mb, HotFrac: 0.05, HotBlocks: 2 * mb, SeqProb: 0.85, RewriteProb: 0.05},
		{Name: "libquantum", WriteFrac: 0.55, GapMeanNS: 55, FootprintBlocks: 64 * mb, HotFrac: 0.45, HotBlocks: 1 * mb, SeqProb: 0.55, RewriteProb: 0.60},
		{Name: "milc", WriteFrac: 0.30, GapMeanNS: 90, FootprintBlocks: 352 * mb, HotFrac: 0.25, HotBlocks: 8 * mb, SeqProb: 0.40, RewriteProb: 0.15},
		{Name: "soplex", WriteFrac: 0.22, GapMeanNS: 100, FootprintBlocks: 192 * mb, HotFrac: 0.45, HotBlocks: 6 * mb, SeqProb: 0.30, RewriteProb: 0.12},
		{Name: "gems", WriteFrac: 0.28, GapMeanNS: 85, FootprintBlocks: 416 * mb, HotFrac: 0.20, HotBlocks: 10 * mb, SeqProb: 0.55, RewriteProb: 0.10},
		{Name: "leslie3d", WriteFrac: 0.33, GapMeanNS: 95, FootprintBlocks: 128 * mb, HotFrac: 0.30, HotBlocks: 5 * mb, SeqProb: 0.60, RewriteProb: 0.15},
		{Name: "omnetpp", WriteFrac: 0.25, GapMeanNS: 80, FootprintBlocks: 160 * mb, HotFrac: 0.60, HotBlocks: 4 * mb, SeqProb: 0.10, RewriteProb: 0.20},
		{Name: "astar", WriteFrac: 0.18, GapMeanNS: 110, FootprintBlocks: 96 * mb, HotFrac: 0.55, HotBlocks: 5 * mb, SeqProb: 0.15, RewriteProb: 0.10},
		{Name: "bwaves", WriteFrac: 0.35, GapMeanNS: 105, FootprintBlocks: 448 * mb, HotFrac: 0.15, HotBlocks: 8 * mb, SeqProb: 0.70, RewriteProb: 0.08},
		{Name: "zeusmp", WriteFrac: 0.29, GapMeanNS: 115, FootprintBlocks: 256 * mb, HotFrac: 0.25, HotBlocks: 7 * mb, SeqProb: 0.50, RewriteProb: 0.10},
	}
}

// ByName returns the built-in profile with the given name.
func ByName(name string) (Profile, bool) {
	for _, p := range SPEC2006() {
		if p.Name == name {
			return p, true
		}
	}
	return Profile{}, false
}

// Scaled returns a copy of the profile with its footprint and hot set
// scaled to fit within maxBlocks (used to run Table 1 geometries against
// smaller simulated memories without changing the access mix).
func (p Profile) Scaled(maxBlocks uint64) Profile {
	if p.FootprintBlocks <= maxBlocks {
		return p
	}
	ratio := float64(maxBlocks) / float64(p.FootprintBlocks)
	p.FootprintBlocks = maxBlocks
	hot := uint64(float64(p.HotBlocks) * ratio)
	if hot == 0 {
		hot = 1
	}
	p.HotBlocks = hot
	return p
}
