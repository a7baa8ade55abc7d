package memctrl

import (
	"encoding/json"
	"fmt"
	"hash"
	"hash/fnv"
	"testing"
)

// TestSchemeDigestsPinned pins every row of Variants, with and without
// Start-Gap wear leveling and under both counter-recovery backends, to
// one hash of what the controller leaves behind: device StateDigest,
// Stats, every RecoveryReport and the final audit. The workload below
// forces page overflows, stop-loss persists, evictions, a mid-run
// fork+crash+recover and a final crash+recover+audit. A refactor of
// the controller internals must keep these values; a change that moves
// one must say why.
func TestSchemeDigestsPinned(t *testing.T) {
	want := map[string]uint64{
		"writeback/wear0/ecc":       0x84ccf528c3582c85,
		"writeback/wear0/phase":     0x84ccf528c3582c85,
		"writeback/wear7/ecc":       0x5fc3e35f603b8c97,
		"writeback/wear7/phase":     0x5fc3e35f603b8c97,
		"strict/wear0/ecc":          0x6488c0ab0f8b12fd,
		"strict/wear0/phase":        0x6488c0ab0f8b12fd,
		"strict/wear7/ecc":          0x54bd6ac45fde30d2,
		"strict/wear7/phase":        0x54bd6ac45fde30d2,
		"osiris/wear0/ecc":          0xd652a63f549ea93d,
		"osiris/wear0/phase":        0xf2bf1b3d37bdaa46,
		"osiris/wear7/ecc":          0x7dc7923e26c0772c,
		"osiris/wear7/phase":        0xa2b3a399ea970d9c,
		"agit-read/wear0/ecc":       0xad584c1a2fb279b0,
		"agit-read/wear0/phase":     0x5102ab706582a337,
		"agit-read/wear7/ecc":       0x0e45561e95e2a8c5,
		"agit-read/wear7/phase":     0x084e5e80bc85a4a1,
		"agit-plus/wear0/ecc":       0xb1b0d2f0f22d7647,
		"agit-plus/wear0/phase":     0xd431b37e2980595d,
		"agit-plus/wear7/ecc":       0x98c3852a4af61963,
		"agit-plus/wear7/phase":     0xe2776eaf71f148de,
		"triad/wear0/ecc":           0x5901fb9b4acbb3e1,
		"triad/wear0/phase":         0x1d1be96306f7ac6f,
		"triad/wear7/ecc":           0x3955e34b16c4e2ed,
		"triad/wear7/phase":         0xf19ff93b53c6bc2d,
		"selective/wear0/ecc":       0x9982f5e8bce6d07e,
		"selective/wear0/phase":     0x9982f5e8bce6d07e,
		"selective/wear7/ecc":       0x9722880b41970215,
		"selective/wear7/phase":     0x9722880b41970215,
		"writeback-sgx/wear0/ecc":   0xab66fdcbf96502a6,
		"writeback-sgx/wear0/phase": 0xab66fdcbf96502a6,
		"writeback-sgx/wear7/ecc":   0xfba28b244fc4df4c,
		"writeback-sgx/wear7/phase": 0xfba28b244fc4df4c,
		"strict-sgx/wear0/ecc":      0x6b0462e2a66afb08,
		"strict-sgx/wear0/phase":    0x6b0462e2a66afb08,
		"strict-sgx/wear7/ecc":      0x20c94733d0c7307d,
		"strict-sgx/wear7/phase":    0x20c94733d0c7307d,
		"osiris-sgx/wear0/ecc":      0x7ca9e7ad54ff74fd,
		"osiris-sgx/wear0/phase":    0x7ca9e7ad54ff74fd,
		"osiris-sgx/wear7/ecc":      0xc5f5f10c7109401d,
		"osiris-sgx/wear7/phase":    0xc5f5f10c7109401d,
		"asit/wear0/ecc":            0xc60227211145fd21,
		"asit/wear0/phase":          0xc60227211145fd21,
		"asit/wear7/ecc":            0x2b9d408a6a10a0a3,
		"asit/wear7/phase":          0x2b9d408a6a10a0a3,
	}
	for _, v := range Variants {
		for _, wear := range []int{0, 7} {
			for _, rec := range []CounterRecovery{RecoveryECC, RecoveryPhase} {
				name := fmt.Sprintf("%s/wear%d/%v", v.Name, wear, rec)
				cfg := TestConfig(v.Scheme)
				cfg.WearPeriod = wear
				cfg.Recovery = rec
				got := schemeDigest(t, v.Family, cfg)
				if w, ok := want[name]; !ok || got != w {
					t.Errorf("%s: digest %#016x, want %#016x", name, got, w)
				}
			}
		}
	}
}

// schemeDigest runs the pinned workload on a fresh controller and
// returns the FNV-1a hash of its observations.
func schemeDigest(t *testing.T, f Family, cfg Config) uint64 {
	t.Helper()
	ctrl, err := New(f, cfg)
	if err != nil {
		t.Fatal(err)
	}
	h := fnv.New64a()
	n := ctrl.NumBlocks()
	for i := uint64(0); i < 1200; i++ {
		if i == 700 {
			child := ctrl.Clone()
			child.Crash()
			rep, err := child.Recover()
			digestRecord(h, child, rep, err)
		}
		switch {
		case i%4 == 3:
			blk, err := ctrl.ReadBlock((i * 40503) % n)
			fmt.Fprintf(h, "r%d:%x:%v\n", i, blk, err)
		case i%2 == 0:
			// A hot block: 300 writes overflow its page's minor counter.
			fmt.Fprintf(h, "w%d:%v\n", i, ctrl.WriteBlock(5, pattern(i)))
		default:
			fmt.Fprintf(h, "w%d:%v\n", i, ctrl.WriteBlock((i*2654435761)%n, pattern(i)))
		}
	}
	ctrl.Crash()
	rep, err := ctrl.Recover()
	digestRecord(h, ctrl, rep, err)
	audit, err := ctrl.AuditNVM()
	writeJSON(h, audit)
	fmt.Fprintf(h, "audit:%v\n", err)
	fmt.Fprintf(h, "end:%x\n", ctrl.Device().StateDigest())
	return h.Sum64()
}

func digestRecord(h hash.Hash64, ctrl Controller, rep *RecoveryReport, err error) {
	writeJSON(h, rep)
	writeJSON(h, ctrl.Stats())
	fmt.Fprintf(h, "recover:%v\nstate:%x\n", err, ctrl.Device().StateDigest())
}

func writeJSON(h hash.Hash64, v interface{}) {
	b, err := json.Marshal(v)
	if err != nil {
		panic(err)
	}
	h.Write(b)
}
