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
		"writeback/wear0/ecc":       0x08135cfb0cdb881c,
		"writeback/wear0/phase":     0x08135cfb0cdb881c,
		"writeback/wear7/ecc":       0x47c27f99644d3548,
		"writeback/wear7/phase":     0x47c27f99644d3548,
		"strict/wear0/ecc":          0x98059ffb2f0959d5,
		"strict/wear0/phase":        0x98059ffb2f0959d5,
		"strict/wear7/ecc":          0x288a78bd3f4813a3,
		"strict/wear7/phase":        0x288a78bd3f4813a3,
		"osiris/wear0/ecc":          0x2b58e4194f3af7c3,
		"osiris/wear0/phase":        0x527c5d2ed282d503,
		"osiris/wear7/ecc":          0x8ee2e4e102619c09,
		"osiris/wear7/phase":        0xed7f4552d5d66f21,
		"agit-read/wear0/ecc":       0xa7e1f51dc8ba4186,
		"agit-read/wear0/phase":     0x14c94c2cf71f8dc0,
		"agit-read/wear7/ecc":       0x543626527078c532,
		"agit-read/wear7/phase":     0xb14ecec4cac845cd,
		"agit-plus/wear0/ecc":       0x6b446a88d764687a,
		"agit-plus/wear0/phase":     0x0c2af4f07fab8868,
		"agit-plus/wear7/ecc":       0x4ae07971023762e1,
		"agit-plus/wear7/phase":     0x7a252e8375204eda,
		"triad/wear0/ecc":           0x164e575bff2caa29,
		"triad/wear0/phase":         0x780c9daaec95c364,
		"triad/wear7/ecc":           0x12de6ad07cb03cf9,
		"triad/wear7/phase":         0x367c8257dd1e99cb,
		"selective/wear0/ecc":       0xf5ecce4f63623caf,
		"selective/wear0/phase":     0xf5ecce4f63623caf,
		"selective/wear7/ecc":       0xa2bf2da01c604d57,
		"selective/wear7/phase":     0xa2bf2da01c604d57,
		"writeback-sgx/wear0/ecc":   0x3076d03fe3a10625,
		"writeback-sgx/wear0/phase": 0x3076d03fe3a10625,
		"writeback-sgx/wear7/ecc":   0x9444f6040f2d2b2a,
		"writeback-sgx/wear7/phase": 0x9444f6040f2d2b2a,
		"strict-sgx/wear0/ecc":      0xb1f8dbc40a9a2f7f,
		"strict-sgx/wear0/phase":    0xb1f8dbc40a9a2f7f,
		"strict-sgx/wear7/ecc":      0x49ae0a03cf740f7d,
		"strict-sgx/wear7/phase":    0x49ae0a03cf740f7d,
		"osiris-sgx/wear0/ecc":      0x2494be874d98a331,
		"osiris-sgx/wear0/phase":    0x2494be874d98a331,
		"osiris-sgx/wear7/ecc":      0x67bf0ef2dc605e7a,
		"osiris-sgx/wear7/phase":    0x67bf0ef2dc605e7a,
		"asit/wear0/ecc":            0xcda22101ef545207,
		"asit/wear0/phase":          0xcda22101ef545207,
		"asit/wear7/ecc":            0x5ec43150e02130b0,
		"asit/wear7/phase":          0x5ec43150e02130b0,
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
