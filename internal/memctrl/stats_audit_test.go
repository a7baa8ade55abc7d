package memctrl

import (
	"fmt"
	"reflect"
	"testing"

	"anubis/internal/nvm"
	"anubis/internal/obs"
)

// This file audits RunStats: every exported leaf counter must be
// observed moving (becoming nonzero) in at least one of a table of
// small, targeted scenarios — or carry an explicit exemption naming
// the reason it stays zero. The failure mode this guards against is
// silent stat rot: a refactor that stops feeding a counter while all
// behavioral tests still pass, leaving figures quietly reporting zero.

// statExemptions lists leaves that legitimately never move during
// normal (non-recovery) operation, with the reason. A leaf listed here
// that DOES move fails the audit too: exemptions must stay accurate.
var statExemptions = map[string]string{
	"NVM.ReadsByRegion[sct]": "shadow tables are write-only during normal operation; recovery reads them via the raw (untimed) accessor",
	"NVM.ReadsByRegion[smt]": "shadow tables are write-only during normal operation; recovery reads them via the raw (untimed) accessor",
	"NVM.ReadsByRegion[st]":  "shadow tables are write-only during normal operation; recovery reads them via the raw (untimed) accessor",
}

// flattenStats walks a RunStats value and returns every uint64 leaf
// keyed by a dotted path. Region-indexed arrays and the attribution
// ledger get element names instead of raw indices.
func flattenStats(s RunStats) map[string]uint64 {
	out := map[string]uint64{}
	var walk func(prefix string, v reflect.Value)
	walk = func(prefix string, v reflect.Value) {
		switch v.Kind() {
		case reflect.Struct:
			tp := v.Type()
			for i := 0; i < tp.NumField(); i++ {
				name := tp.Field(i).Name
				if prefix != "" {
					name = prefix + "." + name
				}
				walk(name, v.Field(i))
			}
		case reflect.Array:
			for i := 0; i < v.Len(); i++ {
				walk(fmt.Sprintf("%s[%s]", prefix, elemName(prefix, i)), v.Index(i))
			}
		case reflect.Uint64:
			out[prefix] = v.Uint()
		default:
			panic(fmt.Sprintf("flattenStats: unhandled kind %v at %s — extend the audit", v.Kind(), prefix))
		}
	}
	walk("", reflect.ValueOf(s))
	return out
}

// elemName renders a readable element label for the region arrays and
// the attribution ledger.
func elemName(prefix string, i int) string {
	switch {
	case prefix == "Attribution":
		return obs.Comp(i).String()
	case prefix == "NVM.WritesByRegion" || prefix == "NVM.ReadsByRegion":
		return nvm.Region(i).String()
	}
	return fmt.Sprint(i)
}

// statScenario is one targeted workload: a controller constructor and
// a driver that exercises a specific slice of the stat surface.
type statScenario struct {
	name string
	mk   func(t *testing.T) Controller
	run  func(t *testing.T, ctrl Controller)
}

// burst writes n zero-gap blocks with the given address stride — WPQ
// back-pressure, dirty metadata-cache fills, shadow writes.
func burst(t *testing.T, ctrl Controller, n int, stride uint64) {
	t.Helper()
	var d [BlockBytes]byte
	for i := 0; i < n; i++ {
		d[0] = byte(i)
		if err := ctrl.WriteBlock((uint64(i)*stride)%ctrl.NumBlocks(), d); err != nil {
			t.Fatal(err)
		}
	}
}

// readSweep reads n blocks at a stride — misses, clean fills/evictions,
// drain stalls when it follows a write burst.
func readSweep(t *testing.T, ctrl Controller, n int, stride uint64) {
	t.Helper()
	for i := 0; i < n; i++ {
		if _, err := ctrl.ReadBlock((uint64(i) * stride) % ctrl.NumBlocks()); err != nil {
			t.Fatal(err)
		}
	}
}

func statScenarios() []statScenario {
	mk := func(f func() (Controller, error)) func(t *testing.T) Controller {
		return func(t *testing.T) Controller {
			t.Helper()
			ctrl, err := f()
			if err != nil {
				t.Fatal(err)
			}
			return ctrl
		}
	}
	return []statScenario{
		{
			// The broad-spectrum cell: AGIT-Plus moves reads/writes,
			// shadow writes, page overflows, both caches, WPQ and drain
			// stalls, and every Bonsai attribution component.
			name: "agit-plus-mixed",
			mk:   mk(func() (Controller, error) { return NewBonsai(TestConfig(SchemeAGITPlus)) }),
			run: func(t *testing.T, ctrl Controller) {
				// Page-stride write burst: > counter-cache footprint, so
				// dirty counter/tree lines evict under WPQ pressure.
				burst(t, ctrl, 600, 64)
				// An idle window: CPU-gap attribution.
				ctrl.AdvanceTo(ctrl.Now() + 1000)
				// Hammer one block past the 7-bit minor counter: page
				// overflow re-encryption.
				burst(t, ctrl, 200, 0)
				// Read sweep over a disjoint page range: clean fills and
				// clean evictions, drain stalls behind the burst above.
				readSweep(t, ctrl, 400, 64+1)
			},
		},
		{
			// Shadow-region entries stall on a full WPQ: the ASIT/AGIT-
			// specific stall component the paper's overhead argument is
			// about. Every fill read first waits for the queue to drain
			// below the watermark, so the shadow pushes must follow a
			// full queue with no fill in between: a read caches a far
			// page's counter and tree lines clean, an overflow of page 0
			// re-encrypts all 64 of its blocks into the WPQ, and the far
			// page's next write dirties both cached lines at once.
			name: "agit-tiny-wpq",
			mk:   mk(func() (Controller, error) { return NewBonsai(TestConfig(SchemeAGITPlus)) }),
			run: func(t *testing.T, ctrl Controller) {
				far := ctrl.NumBlocks() / 2
				if _, err := ctrl.ReadBlock(far); err != nil {
					t.Fatal(err)
				}
				burst(t, ctrl, 64, 1)
				for ctrl.Stats().PageOverflows == 0 {
					burst(t, ctrl, 1, 0)
				}
				if err := ctrl.WriteBlock(far, [BlockBytes]byte{}); err != nil {
					t.Fatal(err)
				}
			},
		},
		{
			// Osiris on the general tree: stop-loss force-persists.
			name: "osiris-stoploss",
			mk:   mk(func() (Controller, error) { return NewBonsai(TestConfig(SchemeOsiris)) }),
			run: func(t *testing.T, ctrl Controller) {
				burst(t, ctrl, 64, 0) // repeated same-page updates trip StopLoss=4
			},
		},
		{
			// Strict persistence: every metadata update is written through.
			name: "strict",
			mk:   mk(func() (Controller, error) { return NewBonsai(TestConfig(SchemeStrict)) }),
			run: func(t *testing.T, ctrl Controller) {
				burst(t, ctrl, 64, 64)
			},
		},
		{
			// ASIT on the SGX family: combined metadata cache (TreeCache
			// field), ST shadow region, SGX attribution components.
			name: "asit-mixed",
			mk:   mk(func() (Controller, error) { return NewSGX(TestConfig(SchemeASIT)) }),
			run: func(t *testing.T, ctrl Controller) {
				burst(t, ctrl, 600, 64)
				readSweep(t, ctrl, 400, 64+1)
			},
		},
	}
}

// TestRunStatsEveryFieldMoves is the audit: union the stats of all
// scenarios and require every flattened leaf to be nonzero unless
// exempted — and every exemption to be real (still zero) and still
// existing (no stale names after a refactor).
func TestRunStatsEveryFieldMoves(t *testing.T) {
	union := map[string]uint64{}
	for _, sc := range statScenarios() {
		sc := sc
		t.Run(sc.name, func(t *testing.T) {
			ctrl := sc.mk(t)
			sc.run(t, ctrl)
			for k, v := range flattenStats(ctrl.Stats()) {
				union[k] += v
			}
		})
	}
	if len(union) == 0 {
		t.Fatal("no stats collected")
	}
	for name, reason := range statExemptions {
		if _, ok := union[name]; !ok {
			t.Errorf("exemption for %q names a stat that no longer exists (reason was: %s)", name, reason)
		}
	}
	for name, v := range union {
		_, exempt := statExemptions[name]
		switch {
		case exempt && v != 0:
			t.Errorf("stat %s is exempted as never-moving but moved to %d; drop the exemption", name, v)
		case !exempt && v == 0:
			t.Errorf("stat %s never moved in any scenario; add a scenario that exercises it or an exemption explaining why it cannot move", name)
		}
	}
}

// TestRunStatsScenarioTargets pins the per-scenario signals the table
// was built around, so a scenario that silently stops exercising its
// target (e.g. a config change doubling the cache) fails loudly here
// rather than degrading the union test.
func TestRunStatsScenarioTargets(t *testing.T) {
	targets := map[string][]string{
		"agit-plus-mixed": {
			"ReadRequests", "WriteRequests", "ShadowWrites", "PageOverflows",
			"CounterCache.Hits", "CounterCache.Misses", "CounterCache.Evictions",
			"CounterCache.DirtyEvictions", "CounterCache.CleanEvictions",
			"CounterCache.FirstDirties", "CounterCache.Insertions",
			"TreeCache.Evictions",
			"NVM.WPQStallNS", "NVM.DrainStallNS",
			"NVM.WritesByRegion[sct]", "NVM.WritesByRegion[smt]",
			"Attribution[cpu_gap]", "Attribution[data_read]",
			"Attribution[counter_fill]", "Attribution[tree_fill]",
			"Attribution[bank_busy]", "Attribution[crypto]",
		},
		"agit-tiny-wpq":   {"Attribution[shadow]", "Attribution[wpq_stall]"},
		"osiris-stoploss": {"StopLossWrites"},
		"strict":          {"StrictWrites"},
		"asit-mixed": {
			"TreeCache.Hits", "TreeCache.Misses", "TreeCache.DirtyEvictions",
			"NVM.WritesByRegion[st]", "ShadowWrites",
		},
	}
	for _, sc := range statScenarios() {
		sc := sc
		want, ok := targets[sc.name]
		if !ok {
			continue
		}
		t.Run(sc.name, func(t *testing.T) {
			ctrl := sc.mk(t)
			sc.run(t, ctrl)
			flat := flattenStats(ctrl.Stats())
			for _, name := range want {
				v, ok := flat[name]
				if !ok {
					t.Errorf("target stat %q does not exist", name)
					continue
				}
				if v == 0 {
					t.Errorf("scenario %s: target stat %s did not move", sc.name, name)
				}
			}
		})
	}
}
