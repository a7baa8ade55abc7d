package anubis

// One benchmark per evaluation artifact of the paper (Table 1 and
// Figures 5, 7, 10, 11, 12, 13) plus microbenchmarks of the hot paths.
// Each figure benchmark runs the same code path that cmd/anubis-bench
// uses and reports the headline metric via b.ReportMetric, so
//
//	go test -bench=. -benchmem
//
// regenerates the evaluation at a reduced-but-representative scale
// (use cmd/anubis-bench for full-scale runs).

import (
	"bytes"
	"io"
	"testing"

	"anubis/internal/figures"
	"anubis/internal/memctrl"
	"anubis/internal/recmodel"
	"anubis/internal/trace"
)

func benchRC() figures.RunConfig {
	rc := figures.DefaultRunConfig()
	rc.Requests = 8000
	rc.Apps = []string{"mcf", "lbm", "libquantum", "milc", "omnetpp"}
	rc.MemoryBytes = 128 << 20
	return rc
}

// BenchmarkTable1Config regenerates Table 1 (configuration echo).
func BenchmarkTable1Config(b *testing.B) {
	for i := 0; i < b.N; i++ {
		figures.Table1(io.Discard)
	}
}

// BenchmarkFig5OsirisRecovery evaluates the Osiris recovery-time model
// across the paper's capacity axis and reports the 8 TB point.
func BenchmarkFig5OsirisRecovery(b *testing.B) {
	var rows []figures.Fig5Row
	for i := 0; i < b.N; i++ {
		rows = figures.Fig5()
	}
	last := rows[len(rows)-1]
	b.ReportMetric(recmodel.Seconds(last.NS), "s-recovery-8TB")
}

// BenchmarkFig7CleanEvictions measures the clean-eviction fractions and
// reports mcf's (the paper's motivating case for AGIT-Plus).
func BenchmarkFig7CleanEvictions(b *testing.B) {
	rc := benchRC()
	var rows []figures.Fig7Row
	for i := 0; i < b.N; i++ {
		t, err := figures.Sweep(rc, figures.TableFig7)
		if err != nil {
			b.Fatal(err)
		}
		rows = t.Fig7
	}
	for _, r := range rows {
		if r.App == "mcf" {
			b.ReportMetric(r.CleanFrac, "clean-frac-mcf")
		}
	}
}

// BenchmarkFig10AGIT runs the AGIT performance evaluation and reports
// the average normalized overheads per scheme.
func BenchmarkFig10AGIT(b *testing.B) {
	rc := benchRC()
	var avg map[memctrl.Scheme]float64
	for i := 0; i < b.N; i++ {
		var err error
		_, avg, err = figures.Fig10(rc)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(avg[memctrl.SchemeStrict], "x-strict")
	b.ReportMetric(avg[memctrl.SchemeOsiris], "x-osiris")
	b.ReportMetric(avg[memctrl.SchemeAGITRead], "x-agit-read")
	b.ReportMetric(avg[memctrl.SchemeAGITPlus], "x-agit-plus")
}

// BenchmarkFig11ASIT runs the ASIT performance evaluation.
func BenchmarkFig11ASIT(b *testing.B) {
	rc := benchRC()
	var avg map[memctrl.Scheme]float64
	for i := 0; i < b.N; i++ {
		var err error
		_, avg, err = figures.Fig11(rc)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(avg[memctrl.SchemeStrict], "x-strict")
	b.ReportMetric(avg[memctrl.SchemeASIT], "x-asit")
}

// BenchmarkFig12RecoveryTime evaluates the cache-size sweep of Anubis
// recovery (analytic) and additionally executes a real crash+recovery,
// reporting the paper's two anchor points.
func BenchmarkFig12RecoveryTime(b *testing.B) {
	var rows []figures.Fig12Row
	for i := 0; i < b.N; i++ {
		rows = figures.Fig12()
	}
	b.ReportMetric(recmodel.Seconds(rows[0].AGITNS), "s-agit-256KB")
	b.ReportMetric(recmodel.Seconds(rows[len(rows)-1].AGITNS), "s-agit-4MB")
}

// BenchmarkFig12MeasuredRecovery executes real recoveries (AGIT and
// ASIT) at test scale and reports their modeled times: a one-trial
// recovery sweep crashes each after 3000 mcf requests (a 2800-request
// warm fill and one 200-request window).
func BenchmarkFig12MeasuredRecovery(b *testing.B) {
	rc := figures.QuickRunConfig()
	rc.MemoryBytes = 32 << 20
	rc.Requests = 2800
	measure := func(s memctrl.Scheme, f memctrl.Family) memctrl.RecoveryReport {
		res, err := figures.RecoverySweep(figures.RecoverySweepConfig{
			Run: rc, Scheme: s, Family: f, Trials: 1, ExtraPerTrial: 200,
		})
		if err != nil {
			b.Fatal(err)
		}
		return res.Trials[0].Report
	}
	var agit, asit memctrl.RecoveryReport
	for i := 0; i < b.N; i++ {
		agit = measure(memctrl.SchemeAGITPlus, memctrl.FamilyBonsai)
		asit = measure(memctrl.SchemeASIT, memctrl.FamilySGX)
	}
	b.ReportMetric(float64(agit.ModeledNS())/1e6, "ms-agit")
	b.ReportMetric(float64(asit.ModeledNS())/1e6, "ms-asit")
}

// BenchmarkFig13CacheSensitivity sweeps metadata cache sizes.
func BenchmarkFig13CacheSensitivity(b *testing.B) {
	rc := figures.QuickRunConfig()
	rc.Requests = 3000
	rc.Apps = []string{"libquantum", "mcf"}
	var rows []figures.Fig13Row
	for i := 0; i < b.N; i++ {
		t, err := figures.Sweep(rc, figures.TableFig13)
		if err != nil {
			b.Fatal(err)
		}
		rows = t.Fig13
	}
	b.ReportMetric(rows[0].Norm[memctrl.SchemeASIT], "x-asit-256KB")
	b.ReportMetric(rows[len(rows)-1].Norm[memctrl.SchemeASIT], "x-asit-4MB")
}

// --- hot-path microbenchmarks -------------------------------------------------

func benchSystem(b *testing.B, s Scheme) *System {
	b.Helper()
	sys, err := New(Config{Scheme: s, MemoryBytes: 64 << 20})
	if err != nil {
		b.Fatal(err)
	}
	return sys
}

// BenchmarkWriteBlock measures the full secure write path (encrypt,
// ECC, MAC, eager tree update, shadow write, atomic commit).
func BenchmarkWriteBlock(b *testing.B) {
	for _, s := range []Scheme{WriteBack, Strict, Osiris, AGITPlus, ASIT} {
		b.Run(s.String(), func(b *testing.B) {
			sys := benchSystem(b, s)
			data := make([]byte, BlockSize)
			b.SetBytes(BlockSize)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := sys.WriteBlock(uint64(i)%sys.NumBlocks(), data); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkReadBlock measures the verified read path (decrypt, ECC,
// MAC, tree verification).
func BenchmarkReadBlock(b *testing.B) {
	for _, s := range []Scheme{WriteBack, AGITPlus, ASIT} {
		b.Run(s.String(), func(b *testing.B) {
			sys := benchSystem(b, s)
			data := make([]byte, BlockSize)
			for i := uint64(0); i < 4096; i++ {
				if err := sys.WriteBlock(i, data); err != nil {
					b.Fatal(err)
				}
			}
			b.SetBytes(BlockSize)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := sys.ReadBlock(uint64(i) & 4095); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkCrashRecover measures an end-to-end crash+recovery cycle.
func BenchmarkCrashRecover(b *testing.B) {
	for _, s := range []Scheme{AGITPlus, ASIT} {
		b.Run(s.String(), func(b *testing.B) {
			data := make([]byte, BlockSize)
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				sys, err := New(Config{Scheme: s, MemoryBytes: 8 << 20,
					CounterCacheBytes: 16 << 10, TreeCacheBytes: 16 << 10, MetaCacheBytes: 32 << 10})
				if err != nil {
					b.Fatal(err)
				}
				for j := uint64(0); j < 1000; j++ {
					sys.WriteBlock(j*29%sys.NumBlocks(), data)
				}
				b.StartTimer()
				sys.Crash()
				if _, err := sys.Recover(); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkTraceGeneration measures workload generation throughput.
func BenchmarkTraceGeneration(b *testing.B) {
	p, _ := trace.ByName("milc")
	g := trace.NewGenerator(p, 1)
	for i := 0; i < b.N; i++ {
		g.Next()
	}
}

// --- ablation benchmark --------------------------------------------------------

// BenchmarkAblations sweeps the ablation tables: the Osiris stop-loss
// limit, ECC-trial vs phase-bit counter recovery, per-scheme write
// amplification and hot-spot wear, and the Triad-NVM persisted-levels
// knob.
func BenchmarkAblations(b *testing.B) {
	rc := figures.QuickRunConfig()
	rc.Requests = 3000
	var t figures.AblationTables
	for i := 0; i < b.N; i++ {
		tabs, err := figures.Sweep(rc, figures.TableAblations)
		if err != nil {
			b.Fatal(err)
		}
		t = tabs.Ablations
	}
	b.ReportMetric(t.StopLoss[0].Normalized, "x-stoploss-1")
	b.ReportMetric(t.StopLoss[len(t.StopLoss)-1].Normalized, "x-stoploss-16")
	b.ReportMetric(t.Backend[0].Normalized, "x-ecc")
	b.ReportMetric(t.Backend[1].Normalized, "x-phase")
	for _, r := range t.Endurance {
		if r.Scheme == memctrl.SchemeStrict {
			b.ReportMetric(r.WritesPerRequest, "writes/req-strict")
		}
		if r.Scheme == memctrl.SchemeAGITPlus && !r.WearLeveled {
			b.ReportMetric(r.WritesPerRequest, "writes/req-agit-plus")
		}
	}
	b.ReportMetric(t.Triad[0].Normalized, "x-triad-0")
	b.ReportMetric(t.Triad[len(t.Triad)-1].Normalized, "x-triad-3")
}

// BenchmarkAuditNVM measures the whole-memory audit (fsck) rate.
func BenchmarkAuditNVM(b *testing.B) {
	sys := benchSystem(b, AGITPlus)
	data := make([]byte, BlockSize)
	for i := uint64(0); i < 4096; i++ {
		sys.WriteBlock(i, data)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rep, err := sys.Audit()
		if err != nil || !rep.OK() {
			b.Fatal(err)
		}
	}
}

// BenchmarkImageSaveLoad measures NVM image serialization.
func BenchmarkImageSaveLoad(b *testing.B) {
	cfg := Config{Scheme: AGITPlus, MemoryBytes: 8 << 20}
	sys, err := New(cfg)
	if err != nil {
		b.Fatal(err)
	}
	data := make([]byte, BlockSize)
	for i := uint64(0); i < 4096; i++ {
		sys.WriteBlock(i, data)
	}
	sys.Flush()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var buf bytes.Buffer
		if err := sys.SaveImage(&buf); err != nil {
			b.Fatal(err)
		}
		if _, _, err := OpenImage(cfg, &buf); err != nil {
			b.Fatal(err)
		}
	}
}
