package sim

import (
	"reflect"
	"testing"

	"anubis/internal/memctrl"
	"anubis/internal/nvm"
	"anubis/internal/trace"
)

// simConfig returns a mid-size configuration: large enough for realistic
// miss rates, small enough for fast tests.
func simConfig(s memctrl.Scheme) memctrl.Config {
	cfg := memctrl.DefaultConfig(s)
	cfg.MemoryBytes = 64 << 20 // 64 MB
	cfg.CounterCacheBlocks = 512
	cfg.CounterCacheWays = 8
	cfg.TreeCacheBlocks = 512
	cfg.TreeCacheWays = 16
	cfg.MetaCacheBlocks = 1024
	cfg.MetaCacheWays = 8
	return cfg
}

func runOne(t *testing.T, f memctrl.Family, s memctrl.Scheme, prof trace.Profile, n int) Result {
	t.Helper()
	ctrl, err := memctrl.New(f, simConfig(s))
	if err != nil {
		t.Fatal(err)
	}
	gen := trace.NewGenerator(prof, 12345)
	res, err := Run(ctrl, gen, n)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func TestRunCompletes(t *testing.T) {
	prof, _ := trace.ByName("milc")
	res := runOne(t, memctrl.FamilyBonsai, memctrl.SchemeWriteBack, prof, 3000)
	if res.ExecNS == 0 {
		t.Fatal("no time elapsed")
	}
	if res.Stats.ReadRequests+res.Stats.WriteRequests != 3000 {
		t.Fatalf("request accounting: %d+%d != 3000",
			res.Stats.ReadRequests, res.Stats.WriteRequests)
	}
}

func TestBonsaiSchemeOrdering(t *testing.T) {
	// Figure 10's qualitative result: WB ≤ Osiris ≤ AGIT-Plus ≤
	// AGIT-Read ≪ Strict.
	prof, _ := trace.ByName("libquantum")
	n := 6000
	wb := runOne(t, memctrl.FamilyBonsai, memctrl.SchemeWriteBack, prof, n)
	os := runOne(t, memctrl.FamilyBonsai, memctrl.SchemeOsiris, prof, n)
	ap := runOne(t, memctrl.FamilyBonsai, memctrl.SchemeAGITPlus, prof, n)
	st := runOne(t, memctrl.FamilyBonsai, memctrl.SchemeStrict, prof, n)

	if os.ExecNS < wb.ExecNS {
		t.Fatalf("osiris (%d) faster than write-back (%d)", os.ExecNS, wb.ExecNS)
	}
	if ap.ExecNS < os.ExecNS {
		t.Fatalf("agit-plus (%d) faster than osiris (%d)", ap.ExecNS, os.ExecNS)
	}
	if st.ExecNS <= ap.ExecNS {
		t.Fatalf("strict (%d) not slower than agit-plus (%d)", st.ExecNS, ap.ExecNS)
	}
	if st.Normalized(wb) < 1.2 {
		t.Fatalf("strict overhead %.3f too low; write amplification not modeled", st.Normalized(wb))
	}
}

func TestSGXSchemeOrdering(t *testing.T) {
	// Figure 11: WB ≤ Osiris ≤ ASIT ≪ Strict.
	prof, _ := trace.ByName("libquantum")
	n := 6000
	wb := runOne(t, memctrl.FamilySGX, memctrl.SchemeWriteBack, prof, n)
	as := runOne(t, memctrl.FamilySGX, memctrl.SchemeASIT, prof, n)
	st := runOne(t, memctrl.FamilySGX, memctrl.SchemeStrict, prof, n)
	if as.ExecNS < wb.ExecNS {
		t.Fatalf("asit (%d) faster than write-back (%d)", as.ExecNS, wb.ExecNS)
	}
	if st.ExecNS <= as.ExecNS {
		t.Fatalf("strict (%d) not slower than asit (%d)", st.ExecNS, as.ExecNS)
	}
	if as.Normalized(wb) >= st.Normalized(wb) {
		t.Fatal("ASIT must be far cheaper than strict persistence")
	}
}

func TestAGITReadCostlierOnReadIntensive(t *testing.T) {
	// Figure 10's MCF effect: on a read-intensive app, AGIT-Read's
	// fill-tracking writes cost more than AGIT-Plus's dirty-tracking.
	prof, _ := trace.ByName("mcf")
	n := 6000
	ar := runOne(t, memctrl.FamilyBonsai, memctrl.SchemeAGITRead, prof, n)
	ap := runOne(t, memctrl.FamilyBonsai, memctrl.SchemeAGITPlus, prof, n)
	if ar.Stats.ShadowWrites <= ap.Stats.ShadowWrites {
		t.Fatalf("AGIT-Read shadow writes (%d) not above AGIT-Plus (%d) on mcf",
			ar.Stats.ShadowWrites, ap.Stats.ShadowWrites)
	}
	if ar.ExecNS < ap.ExecNS {
		t.Fatalf("AGIT-Read (%d) faster than AGIT-Plus (%d) on mcf", ar.ExecNS, ap.ExecNS)
	}
}

func TestDeterministicAcrossRuns(t *testing.T) {
	prof, _ := trace.ByName("astar")
	a := runOne(t, memctrl.FamilyBonsai, memctrl.SchemeAGITPlus, prof, 2000)
	b := runOne(t, memctrl.FamilyBonsai, memctrl.SchemeAGITPlus, prof, 2000)
	if a.ExecNS != b.ExecNS {
		t.Fatalf("nondeterministic simulation: %d vs %d", a.ExecNS, b.ExecNS)
	}
}

func TestCleanEvictionFraction(t *testing.T) {
	// Figure 7: read-mostly apps evict mostly clean counter blocks.
	mcf, _ := trace.ByName("mcf")
	lbm, _ := trace.ByName("lbm")
	rm := runOne(t, memctrl.FamilyBonsai, memctrl.SchemeWriteBack, mcf, 8000)
	rl := runOne(t, memctrl.FamilyBonsai, memctrl.SchemeWriteBack, lbm, 8000)
	if rm.CleanEvictionFrac() <= rl.CleanEvictionFrac() {
		t.Fatalf("mcf clean-eviction fraction (%.2f) not above lbm (%.2f)",
			rm.CleanEvictionFrac(), rl.CleanEvictionFrac())
	}
	if rm.CleanEvictionFrac() < 0.5 {
		t.Fatalf("mcf clean fraction %.2f; expected mostly-clean evictions", rm.CleanEvictionFrac())
	}
}

func TestWritesPerRequest(t *testing.T) {
	prof, _ := trace.ByName("lbm")
	st := runOne(t, memctrl.FamilyBonsai, memctrl.SchemeStrict, prof, 3000)
	wb := runOne(t, memctrl.FamilyBonsai, memctrl.SchemeWriteBack, prof, 3000)
	if st.WritesPerRequest() < wb.WritesPerRequest()+3 {
		t.Fatalf("strict write amplification %.2f vs wb %.2f; expected ≥ +levels",
			st.WritesPerRequest(), wb.WritesPerRequest())
	}
}

func TestFamilyString(t *testing.T) {
	if memctrl.FamilyBonsai.String() != "bonsai" || memctrl.FamilySGX.String() != "sgx" {
		t.Fatal("family names wrong")
	}
}

func TestNewControllerRejectsUnknownFamily(t *testing.T) {
	if _, err := memctrl.New(memctrl.Family(9), simConfig(memctrl.SchemeWriteBack)); err == nil {
		t.Fatal("unknown family accepted")
	}
}

func TestNormalizedEdgeCases(t *testing.T) {
	var zero Result
	r := Result{ExecNS: 100}
	if r.Normalized(zero) != 0 {
		t.Fatal("normalizing against zero baseline must yield 0")
	}
	if zero.CleanEvictionFrac() != 0 {
		t.Fatal("no evictions must yield 0 fraction")
	}
	if zero.WritesPerRequest() != 0 {
		t.Fatal("no writes must yield 0 amplification")
	}
}

// helpers shared with latency_test.go
func profFor(t *testing.T, name string) trace.Profile {
	t.Helper()
	p, ok := trace.ByName(name)
	if !ok {
		t.Fatalf("unknown profile %s", name)
	}
	return p
}

func runFor(t *testing.T, f memctrl.Family, p trace.Profile, n int) Result {
	t.Helper()
	return runOne(t, f, memctrl.SchemeAGITPlus, p, n)
}

func runSchemeFor(t *testing.T, f memctrl.Family, scheme string, p trace.Profile, n int) Result {
	t.Helper()
	var s memctrl.Scheme
	switch scheme {
	case "writeback":
		s = memctrl.SchemeWriteBack
	case "strict":
		s = memctrl.SchemeStrict
	default:
		t.Fatalf("unknown scheme %s", scheme)
	}
	return runOne(t, f, s, p, n)
}

// TestRunnerStepsEqualOneRun pins the resumable loop to Run: a Runner
// stepped in uneven pieces and closed on a Fork must give Run's Result
// and leave the same NVM data image, and a second Fork after more
// steps must match a longer Run (the first Fork did not close the
// runner's own run). The data image is what checks that FillBlock's
// request counter continues across Steps; no timing figure depends on
// the payload bytes. Sources cover a generator, a mid-stream arena
// cursor (FillBlock path) and a cursor at position zero (memoized
// payload path), on Strict, the scheme that persists the most per
// write.
func TestRunnerStepsEqualOneRun(t *testing.T) {
	prof, _ := trace.ByName("libquantum")
	arena := trace.NewArena(prof, 99, 3000)
	sources := map[string]func() trace.Source{
		"generator":  func() trace.Source { return trace.NewGenerator(prof, 99) },
		"cursor-mid": func() trace.Source { return arena.SourceAt(500) },
		"cursor-0":   func() trace.Source { return arena.Source() },
	}
	cfg := memctrl.DefaultConfig(memctrl.SchemeStrict)
	cfg.MemoryBytes = 4 << 20
	newCtrl := func() memctrl.Controller {
		c, err := memctrl.New(memctrl.FamilyBonsai, cfg)
		if err != nil {
			t.Fatal(err)
		}
		return c
	}
	for name, src := range sources {
		r := NewRunner(newCtrl(), src())
		issued := 0
		for _, steps := range [][]int{{1, 299, 0, 700}, {5, 495}} {
			for _, n := range steps {
				if err := r.Step(n); err != nil {
					t.Fatal(err)
				}
				issued += n
			}
			fork, got := r.Fork()
			one := newCtrl()
			want, err := Run(one, src(), issued)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got, want) {
				t.Errorf("%s: fork after %d requests differs from Run\ngot:  %+v\nwant: %+v",
					name, issued, got, want)
			}
			blocks := one.Device().BlocksIn(nvm.RegionData)
			if !reflect.DeepEqual(fork.Device().BlocksIn(nvm.RegionData), blocks) {
				t.Fatalf("%s: fork after %d requests wrote other data blocks than Run", name, issued)
			}
			for _, idx := range blocks {
				if fork.Device().Read(nvm.RegionData, idx) != one.Device().Read(nvm.RegionData, idx) {
					t.Errorf("%s: fork after %d requests: data block %d differs from Run's", name, issued, idx)
					break
				}
			}
		}
	}
}
