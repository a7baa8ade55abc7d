package trace

import (
	"testing"
)

func TestSPEC2006Set(t *testing.T) {
	ps := SPEC2006()
	if len(ps) != 11 {
		t.Fatalf("suite has %d apps, want 11 (paper §5)", len(ps))
	}
	names := map[string]bool{}
	for _, p := range ps {
		if err := p.Validate(); err != nil {
			t.Fatalf("%s: %v", p.Name, err)
		}
		if names[p.Name] {
			t.Fatalf("duplicate profile %s", p.Name)
		}
		names[p.Name] = true
	}
}

func TestByName(t *testing.T) {
	p, ok := ByName("mcf")
	if !ok || p.Name != "mcf" {
		t.Fatal("ByName(mcf) failed")
	}
	if _, ok := ByName("nonexistent"); ok {
		t.Fatal("ByName found a nonexistent profile")
	}
}

func TestDeterminism(t *testing.T) {
	p, _ := ByName("milc")
	a := NewGenerator(p, 1).Generate(1000)
	b := NewGenerator(p, 1).Generate(1000)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("request %d differs across identical seeds", i)
		}
	}
	c := NewGenerator(p, 2).Generate(1000)
	same := 0
	for i := range a {
		if a[i] == c[i] {
			same++
		}
	}
	if same == len(a) {
		t.Fatal("different seeds produced identical streams")
	}
}

func TestWriteFractionConverges(t *testing.T) {
	for _, p := range SPEC2006() {
		g := NewGenerator(p, 7)
		writes := 0
		n := 20000
		for i := 0; i < n; i++ {
			if g.Next().Op == OpWrite {
				writes++
			}
		}
		got := float64(writes) / float64(n)
		if got < p.WriteFrac-0.02 || got > p.WriteFrac+0.02 {
			t.Fatalf("%s: write fraction %.3f, want ~%.3f", p.Name, got, p.WriteFrac)
		}
	}
}

func TestBlocksWithinFootprint(t *testing.T) {
	for _, p := range SPEC2006() {
		g := NewGenerator(p, 9)
		for i := 0; i < 5000; i++ {
			r := g.Next()
			if r.Block >= p.FootprintBlocks {
				t.Fatalf("%s: block %d outside footprint %d", p.Name, r.Block, p.FootprintBlocks)
			}
		}
	}
}

func TestGapMeanApproximate(t *testing.T) {
	p, _ := ByName("lbm")
	g := NewGenerator(p, 11)
	var sum float64
	n := 50000
	for i := 0; i < n; i++ {
		sum += float64(g.Next().GapNS)
	}
	mean := sum / float64(n)
	if mean < 0.7*p.GapMeanNS || mean > 1.3*p.GapMeanNS {
		t.Fatalf("gap mean %.1f, want ~%.1f", mean, p.GapMeanNS)
	}
}

func TestMCFIsReadIntensive(t *testing.T) {
	mcf, _ := ByName("mcf")
	lib, _ := ByName("libquantum")
	if mcf.WriteFrac >= 0.2 {
		t.Fatalf("mcf write fraction %v should be low (read-intensive)", mcf.WriteFrac)
	}
	if lib.WriteFrac <= mcf.WriteFrac || lib.WriteFrac < 0.4 {
		t.Fatal("libquantum must be the write-intensive extreme")
	}
}

func TestSequentialStreaming(t *testing.T) {
	lbm, _ := ByName("lbm")
	g := NewGenerator(lbm, 3)
	seq := 0
	prev := g.Next().Block
	n := 10000
	for i := 0; i < n; i++ {
		r := g.Next()
		if r.Block == prev+1 {
			seq++
		}
		prev = r.Block
	}
	if float64(seq)/float64(n) < 0.5 {
		t.Fatalf("lbm sequential rate %.2f, want streaming behaviour", float64(seq)/float64(n))
	}
}

func TestRewriteConcentration(t *testing.T) {
	// libquantum rewrites must revisit recently written blocks often.
	lib, _ := ByName("libquantum")
	g := NewGenerator(lib, 5)
	seen := map[uint64]int{}
	writes := 0
	for i := 0; i < 20000; i++ {
		r := g.Next()
		if r.Op == OpWrite {
			writes++
			seen[r.Block]++
		}
	}
	max := 0
	for _, c := range seen {
		if c > max {
			max = c
		}
	}
	if max < 10 {
		t.Fatalf("libquantum hottest written block seen %d times; expected heavy rewrites", max)
	}
}

func TestScaled(t *testing.T) {
	p, _ := ByName("bwaves")
	s := p.Scaled(1000)
	if s.FootprintBlocks != 1000 {
		t.Fatalf("scaled footprint = %d", s.FootprintBlocks)
	}
	if s.HotBlocks == 0 || s.HotBlocks > s.FootprintBlocks {
		t.Fatalf("scaled hot set = %d", s.HotBlocks)
	}
	if err := s.Validate(); err != nil {
		t.Fatal(err)
	}
	// No-op when already small enough.
	small := Profile{Name: "x", FootprintBlocks: 10, HotBlocks: 2, GapMeanNS: 1}
	if got := small.Scaled(1000); got.FootprintBlocks != 10 {
		t.Fatal("Scaled shrank a fitting profile")
	}
}

func TestValidateRejectsBadProfiles(t *testing.T) {
	bad := []Profile{
		{Name: "a", FootprintBlocks: 0},
		{Name: "b", FootprintBlocks: 10, WriteFrac: 1.5},
		{Name: "c", FootprintBlocks: 10, HotFrac: -1},
		{Name: "d", FootprintBlocks: 10, HotBlocks: 20},
		{Name: "e", FootprintBlocks: 10, SeqProb: 1.0},
		{Name: "f", FootprintBlocks: 10, RewriteProb: 2},
	}
	for _, p := range bad {
		if err := p.Validate(); err == nil {
			t.Fatalf("profile %s accepted", p.Name)
		}
	}
}

func TestNewGeneratorPanicsOnInvalid(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	NewGenerator(Profile{Name: "bad"}, 1)
}

func BenchmarkGenerate(b *testing.B) {
	p, _ := ByName("milc")
	g := NewGenerator(p, 1)
	for i := 0; i < b.N; i++ {
		g.Next()
	}
}

// TestGenericUniformSequential builds profiles from Profile's fields
// alone, as a library user wanting a controlled access pattern does: a
// uniform one (no locality knobs) and a streaming one (SeqProb 0.95)
// both validate, and the streaming one continues its run.
func TestGenericUniformSequential(t *testing.T) {
	u := Profile{Name: "u", WriteFrac: 0.3, GapMeanNS: 50, FootprintBlocks: 1000}
	if err := u.Validate(); err != nil {
		t.Fatal(err)
	}
	s := Profile{Name: "s", WriteFrac: 0.5, GapMeanNS: 50, FootprintBlocks: 1000, SeqProb: 0.95}
	if err := s.Validate(); err != nil {
		t.Fatal(err)
	}
	g := NewGenerator(s, 1)
	seq, prev := 0, g.Next().Block
	for i := 0; i < 5000; i++ {
		r := g.Next()
		if r.Block == prev+1 {
			seq++
		}
		prev = r.Block
	}
	if float64(seq)/5000 < 0.85 {
		t.Fatalf("sequential rate %.2f too low", float64(seq)/5000)
	}
}

func TestSourceInterface(t *testing.T) {
	p, _ := ByName("mcf")
	var _ Source = NewGenerator(p, 1)
	var _ Source = NewArena(p, 1, 1).Source()
}
