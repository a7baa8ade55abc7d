package trace

import (
	"sync"
	"testing"
)

// TestArenaMatchesGenerator pins the arena contract: the materialized
// stream is request-for-request identical to driving the Generator
// directly at the same (profile, seed).
func TestArenaMatchesGenerator(t *testing.T) {
	p, _ := ByName("milc")
	const n = 3000
	a := NewArena(p, 42, n)
	if a.Len() != n {
		t.Fatalf("arena length = %d, want %d", a.Len(), n)
	}
	g := NewGenerator(p, 42)
	src := a.Source()
	if src.Name() != "milc" {
		t.Fatalf("cursor name = %q", src.Name())
	}
	for i := 0; i < n; i++ {
		want := g.Next()
		got := src.Next()
		if got != want {
			t.Fatalf("request %d: arena %+v differs from generator %+v", i, got, want)
		}
	}
	if src.Pos() != n {
		t.Fatalf("cursor pos = %d after consuming %d", src.Pos(), n)
	}
}

// TestArenaSourceAtResumesMidStream checks the fork-resume shape: a
// cursor opened at pos k replays exactly the suffix a full read would
// have produced after k requests.
func TestArenaSourceAtResumesMidStream(t *testing.T) {
	p, _ := ByName("lbm")
	a := NewArena(p, 7, 1000)
	whole := a.Source()
	for i := 0; i < 400; i++ {
		whole.Next()
	}
	resumed := a.SourceAt(400)
	for i := 400; i < 1000; i++ {
		w, r := whole.Next(), resumed.Next()
		if w != r {
			t.Fatalf("request %d: resumed cursor diverged", i)
		}
	}
}

// TestCursorIndependence verifies cursors over one arena do not share
// position state.
func TestCursorIndependence(t *testing.T) {
	p, _ := ByName("mcf")
	a := NewArena(p, 3, 100)
	c1, c2 := a.Source(), a.Source()
	first := c1.Next()
	if c2.Pos() != 0 {
		t.Fatal("advancing one cursor moved another")
	}
	if got := c2.Next(); got != first {
		t.Fatal("second cursor did not start at the stream head")
	}
}

// TestCursorExhaustionPanics: running off the arena end is a harness
// sizing bug and must fail loudly, not loop or fabricate requests.
func TestCursorExhaustionPanics(t *testing.T) {
	p, _ := ByName("mcf")
	a := NewArena(p, 1, 10)
	c := a.SourceAt(10) // valid: positioned exactly at the end
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on exhausted cursor")
		}
	}()
	c.Next()
}

// TestSourceAtOutOfRangePanics covers both invalid boundaries.
func TestSourceAtOutOfRangePanics(t *testing.T) {
	p, _ := ByName("mcf")
	a := NewArena(p, 1, 10)
	for _, pos := range []int{-1, 11} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("SourceAt(%d) did not panic", pos)
				}
			}()
			a.SourceAt(pos)
		}()
	}
}

// TestArenaCacheInterning: same (profile, seed) with a fitting length
// returns the identical arena; a longer request regenerates, and the
// regenerated arena's prefix matches the old arena byte-for-byte (the
// deterministic-prefix property Get's contract relies on).
func TestArenaCacheInterning(t *testing.T) {
	c := NewArenaCache()
	p, _ := ByName("libquantum")
	a1 := c.Get(p, 99, 500)
	if a2 := c.Get(p, 99, 300); a2 != a1 {
		t.Fatal("fitting request did not return the cached arena")
	}
	if b := c.Get(p, 100, 500); b == a1 {
		t.Fatal("different seed shared an arena")
	}
	big := c.Get(p, 99, 800)
	if big == a1 {
		t.Fatal("enlargement did not regenerate")
	}
	if big.Len() < 800 {
		t.Fatalf("enlarged arena length = %d", big.Len())
	}
	// Old arena stays valid and is a prefix of the new one.
	old, neu := a1.Requests(), big.Requests()
	for i := range old {
		if old[i] != neu[i] {
			t.Fatalf("request %d: enlarged arena prefix diverged", i)
		}
	}
}

// TestArenaCacheConcurrentGet hammers one cache from many goroutines;
// run under -race this checks the locking discipline, and all callers
// asking for fitting lengths must observe a single interned arena.
func TestArenaCacheConcurrentGet(t *testing.T) {
	c := NewArenaCache()
	p, _ := ByName("astar")
	const workers = 16
	arenas := make([]*Arena, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			arenas[w] = c.Get(p, 5, 200)
			// Concurrent cursors over the shared arena.
			src := arenas[w].Source()
			for i := 0; i < 200; i++ {
				src.Next()
			}
		}(w)
	}
	wg.Wait()
	for w := 1; w < workers; w++ {
		if arenas[w] != arenas[0] {
			t.Fatal("concurrent Gets returned distinct arenas for one key")
		}
	}
}

// TestScaledPreservesShape extends the Scaled coverage: scaling keeps
// the hot-set ratio and leaves rate/mix parameters untouched, and is
// deterministic (same inputs, same output profile).
func TestScaledPreservesShape(t *testing.T) {
	p, _ := ByName("soplex")
	s1 := p.Scaled(4096)
	s2 := p.Scaled(4096)
	if s1 != s2 {
		t.Fatal("Scaled is not deterministic")
	}
	if s1.WriteFrac != p.WriteFrac || s1.GapMeanNS != p.GapMeanNS || s1.SeqProb != p.SeqProb {
		t.Fatal("Scaled changed rate/mix parameters")
	}
	if s1.FootprintBlocks != 4096 {
		t.Fatalf("scaled footprint = %d", s1.FootprintBlocks)
	}
	wantRatio := float64(p.HotBlocks) / float64(p.FootprintBlocks)
	gotRatio := float64(s1.HotBlocks) / float64(s1.FootprintBlocks)
	if gotRatio < wantRatio*0.5 || gotRatio > wantRatio*2+1e-9 {
		t.Fatalf("hot-set ratio drifted: %.4f vs %.4f", gotRatio, wantRatio)
	}
	// Scaled streams are themselves deterministic per seed.
	g1 := NewGenerator(s1, 13)
	g2 := NewGenerator(s2, 13)
	for i := 0; i < 2000; i++ {
		if g1.Next() != g2.Next() {
			t.Fatalf("request %d of scaled profile differs across identical seeds", i)
		}
	}
}
