package merkle

import (
	"testing"
	"testing/quick"

	"anubis/internal/cryptoeng"
)

func TestGeometrySmall(t *testing.T) {
	g := NewGeometry(64) // 64 leaves -> 8 nodes -> 1 root
	if g.Levels() != 2 {
		t.Fatalf("levels = %d, want 2", g.Levels())
	}
	if g.NodesAt(0) != 8 || g.NodesAt(1) != 1 {
		t.Fatalf("level sizes = %d,%d", g.NodesAt(0), g.NodesAt(1))
	}
	if g.TotalNodes() != 9 {
		t.Fatalf("total = %d, want 9", g.TotalNodes())
	}
	if g.RootLevel() != 1 {
		t.Fatalf("root level = %d", g.RootLevel())
	}
}

func TestGeometrySingleLevel(t *testing.T) {
	g := NewGeometry(5) // fewer than 8 leaves: one root node
	if g.Levels() != 1 || g.NodesAt(0) != 1 {
		t.Fatalf("levels=%d nodes=%d", g.Levels(), g.NodesAt(0))
	}
	first, n := g.ChildrenOf(0, 0)
	if first != 0 || n != 5 {
		t.Fatalf("children = (%d,%d), want (0,5)", first, n)
	}
}

func TestGeometryNonPowerOfArity(t *testing.T) {
	g := NewGeometry(100) // 100 -> 13 -> 2 -> 1
	want := []uint64{13, 2, 1}
	if g.Levels() != len(want) {
		t.Fatalf("levels = %d, want %d", g.Levels(), len(want))
	}
	for l, w := range want {
		if g.NodesAt(l) != w {
			t.Fatalf("level %d = %d nodes, want %d", l, g.NodesAt(l), w)
		}
	}
	// Last node of level 0 has 100-96=4 children.
	first, n := g.ChildrenOf(0, 12)
	if first != 96 || n != 4 {
		t.Fatalf("ragged children = (%d,%d), want (96,4)", first, n)
	}
}

func TestFlatUnflatRoundTrip(t *testing.T) {
	g := NewGeometry(1000)
	for l := 0; l < g.Levels(); l++ {
		for _, i := range []uint64{0, g.NodesAt(l) - 1, g.NodesAt(l) / 2} {
			flat := g.Flat(l, i)
			gl, gi := g.Unflat(flat)
			if gl != l || gi != i {
				t.Fatalf("Unflat(Flat(%d,%d)) = (%d,%d)", l, i, gl, gi)
			}
		}
	}
}

func TestFlatIndicesAreDense(t *testing.T) {
	g := NewGeometry(77)
	seen := map[uint64]bool{}
	for l := 0; l < g.Levels(); l++ {
		for i := uint64(0); i < g.NodesAt(l); i++ {
			f := g.Flat(l, i)
			if seen[f] {
				t.Fatalf("flat index %d reused", f)
			}
			seen[f] = true
		}
	}
	if uint64(len(seen)) != g.TotalNodes() {
		t.Fatalf("dense check: %d vs %d", len(seen), g.TotalNodes())
	}
	for f := uint64(0); f < g.TotalNodes(); f++ {
		if !seen[f] {
			t.Fatalf("flat index %d unused", f)
		}
	}
}

func TestParentChildConsistency(t *testing.T) {
	g := NewGeometry(512)
	for l := 0; l < g.RootLevel(); l++ {
		for i := uint64(0); i < g.NodesAt(l); i++ {
			pl, pi, slot := g.Parent(l, i)
			first, n := g.ChildrenOf(pl, pi)
			if first+uint64(slot) != i || slot >= n {
				t.Fatalf("parent/child mismatch at (%d,%d)", l, i)
			}
		}
	}
}

func TestLeafParent(t *testing.T) {
	g := NewGeometry(100)
	for leaf := uint64(0); leaf < 100; leaf++ {
		node, slot := g.LeafParent(leaf)
		if node != leaf/8 || slot != int(leaf%8) {
			t.Fatalf("LeafParent(%d) = (%d,%d)", leaf, node, slot)
		}
	}
}

func TestRootHasNoParent(t *testing.T) {
	g := NewGeometry(64)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	g.Parent(g.RootLevel(), 0)
}

func TestZeroLeavesPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	NewGeometry(0)
}

func TestGeometryDepthGrowsLogarithmically(t *testing.T) {
	// 16GB memory: 4M counter blocks -> ceil(log8(4M)) = 8 levels.
	g := NewGeometry(4 * 1024 * 1024)
	if g.Levels() != 8 {
		t.Fatalf("16GB tree levels = %d, want 8", g.Levels())
	}
}

func TestQuickGeometryInvariants(t *testing.T) {
	f := func(seed uint32) bool {
		leaves := uint64(seed%100000 + 1)
		g := NewGeometry(leaves)
		// Top level has one node; each level is ceil(prev/8).
		if g.NodesAt(g.RootLevel()) != 1 {
			return false
		}
		prev := leaves
		for l := 0; l < g.Levels(); l++ {
			want := (prev + Arity - 1) / Arity
			if g.NodesAt(l) != want {
				return false
			}
			prev = want
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestGNodeCodec(t *testing.T) {
	var n GNode
	for s := 0; s < 8; s++ {
		n.SetHash(s, uint64(s)*0x0101010101010101)
	}
	for s := 0; s < 8; s++ {
		if n.Hash(s) != uint64(s)*0x0101010101010101 {
			t.Fatalf("slot %d round trip failed", s)
		}
	}
}

func TestNodeAddrDomainSeparation(t *testing.T) {
	// Tree node addresses must never collide with counter block indices
	// (level tag 0) or with each other across levels.
	if NodeAddr(0, 5) == 5 {
		t.Fatal("level-0 node address collides with counter address")
	}
	if NodeAddr(0, 5) == NodeAddr(1, 5) {
		t.Fatal("addresses collide across levels")
	}
}

func TestBuildGeneralDeterministicRoot(t *testing.T) {
	eng := cryptoeng.NewTestEngine()
	g := NewGeometry(64)
	leaf := func(i uint64) (b [BlockBytes]byte) {
		b[0] = byte(i)
		return b
	}
	nodes1 := map[uint64]GNode{}
	root1 := BuildGeneral(g, eng, leaf, func(f uint64, n GNode) { nodes1[f] = n }, nil)
	nodes2 := map[uint64]GNode{}
	root2 := BuildGeneral(g, eng, leaf, func(f uint64, n GNode) { nodes2[f] = n }, nil)
	if root1 != root2 {
		t.Fatal("BuildGeneral not deterministic")
	}
	if uint64(len(nodes1)) != g.TotalNodes() {
		t.Fatalf("stored %d nodes, want %d", len(nodes1), g.TotalNodes())
	}
}

func TestBuildGeneralRootBindsLeaves(t *testing.T) {
	eng := cryptoeng.NewTestEngine()
	g := NewGeometry(64)
	leafA := func(i uint64) (b [BlockBytes]byte) { b[0] = byte(i); return b }
	leafB := func(i uint64) (b [BlockBytes]byte) {
		b[0] = byte(i)
		if i == 37 {
			b[1] = 1 // single-bit change in one leaf
		}
		return b
	}
	rootA := BuildGeneral(g, eng, leafA, func(uint64, GNode) {}, nil)
	rootB := BuildGeneral(g, eng, leafB, func(uint64, GNode) {}, nil)
	if rootA == rootB {
		t.Fatal("root does not bind leaf contents")
	}
}

func TestBuildGeneralOpCount(t *testing.T) {
	eng := cryptoeng.NewTestEngine()
	g := NewGeometry(64)
	var ops uint64
	BuildGeneral(g, eng, func(uint64) [BlockBytes]byte { return [BlockBytes]byte{} },
		func(uint64, GNode) {}, &ops)
	// 64 leaf hashes + 8 level-0 node hashes + 1 root-node hash = 73.
	if ops != 73 {
		t.Fatalf("ops = %d, want 73", ops)
	}
}

// TestBuildGeneralAllocs pins BuildGeneral's allocations to one slice
// per level plus one leaf scratch, independent of the leaf count: the
// hashed blocks must not escape to the heap one by one through the
// Hasher interface (an Osiris rebuild at 32 MiB hashes ~9,400 blocks).
func TestBuildGeneralAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race runtime allocates on instrumented accesses; counts are not meaningful")
	}
	eng := cryptoeng.NewTestEngine()
	g := NewGeometry(4096)
	leaf := func(i uint64) (blk [BlockBytes]byte) { blk[0] = byte(i); return blk }
	allocs := testing.AllocsPerRun(10, func() {
		BuildGeneral(g, eng, leaf, func(uint64, GNode) {}, nil)
	})
	if want := float64(g.Levels() + 1); allocs > want {
		t.Fatalf("BuildGeneral: %.0f allocs per build, want at most %.0f", allocs, want)
	}
}

func BenchmarkBuildGeneral4K(b *testing.B) {
	eng := cryptoeng.NewTestEngine()
	g := NewGeometry(4096)
	leaf := func(i uint64) (blk [BlockBytes]byte) { blk[0] = byte(i); return blk }
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		BuildGeneral(g, eng, leaf, func(uint64, GNode) {}, nil)
	}
}
