package wear

import (
	"testing"
	"testing/quick"
)

func TestMapBijective(t *testing.T) {
	sg := New(100, 5)
	for moves := 0; moves < 350; moves++ {
		seen := map[uint64]bool{}
		for l := uint64(0); l < sg.n; l++ {
			p := sg.Map(l)
			if p >= sg.n+1 {
				t.Fatalf("move %d: physical %d out of range", moves, p)
			}
			if p == sg.gap {
				t.Fatalf("move %d: logical %d mapped onto the gap", moves, l)
			}
			if seen[p] {
				t.Fatalf("move %d: physical %d mapped twice", moves, p)
			}
			seen[p] = true
		}
		sg.Commit() // force a movement regardless of period
	}
}

// TestContentsPreservedAcrossMoves simulates the physical medium: after
// every gap movement (copy Src->Dst), each logical block must still map
// to a line holding its content.
func TestContentsPreservedAcrossMoves(t *testing.T) {
	sg := New(50, 1)
	phys := make([]uint64, sg.n+1)
	const empty = ^uint64(0)
	for i := range phys {
		phys[i] = empty
	}
	// Install initial contents: block l holds value l.
	for l := uint64(0); l < sg.n; l++ {
		phys[sg.Map(l)] = l
	}
	for step := 0; step < 500; step++ {
		mv, due := sg.RecordWrite()
		if !due {
			continue
		}
		phys[mv.Dst] = phys[mv.Src] // durable copy
		sg.Commit()
		for l := uint64(0); l < sg.n; l++ {
			if got := phys[sg.Map(l)]; got != l {
				t.Fatalf("step %d: logical %d reads %d", step, l, got)
			}
		}
	}
	// The mapping must actually have rotated.
	if sg.start == 0 && sg.gap == sg.n {
		t.Fatal("no rotation after 500 writes with period 1")
	}
}

func TestPeriodGatesMovement(t *testing.T) {
	sg := New(10, 4)
	moves := 0
	for i := 0; i < 40; i++ {
		if _, due := sg.RecordWrite(); due {
			sg.Commit()
			moves++
		}
	}
	if moves != 10 {
		t.Fatalf("moves = %d, want 10 (40 writes / period 4)", moves)
	}
}

func TestWrapMove(t *testing.T) {
	sg := New(4, 1)
	// Drive the gap from 4 down to 0, then the wrap.
	for i := 0; i < 4; i++ {
		mv := sg.PendingMove()
		if mv.Dst != sg.gap || mv.Src != sg.gap-1 {
			t.Fatalf("move %d: %+v with gap %d", i, mv, sg.gap)
		}
		sg.Commit()
	}
	if sg.gap != 0 {
		t.Fatalf("gap = %d, want 0", sg.gap)
	}
	mv := sg.PendingMove()
	if mv.Src != sg.n || mv.Dst != 0 {
		t.Fatalf("wrap move = %+v, want {%d 0}", mv, sg.n)
	}
	sg.Commit()
	if sg.gap != sg.n || sg.start != 1 {
		t.Fatalf("after wrap: gap=%d start=%d", sg.gap, sg.start)
	}
}

func TestStartWraps(t *testing.T) {
	sg := New(3, 1)
	// (N+1) moves per full rotation; N rotations wrap start back to 0.
	for i := uint64(0); i < 3*4; i++ {
		sg.Commit()
	}
	if sg.start != 0 {
		t.Fatalf("start = %d after full cycle, want 0", sg.start)
	}
}

func TestPackUnpackRoundTrip(t *testing.T) {
	f := func(steps uint8) bool {
		sg := New(37, 3)
		for i := 0; i < int(steps); i++ {
			if _, due := sg.RecordWrite(); due {
				sg.Commit()
			}
		}
		got, err := Unpack(sg.Pack(), 3)
		if err != nil {
			return false
		}
		for l := uint64(0); l < 37; l++ {
			if got.Map(l) != sg.Map(l) {
				return false
			}
		}
		return got.gap == sg.gap && got.start == sg.start
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestUnpackRejectsCorruptState(t *testing.T) {
	var zero [32]byte
	if _, err := Unpack(zero, 5); err == nil {
		t.Fatal("zero state accepted")
	}
	sg := New(10, 5)
	b := sg.Pack()
	b[8] = 200 // start >= n
	if _, err := Unpack(b, 5); err == nil {
		t.Fatal("corrupt start accepted")
	}
	b = sg.Pack()
	if _, err := Unpack(b, 0); err == nil {
		t.Fatal("zero period accepted")
	}
}

func TestNewPanics(t *testing.T) {
	for _, c := range [][2]uint64{{0, 5}, {5, 0}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatal("expected panic")
				}
			}()
			New(c[0], c[1])
		}()
	}
}

func TestMapPanicsOutOfRange(t *testing.T) {
	sg := New(4, 1)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	sg.Map(4)
}

// TestWearSpreading: with leveling, hammering one logical block touches
// many physical lines over time.
func TestWearSpreading(t *testing.T) {
	sg := New(16, 1)
	touched := map[uint64]bool{}
	for i := 0; i < 16*17*2; i++ {
		touched[sg.Map(5)] = true
		if mv, due := sg.RecordWrite(); due {
			_ = mv
			sg.Commit()
		}
	}
	if len(touched) != int(sg.n+1) {
		t.Fatalf("hot block touched %d/%d lines over two full rotations",
			len(touched), sg.n+1)
	}
}

func BenchmarkMap(b *testing.B) {
	sg := New(1<<20, 100)
	for i := 0; i < b.N; i++ {
		sg.Map(uint64(i) & (1<<20 - 1))
	}
}
