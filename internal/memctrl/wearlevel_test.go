package memctrl

import (
	"encoding/binary"
	"math/rand"
	"testing"

	"anubis/internal/nvm"
)

func wearBonsai(t *testing.T, scheme Scheme, period int) *Bonsai {
	t.Helper()
	cfg := TestConfig(scheme)
	cfg.WearPeriod = period
	b, err := NewBonsai(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

func TestWearLevelRoundTrip(t *testing.T) {
	b := wearBonsai(t, SchemeWriteBack, 3)
	for i := uint64(0); i < 300; i++ {
		if err := b.WriteBlock(i%40, pattern(i)); err != nil {
			t.Fatal(err)
		}
	}
	// Latest values must be readable through the rotated mapping.
	for i := uint64(260); i < 300; i++ {
		got, err := b.ReadBlock(i % 40)
		if err != nil {
			t.Fatalf("read %d: %v", i%40, err)
		}
		if got != pattern(i) {
			t.Fatalf("block %d corrupted under wear leveling", i%40)
		}
	}
}

func TestWearLevelSpreadsHotBlock(t *testing.T) {
	// Hammer one logical block through several full gap rotations (a
	// rotation takes (N+1)·ψ writes): without leveling one physical line
	// takes all the wear; with leveling it spreads across the lines.
	mk := func(period int) *Bonsai {
		cfg := TestConfig(SchemeWriteBack)
		cfg.MemoryBytes = 4096 // one page: 64 blocks, 65 physical lines
		cfg.WearPeriod = period
		b, err := NewBonsai(cfg)
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	plain := mk(0)
	leveled := mk(1)
	const writes = 2000
	for i := uint64(0); i < writes; i++ {
		plain.WriteBlock(0, pattern(i))
		leveled.WriteBlock(0, pattern(i))
	}
	_, pw := plain.Device().MaxWear(nvm.RegionData)
	_, lw := leveled.Device().MaxWear(nvm.RegionData)
	if pw < writes { // >= writes: page overflows add re-encryption writes
		t.Fatalf("unleveled hot wear = %d, want >= %d", pw, writes)
	}
	if lw >= pw/4 {
		t.Fatalf("leveled hot wear = %d, not well below %d", lw, pw)
	}
	got, err := leveled.ReadBlock(0)
	if err != nil || got != pattern(writes-1) {
		t.Fatalf("hot block corrupted: %v", err)
	}
}

func TestWearLevelSurvivesCrash(t *testing.T) {
	for _, s := range []Scheme{SchemeStrict, SchemeAGITPlus} {
		t.Run(s.String(), func(t *testing.T) {
			b := wearBonsai(t, s, 2)
			rng := rand.New(rand.NewSource(3))
			expect := map[uint64][BlockBytes]byte{}
			for round := 0; round < 4; round++ {
				for i := 0; i < 150; i++ {
					addr := uint64(rng.Intn(int(b.NumBlocks())))
					d := pattern(uint64(round)<<16 | uint64(i))
					if err := b.WriteBlock(addr, d); err != nil {
						t.Fatal(err)
					}
					expect[addr] = d
				}
				b.Crash()
				if _, err := b.Recover(); err != nil {
					t.Fatalf("round %d: %v", round, err)
				}
				for addr, want := range expect {
					got, err := b.ReadBlock(addr)
					if err != nil || got != want {
						t.Fatalf("round %d block %d: %v", round, addr, err)
					}
				}
			}
		})
	}
}

func TestWearLevelSGXASIT(t *testing.T) {
	cfg := TestConfig(SchemeASIT)
	cfg.WearPeriod = 3
	c, err := NewSGX(cfg)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(8))
	expect := map[uint64][BlockBytes]byte{}
	for round := 0; round < 3; round++ {
		for i := 0; i < 200; i++ {
			addr := uint64(rng.Intn(int(c.NumBlocks())))
			d := pattern(uint64(round)<<20 | uint64(i))
			if err := c.WriteBlock(addr, d); err != nil {
				t.Fatal(err)
			}
			expect[addr] = d
		}
		c.Crash()
		if _, err := c.Recover(); err != nil {
			t.Fatalf("round %d: %v", round, err)
		}
		for addr, want := range expect {
			got, err := c.ReadBlock(addr)
			if err != nil || got != want {
				t.Fatalf("round %d block %d: %v", round, addr, err)
			}
		}
	}
}

func TestWearLevelWithPhaseRecovery(t *testing.T) {
	cfg := TestConfig(SchemeAGITPlus)
	cfg.WearPeriod = 2
	cfg.Recovery = RecoveryPhase
	b, err := NewBonsai(cfg)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(13))
	expect := map[uint64][BlockBytes]byte{}
	tortureRound(t, b, rng, expect, 300, false)
	tortureRound(t, b, rng, expect, 300, false)
}

func TestWearLevelGapMovesHappen(t *testing.T) {
	b := wearBonsai(t, SchemeWriteBack, 1) // move on every write
	for i := uint64(0); i < 50; i++ {
		b.WriteBlock(i, pattern(i))
	}
	// The packed state's words are n, start, gap and the write count.
	p := b.wl.sg.Pack()
	n, start, gap := binary.LittleEndian.Uint64(p[0:]), binary.LittleEndian.Uint64(p[8:]), binary.LittleEndian.Uint64(p[16:])
	if gap == n && start == 0 {
		t.Fatal("gap never moved with period 1")
	}
}

func TestWearLevelPageOverflow(t *testing.T) {
	// Page re-encryption must route through the same mapping.
	cfg := TestConfig(SchemeOsiris)
	cfg.WearPeriod = 5
	b, err := NewBonsai(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for lane := uint64(1); lane < 4; lane++ {
		b.WriteBlock(lane, pattern(lane))
	}
	for i := 0; i <= 130; i++ {
		if err := b.WriteBlock(0, pattern(uint64(i))); err != nil {
			t.Fatal(err)
		}
	}
	if b.Stats().PageOverflows == 0 {
		t.Fatal("overflow not triggered")
	}
	for lane := uint64(1); lane < 4; lane++ {
		got, err := b.ReadBlock(lane)
		if err != nil || got != pattern(lane) {
			t.Fatalf("lane %d after overflow: %v", lane, err)
		}
	}
}

func TestWearLevelerDisabledIsIdentity(t *testing.T) {
	var w *wearLeveler
	if w.phys(42) != 42 {
		t.Fatal("nil leveler must be identity")
	}
	if w.recordWrite(7) != 7 {
		t.Fatal("nil leveler must not advance time")
	}
}
