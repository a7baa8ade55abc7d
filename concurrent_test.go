package anubis

import (
	"bytes"
	"fmt"
	"reflect"
	"sync"
	"testing"
)

func TestSafeSystemConcurrentAccess(t *testing.T) {
	s, err := NewSafe(Config{Scheme: AGITPlus, MemoryBytes: 1 << 20})
	if err != nil {
		t.Fatal(err)
	}
	const workers = 8
	const opsPerWorker = 200
	var wg sync.WaitGroup
	errs := make(chan error, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			// Each worker owns a disjoint block range, so the final
			// contents are deterministic despite interleaving.
			base := uint64(w) * 512
			for i := 0; i < opsPerWorker; i++ {
				addr := base + uint64(i)%512
				if err := s.WriteBlock(addr, []byte{byte(w), byte(i)}); err != nil {
					errs <- fmt.Errorf("worker %d write: %w", w, err)
					return
				}
				if _, err := s.ReadBlock(addr); err != nil {
					errs <- fmt.Errorf("worker %d read: %w", w, err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	// Every worker's last value per block must verify.
	for w := 0; w < workers; w++ {
		base := uint64(w) * 512
		got, err := s.ReadBlock(base + uint64(opsPerWorker-1)%512)
		if err != nil {
			t.Fatalf("worker %d final read: %v", w, err)
		}
		if got[0] != byte(w) {
			t.Fatalf("worker %d data corrupted", w)
		}
	}
}

func TestSafeSystemCrashRecoverUnderUse(t *testing.T) {
	s, err := NewSafe(Config{Scheme: ASIT, MemoryBytes: 1 << 20})
	if err != nil {
		t.Fatal(err)
	}
	for i := uint64(0); i < 100; i++ {
		if err := s.WriteBlock(i, []byte{byte(i)}); err != nil {
			t.Fatal(err)
		}
	}
	s.Crash()
	if _, err := s.Recover(); err != nil {
		t.Fatal(err)
	}
	rep, err := s.Audit()
	if err != nil || !rep.OK() {
		t.Fatalf("audit: %v %v", err, rep.Violations)
	}
	if s.NumBlocks() == 0 {
		t.Fatal("NumBlocks zero")
	}
	if s.Stats().WriteRequests != 100 {
		t.Fatalf("stats lost: %d", s.Stats().WriteRequests)
	}
}

// TestWriteBlocksMatchesSequential checks the batched write path is a
// pure pass-through: the same writes issued as one WriteBlocks batch
// and as individual WriteBlock calls must leave byte-identical
// persistent state (device digest), the same virtual clock, and the
// same statistics — and ReadBlockInto must agree with ReadBlock.
func TestWriteBlocksMatchesSequential(t *testing.T) {
	for _, scheme := range []Scheme{AGITPlus, ASIT} {
		t.Run(scheme.String(), func(t *testing.T) {
			mkWrites := func(n uint64) []BlockWrite {
				writes := make([]BlockWrite, 0, n)
				for i := uint64(0); i < n; i++ {
					var d [BlockSize]byte
					d[0], d[1] = byte(i), byte(i>>8)
					writes = append(writes, BlockWrite{Block: (i * 97) % 4096, Data: d})
				}
				return writes
			}
			seq, err := NewSafe(Config{Scheme: scheme, MemoryBytes: 1 << 20})
			if err != nil {
				t.Fatal(err)
			}
			bat, err := NewSafe(Config{Scheme: scheme, MemoryBytes: 1 << 20})
			if err != nil {
				t.Fatal(err)
			}
			writes := mkWrites(300)
			for _, w := range writes {
				if err := seq.WriteBlock(w.Block, w.Data[:]); err != nil {
					t.Fatal(err)
				}
			}
			if err := bat.WriteBlocks(writes); err != nil {
				t.Fatal(err)
			}
			if seq.Stats() != bat.Stats() {
				t.Fatalf("stats diverge:\n%+v\n%+v", seq.Stats(), bat.Stats())
			}
			sd := seq.sys.ctrl.Device().StateDigest()
			bd := bat.sys.ctrl.Device().StateDigest()
			if sd != bd {
				t.Fatalf("persistent state diverges: %#x vs %#x", sd, bd)
			}
			// ReadBlockInto agrees with ReadBlock on the batched system.
			for _, w := range writes[:20] {
				var got [BlockSize]byte
				if err := bat.ReadBlockInto(w.Block, &got); err != nil {
					t.Fatal(err)
				}
				want, err := seq.ReadBlock(w.Block)
				if err != nil {
					t.Fatal(err)
				}
				if string(got[:]) != string(want) {
					t.Fatalf("block %d: ReadBlockInto disagrees with ReadBlock", w.Block)
				}
			}
		})
	}
}

// TestSafeSystemForkUnderLoad hammers SafeSystem.Fork while writer
// goroutines are mutating the parent: each fork must observe a
// consistent snapshot (audit-clean, serviceable) and stay fully
// independent of the parent afterwards. This is how anubis-serve forks
// a live tenant while its clients keep writing, and it runs under -race
// in CI via `make race`.
func TestSafeSystemForkUnderLoad(t *testing.T) {
	s, err := NewSafe(Config{Scheme: AGITPlus, MemoryBytes: 1 << 20})
	if err != nil {
		t.Fatal(err)
	}
	const writers = 4
	const forks = 6
	var wg sync.WaitGroup
	errs := make(chan error, writers+forks)
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			base := uint64(w) * 256
			for i := 0; i < 150; i++ {
				if err := s.WriteBlock(base+uint64(i)%256, []byte{byte(w), byte(i)}); err != nil {
					errs <- fmt.Errorf("writer %d: %w", w, err)
					return
				}
			}
		}(w)
	}
	children := make(chan *SafeSystem, forks)
	for f := 0; f < forks; f++ {
		wg.Add(1)
		go func(f int) {
			defer wg.Done()
			child := s.Fork()
			// The child must be serviceable and verify cleanly even
			// though the parent is still being written to.
			if err := child.WriteBlock(4000+uint64(f), []byte{0xCC, byte(f)}); err != nil {
				errs <- fmt.Errorf("fork %d write: %w", f, err)
				return
			}
			rep, err := child.Audit()
			if err != nil || !rep.OK() {
				errs <- fmt.Errorf("fork %d audit: %v %v", f, err, rep.Violations)
				return
			}
			children <- child
		}(f)
	}
	wg.Wait()
	close(errs)
	close(children)
	for err := range errs {
		t.Fatal(err)
	}
	// Child writes never leak into the parent: block 4000+f was written
	// on forks only, so on the parent it must read back as absent (all
	// zero) or a writer value — never the fork's 0xCC marker.
	for f := 0; f < forks; f++ {
		got, err := s.ReadBlock(4000 + uint64(f))
		if err != nil {
			t.Fatalf("parent read after forks: %v", err)
		}
		if got[0] == 0xCC {
			t.Fatalf("fork %d write leaked into parent", f)
		}
	}
	// And each surviving child still audits clean after the parent kept
	// mutating — COW isolation holds in both directions.
	for child := range children {
		rep, err := child.Audit()
		if err != nil || !rep.OK() {
			t.Fatalf("child audit after parent mutation: %v %v", err, rep.Violations)
		}
	}
}

func TestWrapExisting(t *testing.T) {
	sys, err := New(Config{Scheme: Strict, MemoryBytes: 1 << 20})
	if err != nil {
		t.Fatal(err)
	}
	s := Wrap(sys)
	if err := s.WriteRange(100, []byte("wrapped")); err != nil {
		t.Fatal(err)
	}
	got, err := s.ReadRange(100, 7)
	if err != nil || string(got) != "wrapped" {
		t.Fatalf("range through wrapper: %v %q", err, got)
	}
	s.Flush()
}

// TestSafeSystemMethodParity enforces, by reflection, that every
// exported System method has a locked SafeSystem wrapper with the same
// signature (modulo *System -> *SafeSystem in results, so Fork stays
// closed over the wrapper type). Without this gate a method added to
// System — a digest accessor, a tamper hook — silently invites callers
// holding a SafeSystem to reach around the mutex.
func TestSafeSystemMethodParity(t *testing.T) {
	sysT := reflect.TypeOf(&System{})
	safeT := reflect.TypeOf(&SafeSystem{})
	sysPtr := sysT   // *System
	safePtr := safeT // *SafeSystem
	mapType := func(tt reflect.Type) reflect.Type {
		if tt == sysPtr {
			return safePtr
		}
		return tt
	}
	for i := 0; i < sysT.NumMethod(); i++ {
		m := sysT.Method(i)
		sm, ok := safeT.MethodByName(m.Name)
		if !ok {
			t.Errorf("SafeSystem is missing a locked wrapper for System.%s", m.Name)
			continue
		}
		// Compare signatures, skipping the receiver (input 0).
		mt, smt := m.Type, sm.Type
		if mt.NumIn() != smt.NumIn() || mt.NumOut() != smt.NumOut() {
			t.Errorf("SafeSystem.%s: arity %d->%d, want %d->%d",
				m.Name, smt.NumIn()-1, smt.NumOut(), mt.NumIn()-1, mt.NumOut())
			continue
		}
		for j := 1; j < mt.NumIn(); j++ {
			if want, got := mapType(mt.In(j)), smt.In(j); want != got {
				t.Errorf("SafeSystem.%s: param %d is %v, want %v", m.Name, j, got, want)
			}
		}
		for j := 0; j < mt.NumOut(); j++ {
			if want, got := mapType(mt.Out(j)), smt.Out(j); want != got {
				t.Errorf("SafeSystem.%s: result %d is %v, want %v", m.Name, j, got, want)
			}
		}
	}
}

// TestSafeSystemNewAccessors smoke-tests the parity wrappers added with
// the serving layer: back-pressure probes, clock advance, digest, image
// save, and the tamper/replay experiment hooks, all through the lock.
func TestSafeSystemNewAccessors(t *testing.T) {
	s, err := NewSafe(Config{Scheme: AGITPlus, MemoryBytes: 1 << 20})
	if err != nil {
		t.Fatal(err)
	}
	if got, want := s.Scheme(), AGITPlus; got != want {
		t.Fatalf("Scheme = %v, want %v", got, want)
	}
	if got, want := s.Size(), uint64(1<<20); got != want {
		t.Fatalf("Size = %d, want %d", got, want)
	}
	if s.CountersPerBlock() == 0 {
		t.Fatal("CountersPerBlock = 0")
	}
	if b := s.PushBudget(); b <= 0 {
		t.Fatalf("fresh system PushBudget = %d, want > 0", b)
	}
	// A write burst with no intervening reads must consume WPQ budget...
	for i := uint64(0); i < 64; i++ {
		if err := s.WriteBlock(i, []byte{byte(i)}); err != nil {
			t.Fatal(err)
		}
	}
	if s.WPQDrainNS() == 0 {
		t.Fatal("WPQDrainNS = 0 right after a write burst")
	}
	// ...and advancing the clock past the drain point must restore it.
	s.AdvanceClock(s.WPQDrainNS())
	if got, want := s.PushBudget(), s.PushBudget(); got != want {
		t.Fatalf("PushBudget unstable at rest: %d then %d", got, want)
	}
	if s.WPQDrainNS() != 0 {
		t.Fatalf("WPQDrainNS = %d after draining advance, want 0", s.WPQDrainNS())
	}
	d1 := s.StateDigest()
	if err := s.WriteBlock(9, []byte("x")); err != nil {
		t.Fatal(err)
	}
	if d2 := s.StateDigest(); d2 == d1 {
		t.Fatal("StateDigest did not change across a write")
	}
	var img bytes.Buffer
	s.Flush()
	if err := s.SaveImage(&img); err != nil {
		t.Fatal(err)
	}
	if img.Len() == 0 {
		t.Fatal("SaveImage wrote nothing")
	}
	// Tamper/replay hooks operate through the lock and still trip the
	// integrity machinery.
	snap := s.SnapshotCounter(0)
	s.ReplayCounter(0, snap) // same value: harmless
	if !s.TamperData(9, 0, 0xFF) {
		t.Fatal("TamperData: block 9 missing from NVM")
	}
}
