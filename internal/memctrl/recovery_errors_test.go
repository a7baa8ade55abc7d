package memctrl

import (
	"encoding/binary"
	"errors"
	"fmt"
	"testing"

	"anubis/internal/nvm"
)

// Satellite: the two controller families must report unrecoverable
// schemes identically — always *wrapped* sentinels with context, so
// errors.Is works the same way for both and callers can log the reason.

func TestNotRecoverableWrappedUniformly(t *testing.T) {
	mk := []struct {
		name string
		ctor func() (Controller, error)
	}{
		{"bonsai/write-back", func() (Controller, error) { return NewBonsai(TestConfig(SchemeWriteBack)) }},
		{"sgx/write-back", func() (Controller, error) { return NewSGX(TestConfig(SchemeWriteBack)) }},
		{"sgx/osiris", func() (Controller, error) { return NewSGX(TestConfig(SchemeOsiris)) }},
	}
	for _, tc := range mk {
		t.Run(tc.name, func(t *testing.T) {
			c, err := tc.ctor()
			if err != nil {
				t.Fatal(err)
			}
			for i := uint64(0); i < 50; i++ {
				if err := c.WriteBlock(i%c.NumBlocks(), pattern(i)); err != nil {
					t.Fatal(err)
				}
			}
			c.Crash()
			_, rerr := c.Recover()
			if !errors.Is(rerr, ErrNotRecoverable) {
				t.Fatalf("Recover = %v, want errors.Is(ErrNotRecoverable)", rerr)
			}
			if rerr == ErrNotRecoverable { //nolint:errorlint // asserting wrapping, not identity
				t.Fatal("Recover returned the bare sentinel; want a wrapped error with context")
			}
			if errors.Is(rerr, ErrUnrecoverable) {
				t.Fatalf("Recover = %v matches ErrUnrecoverable too; sentinels must be distinct", rerr)
			}
		})
	}
}

func TestRecoveryErrorsWrapUnrecoverable(t *testing.T) {
	// A corrupt SCT key beyond the counter region must surface as a
	// typed ErrUnrecoverable — not a panic inside the wear-leveling map
	// or Geometry.Unflat.
	t.Run("bonsai/agit-corrupt-sct-key", func(t *testing.T) {
		b := newBonsai(t, SchemeAGITRead)
		for i := uint64(0); i < 200; i++ {
			if err := b.WriteBlock(i*13%b.NumBlocks(), pattern(i)); err != nil {
				t.Fatal(err)
			}
		}
		b.Crash()
		var blk [BlockBytes]byte
		binary.LittleEndian.PutUint64(blk[:8], 1<<40) // key+1 encoding: a huge bogus page
		b.Device().WriteRaw(nvm.RegionSCT, 0, blk)
		_, err := b.Recover()
		if !errors.Is(err, ErrUnrecoverable) {
			t.Fatalf("Recover with corrupt SCT key = %v, want ErrUnrecoverable", err)
		}
	})
	t.Run("bonsai/agit-corrupt-smt-key", func(t *testing.T) {
		b := newBonsai(t, SchemeAGITPlus)
		for i := uint64(0); i < 200; i++ {
			if err := b.WriteBlock(i*13%b.NumBlocks(), pattern(i)); err != nil {
				t.Fatal(err)
			}
		}
		b.Crash()
		var blk [BlockBytes]byte
		binary.LittleEndian.PutUint64(blk[:8], 1<<40)
		b.Device().WriteRaw(nvm.RegionSMT, 0, blk)
		_, err := b.Recover()
		if !errors.Is(err, ErrUnrecoverable) {
			t.Fatalf("Recover with corrupt SMT key = %v, want ErrUnrecoverable", err)
		}
	})
	// Unknown schemes fail typed in both families.
	t.Run("unknown-scheme", func(t *testing.T) {
		b := newBonsai(t, SchemeStrict)
		b.cfg.Scheme = Scheme(99)
		b.Crash()
		if _, err := b.Recover(); !errors.Is(err, ErrUnrecoverable) {
			t.Fatalf("bonsai unknown scheme: Recover = %v, want ErrUnrecoverable", err)
		}
		c := newSGX(t, SchemeStrict)
		c.cfg.Scheme = Scheme(99)
		c.Crash()
		if _, err := c.Recover(); !errors.Is(err, ErrUnrecoverable) {
			t.Fatalf("sgx unknown scheme: Recover = %v, want ErrUnrecoverable", err)
		}
	})
}

func TestIntegrityErrorAs(t *testing.T) {
	// Post-recovery verification failures are *IntegrityError: callers
	// (the fuzzer's differential oracle) distinguish "typed verification
	// failure" from silent corruption with errors.As.
	b := newBonsai(t, SchemeStrict)
	if err := b.WriteBlock(7, pattern(7)); err != nil {
		t.Fatal(err)
	}
	b.FlushCaches()
	b.Device().CorruptBlock(nvm.RegionData, 7, 3, 0xff)
	_, err := b.ReadBlock(7)
	var ie *IntegrityError
	if !errors.As(err, &ie) {
		t.Fatalf("ReadBlock on corrupt data = %v, want *IntegrityError", err)
	}
	if ie.Addr != 7 || ie.What == "" {
		t.Fatalf("IntegrityError lacks context: %+v", ie)
	}
	// Wrapping an IntegrityError keeps errors.As working.
	wrapped := fmt.Errorf("oracle: %w", err)
	if !errors.As(wrapped, &ie) {
		t.Fatal("errors.As failed through a wrapping layer")
	}
}
