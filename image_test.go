package anubis

import (
	"bytes"
	"errors"
	"testing"
)

// TestSaveOpenImageCleanShutdown saves a flushed image under every
// scheme name and reopens it: recoverable schemes must reattach, audit
// clean and read every block back; the three without recovery must
// refuse with ErrNotRecoverable.
func TestSaveOpenImageCleanShutdown(t *testing.T) {
	for _, name := range SchemeNames() {
		t.Run(name, func(t *testing.T) {
			scheme, tree, err := ParseScheme(name)
			if err != nil {
				t.Fatal(err)
			}
			cfg := Config{Scheme: scheme, Tree: tree, MemoryBytes: 1 << 20}
			sys, err := New(cfg)
			if err != nil {
				t.Fatal(err)
			}
			wantPer := uint64(64)
			if tree == SGXTree {
				wantPer = 8
			}
			if got := sys.CountersPerBlock(); got != wantPer {
				t.Fatalf("CountersPerBlock = %d, want %d", got, wantPer)
			}
			for i := uint64(0); i < 200; i++ {
				if err := sys.WriteBlock(i*11%sys.NumBlocks(), []byte{byte(i), 0xCD}); err != nil {
					t.Fatal(err)
				}
			}
			sys.Flush()
			var buf bytes.Buffer
			if err := sys.SaveImage(&buf); err != nil {
				t.Fatal(err)
			}

			sys2, rep, err := OpenImage(cfg, &buf)
			switch name {
			case "writeback", "writeback-sgx", "osiris-sgx":
				if !errors.Is(err, ErrNotRecoverable) {
					t.Fatalf("OpenImage: err = %v, want ErrNotRecoverable", err)
				}
				return
			}
			if err != nil {
				t.Fatal(err)
			}
			if rep.CountersFixed != 0 {
				t.Fatalf("clean image fixed %d counters", rep.CountersFixed)
			}
			if got := sys2.CountersPerBlock(); got != wantPer {
				t.Fatalf("reopened CountersPerBlock = %d, want %d", got, wantPer)
			}
			if audit, err := sys2.Audit(); err != nil || !audit.OK() {
				t.Fatalf("audit after reopen: %v %v", err, audit.Violations)
			}
			for i := uint64(0); i < 200; i++ {
				got, err := sys2.ReadBlock(i * 11 % sys2.NumBlocks())
				if err != nil {
					t.Fatalf("block %d: %v", i, err)
				}
				if got[1] != 0xCD {
					t.Fatalf("block %d corrupted across image", i)
				}
			}
		})
	}
}

func TestSaveOpenImageDirtyCrash(t *testing.T) {
	// Saving after a crash (no flush) captures the realistic power-loss
	// image: recovery on the loaded side must repair it.
	cfg := Config{Scheme: ASIT, MemoryBytes: 1 << 20,
		MetaCacheBytes: 4096}
	sys, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	want := map[uint64]byte{}
	for i := uint64(0); i < 300; i++ {
		addr := i * 7 % sys.NumBlocks()
		if err := sys.WriteBlock(addr, []byte{byte(i)}); err != nil {
			t.Fatal(err)
		}
		want[addr] = byte(i)
	}
	sys.Crash()
	var buf bytes.Buffer
	if err := sys.SaveImage(&buf); err != nil {
		t.Fatal(err)
	}
	sys2, rep, err := OpenImage(cfg, &buf)
	if err != nil {
		t.Fatal(err)
	}
	if rep.EntriesScanned == 0 {
		t.Fatal("dirty image recovered without scanning shadow entries")
	}
	for addr, b := range want {
		got, err := sys2.ReadBlock(addr)
		if err != nil || got[0] != b {
			t.Fatalf("block %d after dirty image: %v", addr, err)
		}
	}
}

func TestAuditPublicAPI(t *testing.T) {
	sys, err := New(Config{Scheme: Strict, MemoryBytes: 1 << 20})
	if err != nil {
		t.Fatal(err)
	}
	for i := uint64(0); i < 100; i++ {
		sys.WriteBlock(i, []byte{byte(i)})
	}
	rep, err := sys.Audit()
	if err != nil {
		t.Fatal(err)
	}
	if !rep.OK() || rep.DataBlocks != 100 {
		t.Fatalf("clean audit: ok=%v data=%d violations=%v", rep.OK(), rep.DataBlocks, rep.Violations)
	}
	sys.TamperData(5, 0, 0xFF)
	rep, err = sys.Audit()
	if err != nil {
		t.Fatal(err)
	}
	if rep.OK() {
		t.Fatal("audit missed tampering")
	}
}

func TestOpenImageGarbage(t *testing.T) {
	if _, _, err := OpenImage(Config{Scheme: AGITPlus, MemoryBytes: 1 << 20},
		bytes.NewReader([]byte("junk"))); err == nil {
		t.Fatal("garbage accepted")
	}
}
