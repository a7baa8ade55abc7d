package serve

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"

	"anubis"
)

// TestMultiTenantHammer drives the serving plane the way the acceptance
// scenario does, but in-process and under the race detector: many
// goroutines per tenant doing mixed reads/writes/flushes, one more per
// tenant issuing multi-block write bursts that fill its WPQ, chaos
// tenants being crashed and recovered mid-traffic, fork tenants
// spawning and closing clones — all through the same admission path as
// HTTP.
//
// Two invariants are asserted at the end:
//
//  1. Isolation: two quiescent tenants that take no traffic during the
//     storm keep their exact StateDigest — no cross-tenant bleed from
//     crashes, recoveries, forks, or sheds elsewhere.
//  2. Accounting: the number of ShedErrors observed by clients equals
//     anubis_serve_shed_total in the registry exactly, and the "wpq"
//     sheds among them, of which there is at least one, equal the
//     per-tenant wpq counters. Nothing is shed silently and nothing is
//     double-counted.
func TestMultiTenantHammer(t *testing.T) {
	const (
		chaosTenants = 4 // crash/recover cycles mid-traffic
		forkTenants  = 4 // fork+close clones mid-traffic
		workers      = 3 // mixed-traffic goroutines per tenant
		iters        = 120
		bursts       = 30 // write bursts per tenant
		burstBlocks  = 16
	)
	s := newTestServer(t, Config{
		MaxTenants: chaosTenants + forkTenants + 2 + 2, // head-room for 2 forks
		QueueDepth: 1,                                  // below workers-1, so contention provokes "queue" sheds
	})

	// Quiescent witnesses: written once, untouched during the hammer.
	for _, id := range []string{"quiet-0", "quiet-1"} {
		mustCreate(t, s, id, TenantConfig{Scheme: "asit", MemoryBytes: 1 << 20})
		for b := uint64(0); b < 16; b++ {
			mustWrite(t, s, id, b, []byte(id))
		}
	}
	dq0, err := s.Digest("quiet-0")
	if err != nil {
		t.Fatal(err)
	}
	dq1, err := s.Digest("quiet-1")
	if err != nil {
		t.Fatal(err)
	}

	var ids []string
	for i := 0; i < chaosTenants; i++ {
		ids = append(ids, fmt.Sprintf("chaos-%d", i))
	}
	for i := 0; i < forkTenants; i++ {
		ids = append(ids, fmt.Sprintf("fork-%d", i))
	}
	for _, id := range ids {
		mustCreate(t, s, id, TenantConfig{Scheme: "agit-plus", MemoryBytes: 1 << 20})
	}

	var sheds, wpqSheds atomic.Uint64 // client-observed ShedErrors
	// tolerate records an operation result during the storm. Sheds and
	// crashed-window errors are expected; anything else fails the test.
	tolerate := func(op string, err error) {
		if err == nil {
			return
		}
		var shed *ShedError
		switch {
		case errors.As(err, &shed):
			sheds.Add(1)
			if shed.Reason == "wpq" {
				wpqSheds.Add(1)
			}
		case errors.Is(err, anubis.ErrCrashed):
			// raced with a chaos crash on our own tenant — expected
		case errors.Is(err, ErrTenantExists), errors.Is(err, ErrNoTenant):
			// fork/close raced with a sibling worker — expected
		default:
			t.Errorf("%s: unexpected error %v", op, err)
		}
	}

	var wg sync.WaitGroup
	for ti, id := range ids {
		chaos := ti < chaosTenants
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func(id string, w int, chaos bool) {
				defer wg.Done()
				for i := 0; i < iters; i++ {
					addr := uint64((w*iters + i) % 256)
					switch {
					case chaos && w == 0 && i%40 == 20:
						// The designated chaos worker power-fails its own
						// tenant and brings it back; siblings keep hitting it
						// throughout and must only ever see ErrCrashed.
						tolerate("crash", s.Crash(id))
						_, err := s.Recover(id)
						tolerate("recover", err)
					case !chaos && w == 0 && i%60 == 30:
						child := fmt.Sprintf("%s.clone%d", id, i)
						if err := s.ForkTenant(id, child); err != nil {
							tolerate("fork", err)
						} else if err := s.CloseTenant(child); err != nil {
							tolerate("close", err)
						}
					case i%3 == 0:
						_, err := s.ReadBlock(id, addr)
						tolerate("read", err)
					case i%7 == 0:
						tolerate("flush", s.Flush(id))
					default:
						tolerate("write", s.WriteBlock(id, addr, []byte{byte(i), byte(w)}))
					}
				}
			}(id, w, chaos)
		}
		// The burst writer: each burst is one write admission that can
		// leave the WPQ full, so the next write admitted on the tenant
		// runs the wpq check and its AdvanceClock under the tenant lock
		// while the other workers contend for it.
		wg.Add(1)
		go func(id string) {
			defer wg.Done()
			burst := make([]anubis.BlockWrite, burstBlocks)
			for i := 0; i < bursts; i++ {
				for j := range burst {
					burst[j].Block = uint64((i*burstBlocks + j) % 256)
					burst[j].Data[0] = byte(i)
				}
				tolerate("write_blocks", s.WriteBlocks(id, burst))
			}
		}(id)
	}
	wg.Wait()

	// Settle every chaos tenant (a crash may have landed after the last
	// recover) and audit all hammered tenants clean.
	for _, id := range ids {
		if _, err := s.Recover(id); err != nil {
			tolerate("recover", err)
		}
		rep, err := s.Audit(id)
		tolerate("audit", err)
		if err == nil && !rep.OK() {
			t.Errorf("tenant %s audit violations after hammer: %v", id, rep.Violations)
		}
	}

	// Invariant 1: quiescent tenants are bit-for-bit untouched.
	if d, err := s.Digest("quiet-0"); err != nil || d != dq0 {
		t.Errorf("quiet-0 digest moved during hammer: %#x -> %#x (%v)", dq0, d, err)
	}
	if d, err := s.Digest("quiet-1"); err != nil || d != dq1 {
		t.Errorf("quiet-1 digest moved during hammer: %#x -> %#x (%v)", dq1, d, err)
	}

	// Invariant 2: every shed the clients saw — and none they didn't —
	// is in the registry.
	if got, want := counterValue(s, "anubis_serve_shed_total"), sheds.Load(); got != want {
		t.Errorf("anubis_serve_shed_total = %d, clients observed %d", got, want)
	}
	var wpq uint64
	for _, id := range ids {
		wpq += counterValue(s, fmt.Sprintf(`anubis_serve_tenant_shed_total{tenant=%q,reason="wpq"}`, id))
	}
	if wpq != wpqSheds.Load() {
		t.Errorf("wpq shed counters sum to %d, clients observed %d", wpq, wpqSheds.Load())
	}
	if wpq == 0 {
		t.Error("the hammer never shed a write on a full WPQ")
	}
	t.Logf("%d sheds, %d of them wpq", sheds.Load(), wpq)
}
