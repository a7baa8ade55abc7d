package trace

import (
	"fmt"
	"sync"
)

// Shared trace arenas.
//
// A figure sweep evaluates many (scheme, cache-size, …) cells against
// the *same* request stream: streams are deterministic per (profile,
// seed), so every cell used to pay for re-running the Generator's rng
// chain from scratch. An Arena materializes the stream once into an
// immutable request slice shared read-only across all cells — and
// across goroutines of a parallel sweep — while Cursors give each cell
// an independent, allocation-free read position. Crash/recovery trials
// forked from a warm controller resume consumption mid-stream with
// SourceAt, which is what makes a forked trial consume byte-identical
// requests to a cold-started one.

// PayloadBytes is the size of one write payload — the simulator's
// block size (64-byte cache lines throughout the repo).
const PayloadBytes = 64

// Arena is an immutable, materialized request stream for one
// (profile, seed) pair. Safe for concurrent use: nothing mutates it
// after construction (the payload table is built under a Once).
type Arena struct {
	profile Profile
	reqs    []Request

	payOnce sync.Once
	pay     [][PayloadBytes]byte
}

// NewArena materializes the first n requests of the deterministic
// stream for (p, seed). The result is identical to what n calls of
// NewGenerator(p, seed).Next() would produce.
func NewArena(p Profile, seed int64, n int) *Arena {
	return &Arena{profile: p, reqs: NewGenerator(p, seed).Generate(n)}
}

// Len returns the number of materialized requests.
func (a *Arena) Len() int { return len(a.reqs) }

// Requests exposes the materialized stream. Callers must treat the
// slice as read-only; it is shared across every cursor and goroutine.
func (a *Arena) Requests() []Request { return a.reqs }

// Payloads returns the table of canonical write payloads for runs that
// consume this arena from position zero: entry i holds
// fill(·, reqs[i].Block, i) for write requests (read entries stay
// zero). Payload content is a pure function of (block, position), so a
// sweep's many cells replaying one stream share one generation instead
// of regenerating per cell. Built once per arena; every caller must
// pass the same canonical fill function (sim.FillBlock), which makes
// the table a cache, never a source of divergent content. Callers must
// treat the table as read-only — entries are shared across cells and
// goroutines.
func (a *Arena) Payloads(fill func(dst *[PayloadBytes]byte, block, n uint64)) [][PayloadBytes]byte {
	a.payOnce.Do(func() {
		pay := make([][PayloadBytes]byte, len(a.reqs))
		for i := range a.reqs {
			if a.reqs[i].Op == OpWrite {
				fill(&pay[i], a.reqs[i].Block, uint64(i))
			}
		}
		a.pay = pay
	})
	return a.pay
}

// Source returns a fresh cursor at the start of the stream.
func (a *Arena) Source() *Cursor { return a.SourceAt(0) }

// SourceAt returns a cursor positioned at request pos — the resume
// point for a trial forked from a controller that already consumed the
// first pos requests.
func (a *Arena) SourceAt(pos int) *Cursor {
	if pos < 0 || pos > len(a.reqs) {
		panic(fmt.Sprintf("trace: cursor position %d outside arena of %d requests", pos, len(a.reqs)))
	}
	return &Cursor{a: a, pos: pos}
}

// Cursor is an independent read position into an Arena, implementing
// Source. Next is two loads and an increment: no rng, no allocation.
// Each cursor belongs to one goroutine; distinct cursors over the same
// arena may advance concurrently.
type Cursor struct {
	a   *Arena
	pos int
}

// Name identifies the workload.
func (c *Cursor) Name() string { return c.a.profile.Name }

// Payloads exposes the arena's shared payload table (see
// Arena.Payloads). Only a consumer reading the cursor from position
// zero may index the table by its own request counter; a mid-stream
// cursor's per-run payload positions do not line up with the table.
func (c *Cursor) Payloads(fill func(dst *[PayloadBytes]byte, block, n uint64)) [][PayloadBytes]byte {
	return c.a.Payloads(fill)
}

// Pos returns the number of requests consumed so far.
func (c *Cursor) Pos() int { return c.pos }

// Next returns the next materialized request. Running past the arena's
// end is a harness sizing bug and panics rather than silently looping
// or fabricating requests.
func (c *Cursor) Next() Request {
	if c.pos >= len(c.a.reqs) {
		panic(fmt.Sprintf("trace: cursor exhausted arena %q (%d requests); size the arena to the sweep's maximum consumption", c.a.profile.Name, len(c.a.reqs)))
	}
	r := c.a.reqs[c.pos]
	c.pos++
	return r
}

// ArenaCache interns arenas by (profile, seed) so every cell of a
// sweep — across goroutines — shares one materialization. Safe for
// concurrent use.
type ArenaCache struct {
	mu sync.Mutex
	m  map[arenaKey]*Arena
}

type arenaKey struct {
	p    Profile
	seed int64
}

// NewArenaCache returns an empty cache.
func NewArenaCache() *ArenaCache {
	return &ArenaCache{m: make(map[arenaKey]*Arena)}
}

// Get returns the arena for (p, seed) holding at least n requests,
// materializing or enlarging it as needed. Enlarging replaces the
// cached arena with a longer one regenerated from the seed — streams
// are deterministic, so the longer arena's prefix is byte-identical to
// the old one, and arenas already handed out stay valid (they are
// immutable) while new callers see the longer version.
func (c *ArenaCache) Get(p Profile, seed int64, n int) *Arena {
	k := arenaKey{p: p, seed: seed}
	c.mu.Lock()
	defer c.mu.Unlock()
	if a, ok := c.m[k]; ok && a.Len() >= n {
		return a
	}
	a := NewArena(p, seed, n)
	c.m[k] = a
	return a
}
