package cache

import "sync/atomic"

// Shared is a slice that clones share copy-on-write under an atomic
// holder count: a Cache's line array, and the shadow package's SCT,
// SMT and ST mirrors of it.
//
//   - Clone costs one count increment: the clone and its source hold
//     the same slice.
//   - Own readies the slice for a write. A holder whose partners have
//     all let go takes the slice over; any other holder copies it.
//   - Drop — a crash — lets go of a shared slice and clears one held
//     alone in place. Fill and Reset later allocate a fresh slice, so
//     a fork that is crashed and rebuilt never copies its parent's.
//
// Each holder is used by one goroutine at a time, but holders of one
// slice may run on different goroutines: only the count is shared
// mutable state, and a copy is always made before its holder lets go,
// so the last holder never writes a slice a partner is still reading.
type Shared[T any] struct {
	s       []T           // nil after a shared Drop, until Fill or Reset
	holders *atomic.Int32 // when non-nil, counts the holders of s
}

// Get returns the slice for reading: nil after a shared Drop.
func (c *Shared[T]) Get() []T { return c.s }

// Clone returns a holder that shares c's slice.
func (c *Shared[T]) Clone() Shared[T] {
	if c.s != nil {
		if c.holders == nil {
			c.holders = new(atomic.Int32)
			c.holders.Store(1)
		}
		c.holders.Add(1)
	}
	return *c
}

// Own readies the slice for a write and returns it: held alone, taken
// over when every partner has let go, copied otherwise.
func (c *Shared[T]) Own() []T {
	if h := c.holders; h != nil {
		c.holders = nil
		if h.Load() > 1 {
			c.s = append([]T(nil), c.s...)
			h.Add(-1)
		}
	}
	return c.s
}

// Drop empties the slice: a shared one is let go, one held alone is
// cleared in place.
func (c *Shared[T]) Drop() {
	if h := c.holders; h != nil {
		c.holders = nil
		if h.Load() > 1 {
			c.s = nil
			h.Add(-1)
			return
		}
	}
	clear(c.s)
}

// Fill readies a slice of n elements for a write, keeping its
// contents: allocated if dropped, otherwise owned (see Own).
func (c *Shared[T]) Fill(n int) []T {
	if c.s == nil {
		c.s = make([]T, n)
	}
	return c.Own()
}

// Reset readies n zero elements held alone, without copying a shared
// slice.
func (c *Shared[T]) Reset(n int) []T {
	c.Drop()
	if c.s == nil {
		c.s = make([]T, n)
	}
	return c.s
}
