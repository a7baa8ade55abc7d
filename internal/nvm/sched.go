package nvm

import "fmt"

// WPQ occupancy.
//
// The original model kept WPQ completion times in an unsorted slice:
// pruning and the WPQ-full stall were linear scans, and every read
// issued in drain-watermark mode copied the slice and full-sorted it
// to find the completion time at which the queue falls back below the
// watermark. Completion times are monotone in practice (time never
// runs backwards and the earliest-free port is always picked), so a
// sorted ring buffer gives O(1) push/prune/min, O(1) watermark
// queries, and zero allocations — with an O(occupancy) insertion-sort
// fallback (occupancy ≤ WPQEntries) that keeps the model correct even
// for callers that move time backwards.

// wpqRing is a sorted ring of pending-write completion times. It is a
// fixed array, so the zero value is an empty ring and assignment copies
// it.
type wpqRing struct {
	buf  [WPQEntries]uint64
	head int
	size int
}

func (q *wpqRing) pos(i int) int {
	p := q.head + i
	if p >= WPQEntries {
		p -= WPQEntries
	}
	return p
}

// kth returns the k-th earliest (0-based) completion time still
// queued. Asking for an occupancy index at or beyond the queue length
// is an impossible-excess invariant violation: excess = size -
// DrainWatermark ≤ size - 1. The previous implementation silently
// clamped to the maximum; now it panics.
func (q *wpqRing) kth(k int) uint64 {
	if k < 0 || k >= q.size {
		panic(fmt.Sprintf("nvm: WPQ watermark query for completion %d of %d queued writes", k, q.size))
	}
	return q.buf[q.pos(k)]
}

// min returns the earliest queued completion time.
func (q *wpqRing) min() uint64 { return q.kth(0) }

// push inserts a completion time, keeping the ring sorted. The common
// case (t sorts at the tail) is O(1).
func (q *wpqRing) push(t uint64) {
	if q.size == WPQEntries {
		panic("nvm: WPQ ring overflow (push without a free slot)")
	}
	i := q.size
	for i > 0 && q.buf[q.pos(i-1)] > t {
		i--
	}
	for j := q.size; j > i; j-- {
		q.buf[q.pos(j)] = q.buf[q.pos(j-1)]
	}
	q.buf[q.pos(i)] = t
	q.size++
}

// prune drops completions at or before now (the write has drained and
// freed its WPQ slot).
func (q *wpqRing) prune(now uint64) {
	for q.size > 0 && q.buf[q.head] <= now {
		q.head++
		if q.head == WPQEntries {
			q.head = 0
		}
		q.size--
	}
}

// occupancyAt counts entries whose completion time is after now — the
// writes that would still hold WPQ slots at that instant. Non-mutating
// (prune is the mutating form), so admission-control probes can sample
// occupancy without perturbing the timing model.
func (q *wpqRing) occupancyAt(now uint64) int {
	for i := 0; i < q.size; i++ {
		if q.buf[q.pos(i)] > now {
			return q.size - i
		}
	}
	return 0
}

// latest returns the completion time of the last queued write (0 when
// the ring is empty).
func (q *wpqRing) latest() uint64 {
	if q.size == 0 {
		return 0
	}
	return q.buf[q.pos(q.size-1)]
}
