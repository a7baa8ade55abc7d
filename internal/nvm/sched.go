package nvm

import "fmt"

// WPQ occupancy and write-port scheduling.
//
// The original model kept WPQ completion times in an unsorted slice:
// pruning and the WPQ-full stall were linear scans, and every read
// issued in drain-watermark mode copied the slice and full-sorted it
// to find the completion time at which the queue falls back below the
// watermark. Completion times are monotone in practice (time never
// runs backwards and the earliest-free port is always picked), so a
// sorted ring buffer gives O(1) push/prune/min, O(1) watermark
// queries, and zero allocations — with an O(occupancy) insertion-sort
// fallback (occupancy ≤ WPQEntries, typically 32) that keeps the model
// correct even for callers that move time backwards.

// wpqRing is a sorted ring of pending-write completion times.
type wpqRing struct {
	buf  []uint64
	head int
	size int
}

func newWPQRing(entries int) wpqRing {
	return wpqRing{buf: make([]uint64, entries)}
}

func (q *wpqRing) pos(i int) int {
	p := q.head + i
	if p >= len(q.buf) {
		p -= len(q.buf)
	}
	return p
}

// kth returns the k-th earliest (0-based) completion time still
// queued. Asking for an occupancy index at or beyond the queue length
// is an impossible-excess invariant violation: with a positive
// watermark wm, excess = len - wm ≤ len - 1. The previous
// implementation silently clamped to the maximum; now it panics.
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
	if q.size == len(q.buf) {
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
		if q.head == len(q.buf) {
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

// reset empties the ring (power cycle).
func (q *wpqRing) reset() {
	q.head, q.size = 0, 0
}

// clone returns an independent copy with identical contents and order.
func (q *wpqRing) clone() wpqRing {
	return wpqRing{buf: append([]uint64(nil), q.buf...), head: q.head, size: q.size}
}

// --- write-port earliest-free tracking ---------------------------------------

// portHeap tracks the next-free time of each PCM write port as a
// binary min-heap ordered by (freeTime, port index), replacing the
// per-push linear scan. The only mutation pattern is "take the
// earliest-free port, occupy it until done": a replace-min + sift-down,
// O(log ports). The lexicographic tie-break reproduces the old scan's
// lowest-index-wins choice exactly.
type portHeap struct {
	free []uint64
	port []int
}

func newPortHeap(n int) portHeap {
	h := portHeap{free: make([]uint64, n), port: make([]int, n)}
	for i := range h.port {
		h.port[i] = i
	}
	return h
}

func (h *portHeap) less(i, j int) bool {
	return h.free[i] < h.free[j] ||
		(h.free[i] == h.free[j] && h.port[i] < h.port[j])
}

// minFree returns the earliest next-free time across ports.
func (h *portHeap) minFree() uint64 { return h.free[0] }

// occupyMin assigns the earliest-free port a new busy-until time.
func (h *portHeap) occupyMin(done uint64) {
	h.free[0] = done
	i := 0
	for {
		l, r := 2*i+1, 2*i+2
		m := i
		if l < len(h.free) && h.less(l, m) {
			m = l
		}
		if r < len(h.free) && h.less(r, m) {
			m = r
		}
		if m == i {
			return
		}
		h.free[i], h.free[m] = h.free[m], h.free[i]
		h.port[i], h.port[m] = h.port[m], h.port[i]
		i = m
	}
}

// clone returns an independent copy with identical heap layout, so a
// forked device schedules exactly the same ports as its parent would.
func (h *portHeap) clone() portHeap {
	return portHeap{
		free: append([]uint64(nil), h.free...),
		port: append([]int(nil), h.port...),
	}
}

// reset returns every port to free-at-zero (power cycle).
func (h *portHeap) reset() {
	for i := range h.free {
		h.free[i] = 0
		h.port[i] = i
	}
}
