// Package wear implements Start-Gap wear leveling (Qureshi et al.,
// ISCA 2009), the standard PCM technique for spreading writes across
// physical lines so that a hot logical block cannot burn out one cell.
//
// N logical blocks map onto N+1 physical lines; one line — the gap —
// is always unused. Every ψ writes the gap moves down by one line (the
// line above it is copied into it), and when it reaches line 0 it wraps
// to line N while the start offset advances, slowly rotating the whole
// logical-to-physical mapping. Over N·ψ writes every block has visited
// every line.
//
// The controller integrates this under the data region: the mapping
// state (start, gap, write countdown) lives in an on-chip persistent
// register and each gap move is made durable before the register
// advances, so the mapping is always consistent across a crash.
package wear

import (
	"encoding/binary"
	"fmt"
)

// StartGap holds the wear-leveling state for n logical blocks over n+1
// physical lines.
type StartGap struct {
	n      uint64 // logical blocks
	start  uint64 // rotation offset, in [0, n)
	gap    uint64 // unused physical line, in [0, n]
	period uint64 // writes between gap movements (ψ)
	count  uint64 // writes since the last movement
}

// New creates a StartGap for n logical blocks with gap-movement period
// ψ. It panics for n == 0 or period == 0.
func New(n, period uint64) *StartGap {
	if n == 0 || period == 0 {
		panic("wear: need at least one block and a positive period")
	}
	return &StartGap{n: n, gap: n, period: period}
}

// Map translates a logical block index to its physical line.
func (sg *StartGap) Map(logical uint64) uint64 {
	if logical >= sg.n {
		panic(fmt.Sprintf("wear: logical block %d out of range (%d)", logical, sg.n))
	}
	f := logical + sg.start
	if f >= sg.n {
		f -= sg.n
	}
	if f >= sg.gap {
		return f + 1
	}
	return f
}

// Move describes one gap movement: the content of physical line Src
// must be copied to physical line Dst (made durable) before Commit is
// applied to the mapping state.
type Move struct {
	Src, Dst uint64
}

// RecordWrite counts one data write and reports whether the gap should
// move now. If so, the caller must perform the returned Move's copy
// durably and then call Commit.
func (sg *StartGap) RecordWrite() (Move, bool) {
	sg.count++
	if sg.count < sg.period {
		return Move{}, false
	}
	return sg.PendingMove(), true
}

// PendingMove returns the move the next Commit will apply.
func (sg *StartGap) PendingMove() Move {
	if sg.gap == 0 {
		// Wrap: the line at physical N moves to the old gap at 0, the
		// gap re-opens at N, and the rotation advances by one.
		return Move{Src: sg.n, Dst: 0}
	}
	return Move{Src: sg.gap - 1, Dst: sg.gap}
}

// Commit applies the pending gap movement to the mapping state. Call it
// only after the Move's copy has reached the persistence domain.
func (sg *StartGap) Commit() {
	if sg.gap == 0 {
		sg.gap = sg.n
		sg.start++
		if sg.start >= sg.n {
			sg.start = 0
		}
	} else {
		sg.gap--
	}
	sg.count = 0
}

// Clone returns an independent copy of the mapping state.
func (sg *StartGap) Clone() *StartGap {
	n := *sg
	return &n
}

// Pack serializes the state to 32 bytes for an on-chip register.
func (sg *StartGap) Pack() [32]byte {
	var b [32]byte
	binary.LittleEndian.PutUint64(b[0:8], sg.n)
	binary.LittleEndian.PutUint64(b[8:16], sg.start)
	binary.LittleEndian.PutUint64(b[16:24], sg.gap)
	binary.LittleEndian.PutUint64(b[24:32], sg.count)
	return b
}

// Unpack restores a StartGap from a packed register value. The period
// is configuration, not state, so it is supplied by the caller.
func Unpack(b [32]byte, period uint64) (*StartGap, error) {
	sg := &StartGap{
		n:      binary.LittleEndian.Uint64(b[0:8]),
		start:  binary.LittleEndian.Uint64(b[8:16]),
		gap:    binary.LittleEndian.Uint64(b[16:24]),
		count:  binary.LittleEndian.Uint64(b[24:32]),
		period: period,
	}
	if sg.n == 0 || period == 0 {
		return nil, fmt.Errorf("wear: invalid packed state")
	}
	if sg.start >= sg.n || sg.gap > sg.n {
		return nil, fmt.Errorf("wear: corrupt packed state (start=%d gap=%d n=%d)", sg.start, sg.gap, sg.n)
	}
	return sg, nil
}
