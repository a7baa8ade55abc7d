//go:build !race

package nvm

// raceEnabled reports whether the race detector is compiled in. The
// race runtime instruments every memory access with extra allocations,
// so the zero-allocation guarantees of the paged store cannot be
// asserted there.
const raceEnabled = false
