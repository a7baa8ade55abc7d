//go:build !race

package sim

// raceEnabled reports whether the race detector is compiled in. The
// race runtime allocates on instrumented accesses, so steady-state
// zero-allocation assertions are only meaningful without it.
const raceEnabled = false
