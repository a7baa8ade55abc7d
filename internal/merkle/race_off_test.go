//go:build !race

package merkle

// raceEnabled reports whether the race detector is compiled in; the
// race runtime allocates on instrumented accesses, so allocation
// counts are only meaningful without it.
const raceEnabled = false
