//go:build !race

package paths

// raceEnabled reports whether the race detector instruments this build;
// memory tests skip under it (instrumentation inflates the heap).
const raceEnabled = false
