//go:build race

package paths

// raceEnabled reports whether the race detector instruments this build.
const raceEnabled = true
