//go:build !race

package lowerbound

// raceEnabled reports whether the race detector instruments this build;
// the largest exhaustive case skips under it (instrumentation slows the
// engine about tenfold).
const raceEnabled = false
