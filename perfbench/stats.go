package main

import (
	"math"
	"sort"
	"time"
)

// samples is a list of durations or other measurements in seconds.
type samples []float64

// add appends one duration, in seconds.
func (s *samples) add(d time.Duration) { *s = append(*s, d.Seconds()) }

// quantile returns the q-quantile (0 <= q <= 1) by linear interpolation
// between closest ranks, NaN for an empty list. The input is not
// modified.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	frac := pos - float64(lo)
	return s[lo] + (s[hi]-s[lo])*frac
}

// median is quantile(xs, 0.5).
func median(xs []float64) float64 { return quantile(xs, 0.5) }

// beyond returns how many of n samples lie above the q-quantile. A tail
// percentile is reported only when at least minBeyond samples lie beyond
// it.
func beyond(n int, q float64) int {
	return n - int(math.Ceil(q*float64(n)))
}

// minBeyond is the number of samples a reported percentile needs above
// it.
const minBeyond = 10

// sum adds the values.
func sum(xs []float64) float64 {
	t := 0.0
	for _, x := range xs {
		t += x
	}
	return t
}

// spread is the distance between the first and third quartiles as a
// share of the median, the run-to-run steadiness figure the bounds in
// BENCHMARK.json are judged against.
func spread(xs []float64) float64 {
	m := median(xs)
	if m == 0 || len(xs) < 2 {
		return 0
	}
	return (quantile(xs, 0.75) - quantile(xs, 0.25)) / m
}

// another reports whether a run measuring for window since start should
// start one more batch: the first always runs, and a later one only if a
// batch as long as the last one ends within the window. A window then
// holds a whole number of batches, which keeps the count steady when one
// batch is nearly as long as the window.
func another(start time.Time, window time.Duration, done samples) bool {
	if len(done) == 0 {
		return true
	}
	last := time.Duration(done[len(done)-1] * float64(time.Second))
	return time.Since(start)+last <= window
}
