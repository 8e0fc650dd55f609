package sim

import "fmt"

// agenda is a time-bucketed schedule: bucket t holds the items due at
// absolute step t. Buckets are recycled across runs (lengths reset,
// capacity kept), so insertion is O(1) with no hashing and the only scan
// is an O(gap) forward walk while the engine idles. The engine keeps
// three: the spawn calendar (fragments whose train starts at t) and, for
// dynamic runs, the arrival and ack-deadline agendas (request indices).
type agenda[T any] struct {
	buckets [][]T
	pending int
}

// calendar is the engine's spawn agenda.
type calendar = agenda[*fragment]

// reset empties every bucket, keeping capacity for reuse. A run that
// drained has taken every item out already, so only an aborted run's
// leftovers cost a pass over the buckets: an engine that once ran a long
// schedule pays nothing for it on later short runs.
//
//optlint:hotpath
func (c *agenda[T]) reset() {
	if c.pending == 0 {
		return
	}
	for i := range c.buckets {
		c.buckets[i] = c.buckets[i][:0]
	}
	c.pending = 0
}

// add schedules x at step t >= 0.
//
//optlint:hotpath
func (c *agenda[T]) add(t int, x T) {
	for len(c.buckets) <= t {
		c.buckets = append(c.buckets, nil)
	}
	c.buckets[t] = append(c.buckets[t], x)
	c.pending++
}

// takeInto appends the items due at step t to dst, in insertion order,
// empties the bucket, and returns the extended slice.
//
//optlint:hotpath
func (c *agenda[T]) takeInto(t int, dst []T) []T {
	if t < 0 || t >= len(c.buckets) || len(c.buckets[t]) == 0 {
		return dst
	}
	fs := c.buckets[t]
	dst = append(dst, fs...)
	c.pending -= len(fs)
	c.buckets[t] = fs[:0]
	return dst
}

// due reports whether anything is scheduled at step t.
//
//optlint:hotpath
func (c *agenda[T]) due(t int) bool {
	return t >= 0 && t < len(c.buckets) && len(c.buckets[t]) > 0
}

// next returns the smallest scheduled step >= t, scanning forward from t.
//
//optlint:hotpath
func (c *agenda[T]) next(t int) (int, bool) {
	if c.pending == 0 {
		return 0, false
	}
	for s := max(t, 0); s < len(c.buckets); s++ {
		if len(c.buckets[s]) > 0 {
			return s, true
		}
	}
	return 0, false
}

// nextSpawnTime returns the smallest scheduled step >= t, or t itself when
// nothing is pending. Pending items with no step >= t mean the agenda is
// corrupted: the run would otherwise spin silently until the MaxSteps bug
// guard fired with a misleading message, so that state is reported as a
// distinct internal-inconsistency error immediately.
func (c *agenda[T]) nextSpawnTime(t int) (int, error) {
	if c.pending == 0 {
		return t, nil
	}
	if s, ok := c.next(t); ok {
		return s, nil
	}
	return 0, fmt.Errorf("sim: internal inconsistency: %d pending spawn(s) but none scheduled at or after step %d", c.pending, t)
}
