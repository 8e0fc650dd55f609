package paths

import (
	"fmt"
	"sort"
)

// Static routing-and-wavelength-assignment (RWA) is the problem most of
// the paper's related work addresses (Section 1.2): assign each path a
// wavelength so that no two paths sharing a directed link use the same
// one — then all messages can be launched simultaneously and collisions
// never occur. The price is the number of wavelengths, which must be at
// least the edge congestion. The Trial-and-Failure protocol's selling
// point is working with ANY bandwidth B; the RWA helpers here quantify
// the contrast (experiment E13).

// GreedyWavelengthAssignment colors the collection's conflict graph
// (paths adjacent iff they share a directed link) with first-fit greedy
// in order of decreasing path length. It returns one wavelength per path
// and the number of wavelengths used. The result is always conflict-free;
// the count is at most the maximum conflict degree plus one and at least
// the edge congestion.
func (c *Collection) GreedyWavelengthAssignment() (colors []int, used int) {
	n := c.Size()
	colors = make([]int, n)
	for i := range colors {
		colors[i] = -1
	}
	order := make([]int, n)
	for i := range order {
		order[i] = i
	}
	sort.Slice(order, func(a, b int) bool {
		pa, pb := c.Path(order[a]).Len(), c.Path(order[b]).Len()
		if pa != pb {
			return pa > pb
		}
		return order[a] < order[b]
	})
	x := c.Index()
	// taken[col] == i+1 marks col as used by a path conflicting with path i;
	// a path has fewer than n conflicts, so colors stay below n.
	taken := make([]int32, n+1)
	for _, i := range order {
		// Collect colors taken by conflicting, already-colored paths.
		stamp := int32(i + 1)
		for _, id := range x.PathLinks(i) {
			for _, j := range x.Users(id) {
				if int(j) != i && colors[j] >= 0 {
					taken[colors[j]] = stamp
				}
			}
		}
		col := 0
		for taken[col] == stamp {
			col++
		}
		colors[i] = col
		if col+1 > used {
			used = col + 1
		}
	}
	return colors, used
}

// ValidWavelengthAssignment reports whether no two paths sharing a
// directed link have the same color.
func (c *Collection) ValidWavelengthAssignment(colors []int) bool {
	if len(colors) != c.Size() {
		return false
	}
	ok := true
	c.SharePairs(func(i, j int) {
		if colors[i] == colors[j] {
			ok = false
		}
	})
	return ok
}

// ConflictDegree returns, for each path, the number of other paths it
// shares a directed link with (its degree in the conflict graph).
func (c *Collection) ConflictDegree() []int {
	deg := c.PathCongestions()
	out := make([]int, len(deg))
	for i, d := range deg {
		out[i] = d - 1 // PathCongestions counts the path itself
	}
	return out
}

// MaxConflictDegree returns the largest conflict degree.
func (c *Collection) MaxConflictDegree() int {
	max := 0
	for _, d := range c.ConflictDegree() {
		if d > max {
			max = d
		}
	}
	return max
}

// ChainOptimalAssignment computes an OPTIMAL wavelength assignment for a
// collection routed along a chain network (nodes 0..n-1 in a line): paths
// in one direction form an interval graph, so the classic interval-
// partitioning sweep colors them with exactly the edge congestion many
// wavelengths — the optimum (Gerstel & Zaks study such chain layouts).
// Opposite directions use disjoint directed links and share colors.
// It returns an error if some path is not monotone along the chain.
func (c *Collection) ChainOptimalAssignment() (colors []int, used int, err error) {
	n := c.Size()
	colors = make([]int, n)
	type interval struct {
		idx, lo, hi int // occupies links [lo, hi) of its direction
	}
	var fwd, bwd []interval
	for i := 0; i < n; i++ {
		p := c.Path(i)
		increasing := p[1] > p[0]
		for k := 0; k+1 < len(p); k++ {
			step := p[k+1] - p[k]
			if step != 1 && step != -1 {
				return nil, 0, fmt.Errorf("paths: path %d is not a chain path", i)
			}
			if (step == 1) != increasing {
				return nil, 0, fmt.Errorf("paths: path %d is not monotone on the chain", i)
			}
		}
		if increasing {
			fwd = append(fwd, interval{idx: i, lo: p[0], hi: p[len(p)-1]})
		} else {
			bwd = append(bwd, interval{idx: i, lo: p[len(p)-1], hi: p[0]})
		}
	}
	sweep := func(ivs []interval) int {
		sort.Slice(ivs, func(a, b int) bool {
			if ivs[a].lo != ivs[b].lo {
				return ivs[a].lo < ivs[b].lo
			}
			return ivs[a].idx < ivs[b].idx
		})
		// free colors, smallest first; busy: color -> right endpoint.
		type busyEntry struct{ hi, color int }
		var busy []busyEntry
		var free []int
		next := 0
		for _, iv := range ivs {
			// Release colors whose interval ended at or before iv.lo.
			kept := busy[:0]
			for _, b := range busy {
				if b.hi <= iv.lo {
					free = append(free, b.color)
				} else {
					kept = append(kept, b)
				}
			}
			busy = kept
			col := -1
			if len(free) > 0 {
				// Smallest free color for determinism.
				best := 0
				for x := 1; x < len(free); x++ {
					if free[x] < free[best] {
						best = x
					}
				}
				col = free[best]
				free = append(free[:best], free[best+1:]...)
			} else {
				col = next
				next++
			}
			colors[iv.idx] = col
			busy = append(busy, busyEntry{hi: iv.hi, color: col})
		}
		return next
	}
	uf := sweep(fwd)
	ub := sweep(bwd)
	used = uf
	if ub > used {
		used = ub
	}
	return colors, used, nil
}
