package paths

import "sort"

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
			for _, j := range x.Users(int(id)) {
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
