package paths

import (
	"fmt"

	"repro/internal/graph"
	"repro/internal/rng"
)

// PathLinks returns the directed link IDs of path i, read from its route.
// The caller must not modify the result.
func (c *Collection) PathLinks(i int) []int32 { return c.routes[i].Links() }

// checkPath runs the route check on p with a fresh table.
func checkPath(g *graph.Graph, p graph.Path) error {
	_, _, err := g.AppendRoute(nil, p)
	return err
}

// PathCongestions returns, for every path p, the number of paths sharing a
// directed link with p (including p itself). The slice is computed once and
// shared by every caller: it is read-only.
func (c *Collection) PathCongestions() []int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.congestionLocked()
}

// LinkUsers returns the indices of paths using the given directed link, in
// ascending order, as a fresh slice. Hot loops should read Index instead.
func (c *Collection) LinkUsers(id graph.LinkID) []int {
	us := c.Index().Users(id)
	if len(us) == 0 {
		return nil
	}
	out := make([]int, len(us))
	for k, j := range us {
		out[k] = int(j)
	}
	return out
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

// RandomShortestPath returns a selector that picks, per request, a
// uniformly random shortest path by randomized backtracking over the BFS
// distance field. Collections remain short-cut free (shortest paths) while
// spreading load more evenly than deterministic tie-breaking.
func RandomShortestPath(g *graph.Graph, src *rng.Source) Selector {
	rows := NeighborRows(g)
	return func(s, d graph.NodeID) graph.Path {
		distToD := g.BFS(d)
		if distToD[s] < 0 {
			panic(fmt.Sprintf("paths: no path %d->%d", s, d))
		}
		p := graph.Path{s}
		cur := s
		for cur != d {
			var choices []graph.NodeID
			for _, v := range rows[cur] {
				if distToD[v] == distToD[cur]-1 {
					choices = append(choices, v)
				}
			}
			cur = choices[src.Intn(len(choices))]
			p = append(p, cur)
		}
		return p
	}
}

// EdgeLoadStats estimates, by Monte-Carlo over random functions, the mean
// and maximum expected load a selector places on a directed link. The
// path system of [27] behind Theorem 1.5 has expected load at most the
// diameter D on every link under a random function; use this to check a
// selector empirically.
func EdgeLoadStats(g *graph.Graph, sel Selector, trials int, src *rng.Source) (meanLoad, maxLoad float64) {
	if trials < 1 {
		trials = 1
	}
	n := g.NumNodes()
	counts := make([]float64, g.NumLinks())
	for t := 0; t < trials; t++ {
		for s := 0; s < n; s++ {
			d := src.Intn(n)
			if d == s {
				continue
			}
			r, _, err := g.AppendRoute(nil, sel(s, d))
			if err != nil {
				panic(err)
			}
			for _, id := range r.Links() {
				counts[id]++
			}
		}
	}
	total := 0.0
	for _, c := range counts {
		load := c / float64(trials)
		total += load
		if load > maxLoad {
			maxLoad = load
		}
	}
	meanLoad = total / float64(len(counts))
	return meanLoad, maxLoad
}
