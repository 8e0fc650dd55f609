package paths

import "repro/internal/graph"

// LevelAssignment attempts to assign a level to every node used by the
// collection such that every directed link of every path leads from a node
// at level i to one at level i+1 (the paper's definition of a leveled path
// collection). It returns the assignment (levels for unused nodes are 0)
// and whether one exists. Levels within each connected component of the
// constraint graph are shifted so their minimum is 0.
func (c *Collection) LevelAssignment() (levels []int, ok bool) {
	g := c.g
	n := g.NumNodes()
	levels = make([]int, n)
	assigned := make([]bool, n)

	// Constraint adjacency: for each link u->v used by some path,
	// level(v) = level(u)+1. Build from the collection's links only.
	x := c.Index()
	type constraint struct {
		to    graph.NodeID
		delta int
	}
	// Visit the used links in ascending ID order, so the BFS below is
	// deterministic by construction (the levels are forced either way).
	adj := make(map[graph.NodeID][]constraint)
	for id := 0; id < g.NumLinks(); id++ {
		if len(x.Users(id)) == 0 {
			continue
		}
		l := g.Link(id)
		adj[l.From] = append(adj[l.From], constraint{to: l.To, delta: 1})
		adj[l.To] = append(adj[l.To], constraint{to: l.From, delta: -1})
	}

	for s := 0; s < n; s++ {
		start := graph.NodeID(s)
		if _, ok := adj[start]; !ok {
			continue
		}
		if assigned[start] {
			continue
		}
		// BFS the constraint component with relative levels.
		assigned[start] = true
		levels[start] = 0
		comp := []graph.NodeID{start}
		queue := []graph.NodeID{start}
		for len(queue) > 0 {
			u := queue[0]
			queue = queue[1:]
			for _, cs := range adj[u] {
				want := levels[u] + cs.delta
				if !assigned[cs.to] {
					assigned[cs.to] = true
					levels[cs.to] = want
					comp = append(comp, cs.to)
					queue = append(queue, cs.to)
				} else if levels[cs.to] != want {
					return nil, false
				}
			}
		}
		// Shift the component to non-negative levels starting at 0.
		min := levels[comp[0]]
		for _, u := range comp {
			if levels[u] < min {
				min = levels[u]
			}
		}
		for _, u := range comp {
			levels[u] -= min
		}
	}
	return levels, true
}

// IsLeveled reports whether the collection admits a level assignment.
func (c *Collection) IsLeveled() bool {
	_, ok := c.LevelAssignment()
	return ok
}

// IsShortCutFree checks the paper's exact definition: no subpath of a path
// is short-cut by a subpath of another path in the collection. Formally,
// for any two paths p and q (including p = q at distinct positions) and
// nodes u, v visited in that order by both, the traversed lengths must be
// equal — a strictly shorter q-subpath would short-cut p's.
//
// The check visits only pairs of paths that share a node, but is quadratic
// in the number of common-node occurrences of a pair; use it on the
// moderate collections of the experiments, not on huge ones.
func (c *Collection) IsShortCutFree() bool {
	// Node -> list of (path index, position) occurrences.
	type occ struct{ path, pos int }
	occs := make(map[graph.NodeID][]occ)
	for i, p := range c.paths {
		for pos, u := range p {
			occs[u] = append(occs[u], occ{path: i, pos: pos})
		}
	}
	// Candidate path pairs: those sharing at least one node.
	type pair struct{ a, b int }
	cand := make(map[pair]bool)
	//optlint:allow mapiter order-independent candidate-set build
	for _, os := range occs {
		for x := 0; x < len(os); x++ {
			for y := 0; y < len(os); y++ {
				if x == y {
					continue
				}
				cand[pair{os[x].path, os[y].path}] = true
			}
		}
	}
	// Self pairs for non-simple paths can self-short-cut.
	for i, p := range c.paths {
		if !p.IsSimple() {
			cand[pair{i, i}] = true
		}
	}
	//optlint:allow mapiter pure conjunctive predicate: result independent of visit order
	for pr := range cand {
		if !shortcutFreePair(c.paths[pr.a], c.paths[pr.b], pr.a == pr.b) {
			return false
		}
	}
	return true
}

// shortcutFreePair reports whether no subpath of p is short-cut by a
// subpath of q. When self is true, p and q are the same path and identical
// subpaths are skipped.
func shortcutFreePair(p, q graph.Path, self bool) bool {
	// Positions of each node in q.
	posQ := make(map[graph.NodeID][]int)
	for j, u := range q {
		posQ[u] = append(posQ[u], j)
	}
	// For every ordered pair of positions (i1 < i2) in p whose nodes both
	// occur in q in the same order, compare lengths.
	for i1 := 0; i1 < len(p); i1++ {
		q1s, ok := posQ[p[i1]]
		if !ok {
			continue
		}
		for i2 := i1 + 1; i2 < len(p); i2++ {
			q2s, ok := posQ[p[i2]]
			if !ok {
				continue
			}
			lenP := i2 - i1
			for _, j1 := range q1s {
				for _, j2 := range q2s {
					if j2 <= j1 {
						continue
					}
					if self && j1 == i1 && j2 == i2 {
						continue
					}
					if j2-j1 < lenP {
						return false
					}
				}
			}
		}
	}
	return true
}
