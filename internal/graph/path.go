package graph

import (
	"fmt"
	"slices"
)

// Path is a walk through the network given as a node sequence. A path with
// k+1 nodes uses k directed links. The trivial path of a single node has
// zero links. Paths are the unit the routing protocol operates on: one
// worm is sent along each path of a collection.
type Path []NodeID

// Source returns the first node of the path. It panics on an empty path.
func (p Path) Source() NodeID {
	if len(p) == 0 {
		panic("graph: Source of empty path")
	}
	return p[0]
}

// Dest returns the last node of the path. It panics on an empty path.
func (p Path) Dest() NodeID {
	if len(p) == 0 {
		panic("graph: Dest of empty path")
	}
	return p[len(p)-1]
}

// Len returns the number of directed links the path uses.
func (p Path) Len() int {
	if len(p) == 0 {
		return 0
	}
	return len(p) - 1
}

// Route is a path checked against one graph and resolved to its directed
// link IDs. Only AppendRoute and Routes make one, so holding a Route
// proves the check ran; the zero Route is on no graph. A route records
// whether it uses some directed link twice but does not refuse such a
// walk: collections and the congestion code take them, and the simulator
// refuses them (a worm holds a run of distinct links, Section 1.1).
type Route struct {
	g       *Graph
	links   []int32 // capacity == length: appending to Links copies
	revisit bool
}

// On reports whether r was checked against g.
func (r Route) On(g *Graph) bool { return r.g != nil && r.g == g }

// Links returns the route's directed link IDs in path order. Link IDs fit
// an int32 (the adjacency rows store them so). The slice is shared and
// its capacity equals its length; the caller must not modify it.
func (r Route) Links() []int32 { return r.links }

// Len returns the number of links the route uses.
func (r Route) Len() int { return len(r.links) }

// Revisits reports whether the route uses some directed link twice.
func (r Route) Revisits() bool { return r.revisit }

// AppendRoute checks p against g and resolves it: it refuses a path with
// no link, a node out of range, or a hop that is not a link of g. It
// appends the path's links to table and returns the route, which views
// exactly the appended links, and the extended table. The revisit check
// sorts a copy of the links in table's spare capacity past them, so a
// caller that reuses one table checks paths without allocating.
func (g *Graph) AppendRoute(table []int32, p Path) (Route, []int32, error) {
	if len(p) == 0 {
		return Route{}, table, fmt.Errorf("graph: empty path")
	}
	if p[0] < 0 || p[0] >= g.n {
		return Route{}, table, fmt.Errorf("graph: path node %d out of range [0,%d)", p[0], g.n)
	}
	if len(p) == 1 {
		return Route{}, table, fmt.Errorf("graph: zero-length path")
	}
	lo := len(table)
	for j := 0; j+1 < len(p); j++ {
		u, v := p[j], p[j+1]
		if v < 0 || v >= g.n {
			return Route{}, table[:lo], fmt.Errorf("graph: path node %d out of range [0,%d)", v, g.n)
		}
		id, ok := g.LinkBetween(u, v)
		if !ok {
			return Route{}, table[:lo], fmt.Errorf("graph: path step %d: no link %d->%d", j, u, v)
		}
		table = append(table, int32(id))
	}
	hi := len(table)
	sorted := append(table[hi:], table[lo:hi]...)
	slices.Sort(sorted)
	revisit := false
	for k := 1; k < len(sorted) && !revisit; k++ {
		revisit = sorted[k] == sorted[k-1]
	}
	return Route{g: g, links: table[lo:hi:hi], revisit: revisit}, table, nil
}

// Routes checks every path of ps against g in one pass that fills one flat
// link table, and returns their routes in order. The error names the first
// refused path by its index.
func (g *Graph) Routes(ps []Path) ([]Route, error) {
	total, longest := 0, 0
	for _, p := range ps {
		total += p.Len()
		longest = max(longest, p.Len())
	}
	table := make([]int32, 0, total+longest) // longest: room to sort a copy
	routes := make([]Route, len(ps))
	for i, p := range ps {
		var err error
		if routes[i], table, err = g.AppendRoute(table, p); err != nil {
			return nil, fmt.Errorf("path %d: %w", i, err)
		}
	}
	return routes, nil
}

// IsSimple reports whether the path visits no node twice.
func (p Path) IsSimple() bool {
	seen := make(map[NodeID]bool, len(p))
	for _, v := range p {
		if seen[v] {
			return false
		}
		seen[v] = true
	}
	return true
}

// Clone returns an independent copy of the path.
func (p Path) Clone() Path {
	return append(Path(nil), p...)
}

// String renders the path as "0->3->7".
func (p Path) String() string {
	s := ""
	for i, v := range p {
		if i > 0 {
			s += "->"
		}
		s += fmt.Sprintf("%d", v)
	}
	return s
}
