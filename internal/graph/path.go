package graph

import "fmt"

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

// Validate checks that every consecutive node pair is joined by a link of
// g and that the path is non-empty.
func (p Path) Validate(g *Graph) error {
	if len(p) == 0 {
		return fmt.Errorf("graph: empty path")
	}
	for _, u := range p {
		if u < 0 || u >= g.NumNodes() {
			return fmt.Errorf("graph: path node %d out of range [0,%d)", u, g.NumNodes())
		}
	}
	for i := 0; i+1 < len(p); i++ {
		if _, ok := g.LinkBetween(p[i], p[i+1]); !ok {
			return fmt.Errorf("graph: path step %d: no link %d->%d", i, p[i], p[i+1])
		}
	}
	return nil
}

// Links resolves the path to its directed link IDs. It panics if the path
// does not validate against g.
func (p Path) Links(g *Graph) []LinkID {
	ids := make([]LinkID, p.Len())
	for i := 0; i+1 < len(p); i++ {
		id, ok := g.LinkBetween(p[i], p[i+1])
		if !ok {
			panic(fmt.Sprintf("graph: path uses missing link %d->%d", p[i], p[i+1]))
		}
		ids[i] = id
	}
	return ids
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
