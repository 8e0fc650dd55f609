package topology

import (
	"fmt"

	"repro/internal/graph"
)

// Dim returns the cube dimension k.
func (c *CCC) Dim() int { return c.dim }

// Node returns the router at cube address w, cycle position i.
func (c *CCC) Node(w, i int) graph.NodeID {
	if w < 0 || w >= 1<<c.dim || i < 0 || i >= c.dim {
		panic(fmt.Sprintf("topology: CCC node (%d,%d) out of range", w, i))
	}
	return c.nodeAt(w, i)
}

// Levels returns the number of distinct levels (k+1 plain, k wrapped).
func (b *Butterfly) Levels() int {
	if b.wrapped {
		return b.dim
	}
	return b.dim + 1
}

// Node returns the butterfly node at (level, row). It panics on
// out-of-range input.
func (b *Butterfly) Node(level, row int) graph.NodeID {
	if level < 0 || level >= b.Levels() || row < 0 || row >= b.rows {
		panic(fmt.Sprintf("topology: butterfly node (%d,%d) out of range", level, row))
	}
	return b.nodeAt(level, row)
}

// Side returns the side length.
func (m *Mesh) Side() int { return m.side }

// K returns the symbol count k.
func (s *StarGraph) K() int { return s.k }

// Perm returns the permutation labelling node u. The caller must not
// modify it.
func (s *StarGraph) Perm(u graph.NodeID) []int { return s.perms[u] }

// NodeOf returns the node labelled by the given permutation.
func (s *StarGraph) NodeOf(p []int) graph.NodeID {
	id, ok := s.index[permKey(p)]
	if !ok {
		panic(fmt.Sprintf("topology: %v is not a permutation of [0,%d)", p, s.k))
	}
	return id
}

// neighborRows lists each node's neighbors in link-ID order, the order of
// the node's adjacency row.
func neighborRows(g *graph.Graph) [][]graph.NodeID {
	rows := make([][]graph.NodeID, g.NumNodes())
	for id := 0; id < g.NumLinks(); id++ {
		l := g.Link(id)
		rows[l.From] = append(rows[l.From], l.To)
	}
	return rows
}

// hasEdge reports whether u and v are joined by an edge.
func hasEdge(g *graph.Graph, u, v graph.NodeID) bool {
	_, ok := g.LinkBetween(u, v)
	return ok
}
