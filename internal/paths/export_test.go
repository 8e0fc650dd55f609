package paths

import "repro/internal/graph"

// NeighborRows lists each node's neighbors in link-ID order, the order of
// the node's adjacency row.
func NeighborRows(g *graph.Graph) [][]graph.NodeID {
	rows := make([][]graph.NodeID, g.NumNodes())
	for id := 0; id < g.NumLinks(); id++ {
		l := g.Link(id)
		rows[l.From] = append(rows[l.From], l.To)
	}
	return rows
}

// CongestionsBothWays returns the per-path congestions computed by each of
// the two exact methods, whichever the collection would pick.
func CongestionsBothWays(c *Collection) (stamps, bitsets []int) {
	x := c.Index()
	return x.congestionsByStamps(), x.congestionsByBits()
}
