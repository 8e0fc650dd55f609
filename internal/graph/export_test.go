package graph

// Row returns u's adjacency row as (neighbor, link) pairs, in the order
// LinkBetween scans it.
func Row(g *Graph, u NodeID) [][2]int {
	row := make([][2]int, len(g.adj[u]))
	for i, a := range g.adj[u] {
		row[i] = [2]int{int(a.to), int(a.id)}
	}
	return row
}
