// Package graph provides the network model underlying the all-optical
// routing simulator: an undirected graph of routers in which every
// undirected edge consists of two directed optical links, one per
// direction, exactly as in Section 1.1 of Flammini & Scheideler (SPAA'97).
//
// Nodes are dense integers [0, N). Every undirected edge {u, v} yields two
// Links with distinct LinkIDs; the simulator's conflict domain is a
// (LinkID, wavelength, time step) triple, so the directed view is the one
// the rest of the system works with.
package graph

import (
	"fmt"
	"io"
)

// NodeID identifies a router. Nodes are dense integers in [0, NumNodes).
type NodeID = int

// LinkID identifies one directed optical link. For the k-th undirected
// edge a Builder keeps, the links u->v and v->u receive IDs 2k and 2k+1;
// Reverse flips between them.
type LinkID = int

// Link is one directed optical link.
type Link struct {
	From, To NodeID
}

// adjEntry pairs a neighbor with the connecting link ID so the hot
// LinkBetween scan reads one small contiguous array per node instead of
// bouncing through the global links table for every candidate. int32
// coordinates keep a whole degree-4 row inside half a cache line.
type adjEntry struct{ to, id int32 }

// Graph is an undirected network whose edges are pairs of directed links.
// Construct with a Builder; a Graph is immutable once shared.
type Graph struct {
	n     int
	links []Link         // links[id] = directed link
	adj   [][]adjEntry   // adj[u] = (neighbor, link) pairs of u's outgoing links, ascending link ID
	index map[uint64]int // packed (from,to) -> LinkID; nil unless a node's degree exceeds linkScanMaxDegree
	label func(NodeID) string
}

func pack(u, v NodeID) uint64 { return uint64(uint32(u))<<32 | uint64(uint32(v)) }

// SetLabeler installs an optional node-label function used by NodeLabel
// (topology generators install coordinate labels for debugging output).
func (g *Graph) SetLabeler(f func(NodeID) string) { g.label = f }

// NodeLabel returns a human-readable label for node u.
func (g *Graph) NodeLabel(u NodeID) string {
	if g.label != nil {
		return g.label(u)
	}
	return fmt.Sprintf("%d", u)
}

// NumNodes returns the number of routers.
func (g *Graph) NumNodes() int { return g.n }

// NumLinks returns the number of directed links (twice the edge count).
func (g *Graph) NumLinks() int { return len(g.links) }

// NumEdges returns the number of undirected edges.
func (g *Graph) NumEdges() int { return len(g.links) / 2 }

// buildIndex constructs the pair-index map from the link table.
func (g *Graph) buildIndex() {
	g.index = make(map[uint64]int, len(g.links))
	for id, l := range g.links {
		g.index[pack(l.From, l.To)] = id
	}
}

// linkScanMaxDegree bounds the adjacency-row scan in LinkBetween: up to
// this degree a linear walk of adj[u] beats the hash lookup (the route
// check resolves every hop of every collection path through it); denser
// nodes fall back to the map.
const linkScanMaxDegree = 16

// LinkBetween returns the directed link ID for u->v, and whether it exists.
func (g *Graph) LinkBetween(u, v NodeID) (LinkID, bool) {
	if u < 0 || u >= g.n {
		return 0, false
	}
	if adj := g.adj[u]; len(adj) <= linkScanMaxDegree {
		for _, a := range adj {
			if int(a.to) == v {
				return int(a.id), true
			}
		}
		return 0, false
	}
	id, ok := g.index[pack(u, v)]
	return id, ok
}

// Link returns the endpoints of a directed link.
func (g *Graph) Link(id LinkID) Link { return g.links[id] }

// Reverse returns the link ID of the opposite direction of id. The two
// directions of the k-th undirected edge are always created together as
// IDs 2k and 2k+1 (see Builder.Finalize), so the reverse is the XOR of
// the low bit.
func (g *Graph) Reverse(id LinkID) LinkID { return id ^ 1 }

// Degree returns the undirected degree of u.
func (g *Graph) Degree(u NodeID) int { return len(g.adj[u]) }

// MaxDegree returns the maximum undirected degree over all nodes.
func (g *Graph) MaxDegree() int {
	max := 0
	for u := 0; u < g.n; u++ {
		if d := g.Degree(u); d > max {
			max = d
		}
	}
	return max
}

// search is the one breadth-first search every query here runs: from src
// over the links blocked does not refuse (a nil blocked refuses none),
// scanning each node's row in link ID order, until dst is discovered or,
// for a dst < 0, every reachable node is. It returns each discovered node's
// parent (src's is src, an undiscovered node's -1) and the discovered nodes
// in discovery order. A node's parent is its first discoverer, so the tree
// and the paths it spells are deterministic.
func (g *Graph) search(src, dst NodeID, blocked func(LinkID) bool) (parent, order []NodeID) {
	parent = make([]NodeID, g.n)
	for i := range parent {
		parent[i] = -1
	}
	parent[src] = src
	order = []NodeID{src}
	for head := 0; head < len(order); head++ {
		for _, a := range g.adj[order[head]] {
			if blocked != nil && blocked(int(a.id)) {
				continue
			}
			v := int(a.to)
			if parent[v] < 0 {
				parent[v] = order[head]
				order = append(order, v)
				if v == dst {
					return parent, order
				}
			}
		}
	}
	return parent, order
}

// BFS returns the distance (in edges) from src to every node; unreachable
// nodes get -1.
func (g *Graph) BFS(src NodeID) []int {
	parent, order := g.search(src, -1, nil)
	dist := make([]int, g.n)
	for i := range dist {
		dist[i] = -1
	}
	dist[src] = 0
	for _, v := range order[1:] {
		dist[v] = dist[parent[v]] + 1
	}
	return dist
}

// ShortestPathTree returns, for every node v, its predecessor on the path
// ShortestPath(src, v, nil) returns: src's entry is src and an unreachable
// node's is -1. One call spells the shortest paths from src to every node.
func (g *Graph) ShortestPathTree(src NodeID) []NodeID {
	parent, _ := g.search(src, -1, nil)
	return parent
}

// ShortestPath returns one shortest path from src to dst as a node
// sequence that uses no link for which blocked returns true, or nil if
// dst is unreachable; a nil blocked blocks nothing. Ties are broken by
// link ID order, so the result is deterministic. The degraded-mode
// protocol rounds pass the links a fault plan has taken down to steer
// still-active worms around them.
func (g *Graph) ShortestPath(src, dst NodeID, blocked func(LinkID) bool) Path {
	if src == dst {
		return Path{src}
	}
	parent, order := g.search(src, dst, blocked)
	if order[len(order)-1] != dst {
		return nil
	}
	return reconstruct(parent, src, dst)
}

func reconstruct(parent []NodeID, src, dst NodeID) Path {
	var rev []NodeID
	for v := dst; ; v = parent[v] {
		rev = append(rev, v)
		if v == src {
			break
		}
	}
	p := make(Path, len(rev))
	for i, v := range rev {
		p[len(rev)-1-i] = v
	}
	return p
}

// Diameter returns the largest finite shortest-path distance, running a
// BFS from every node. It returns -1 for disconnected graphs. Intended for
// the moderate sizes used in experiments.
func (g *Graph) Diameter() int {
	diam := 0
	for u := 0; u < g.n; u++ {
		for _, d := range g.BFS(u) {
			if d < 0 {
				return -1
			}
			if d > diam {
				diam = d
			}
		}
	}
	return diam
}

// Eccentricity returns the largest distance from u, or -1 if some node is
// unreachable from u.
func (g *Graph) Eccentricity(u NodeID) int {
	ecc := 0
	for _, d := range g.BFS(u) {
		if d < 0 {
			return -1
		}
		if d > ecc {
			ecc = d
		}
	}
	return ecc
}

// WriteDot renders the graph in Graphviz DOT format, one line per
// undirected edge, with node labels from the installed labeler.
func (g *Graph) WriteDot(w io.Writer, name string) {
	if name == "" {
		name = "topology"
	}
	fmt.Fprintf(w, "graph %q {\n", name)
	fmt.Fprintln(w, "  node [shape=circle];")
	for u := 0; u < g.NumNodes(); u++ {
		fmt.Fprintf(w, "  n%d [label=%q];\n", u, g.NodeLabel(u))
	}
	for id := 0; id < g.NumLinks(); id++ {
		l := g.links[id]
		if l.From < l.To { // one line per undirected edge
			fmt.Fprintf(w, "  n%d -- n%d;\n", l.From, l.To)
		}
	}
	fmt.Fprintln(w, "}")
}
