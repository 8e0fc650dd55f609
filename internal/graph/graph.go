// Package graph provides the network model underlying the all-optical
// routing simulator: an undirected multigraph of routers in which every
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

// LinkID identifies one directed optical link. For the undirected edge
// {u,v} added as the k-th edge, the links u->v and v->u receive IDs 2k and
// 2k+1; Reverse flips between them.
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
// Construct with New and AddEdge; a Graph is immutable once shared.
type Graph struct {
	n     int
	links []Link         // links[id] = directed link
	out   [][]LinkID     // out[u] = outgoing link IDs
	in    [][]LinkID     // in[u] = incoming link IDs
	adj   [][]adjEntry   // adj[u] = (neighbor, link) pairs, scan-friendly
	index map[uint64]int // packed (from,to) -> LinkID; nil on sparse CSR graphs
	label func(NodeID) string
}

// New returns an empty graph on n nodes. It panics if n <= 0.
func New(n int) *Graph {
	if n <= 0 {
		panic("graph: New needs at least one node")
	}
	return &Graph{
		n:     n,
		out:   make([][]LinkID, n),
		in:    make([][]LinkID, n),
		adj:   make([][]adjEntry, n),
		index: make(map[uint64]int),
	}
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

// AddEdge adds the undirected edge {u, v}, creating links u->v and v->u.
// It panics on out-of-range nodes or self-loops and is a no-op if the edge
// already exists. On a Builder-finalized graph, the first AddEdge call
// rebuilds the pair-index map that Finalize skipped.
func (g *Graph) AddEdge(u, v NodeID) {
	if u < 0 || u >= g.n || v < 0 || v >= g.n {
		panic(fmt.Sprintf("graph: AddEdge(%d, %d) out of range [0,%d)", u, v, g.n))
	}
	if u == v {
		panic(fmt.Sprintf("graph: self-loop at node %d", u))
	}
	if g.index == nil {
		g.buildIndex()
	}
	if _, ok := g.index[pack(u, v)]; ok {
		return
	}
	g.addLink(u, v)
	g.addLink(v, u)
}

// buildIndex (re)constructs the pair-index map from the link table.
func (g *Graph) buildIndex() {
	g.index = make(map[uint64]int, len(g.links))
	for id, l := range g.links {
		g.index[pack(l.From, l.To)] = id
	}
}

func (g *Graph) addLink(u, v NodeID) {
	id := len(g.links)
	g.links = append(g.links, Link{From: u, To: v})
	g.index[pack(u, v)] = id
	g.out[u] = append(g.out[u], id)
	g.in[v] = append(g.in[v], id)
	g.adj[u] = append(g.adj[u], adjEntry{to: int32(v), id: int32(id)})
}

// HasEdge reports whether the undirected edge {u, v} exists.
func (g *Graph) HasEdge(u, v NodeID) bool {
	if g.index == nil {
		_, ok := g.LinkBetween(u, v)
		return ok
	}
	_, ok := g.index[pack(u, v)]
	return ok
}

// linkScanMaxDegree bounds the adjacency-list scan in LinkBetween: up to
// this degree a linear walk of out[u] beats the hash lookup (the simulator
// resolves every path hop through LinkBetween each round, so this is a hot
// call); denser nodes fall back to the map.
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
// IDs 2k and 2k+1 (see AddEdge), so the reverse is the XOR of the low bit.
func (g *Graph) Reverse(id LinkID) LinkID { return id ^ 1 }

// Out returns the outgoing link IDs of u. The caller must not modify it.
func (g *Graph) Out(u NodeID) []LinkID { return g.out[u] }

// In returns the incoming link IDs of u. The caller must not modify it.
func (g *Graph) In(u NodeID) []LinkID { return g.in[u] }

// Degree returns the undirected degree of u.
func (g *Graph) Degree(u NodeID) int { return len(g.out[u]) }

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

// Neighbors returns the neighbors of u in insertion order.
func (g *Graph) Neighbors(u NodeID) []NodeID {
	ns := make([]NodeID, len(g.out[u]))
	for i, id := range g.out[u] {
		ns[i] = g.links[id].To
	}
	return ns
}

// BFS returns the distance (in edges) from src to every node; unreachable
// nodes get -1.
func (g *Graph) BFS(src NodeID) []int {
	dist := make([]int, g.n)
	for i := range dist {
		dist[i] = -1
	}
	dist[src] = 0
	queue := []NodeID{src}
	for len(queue) > 0 {
		u := queue[0]
		queue = queue[1:]
		for _, id := range g.out[u] {
			v := g.links[id].To
			if dist[v] < 0 {
				dist[v] = dist[u] + 1
				queue = append(queue, v)
			}
		}
	}
	return dist
}

// ShortestPath returns one shortest path from src to dst as a node
// sequence, or nil if dst is unreachable. Ties are broken by link
// insertion order, so the result is deterministic.
func (g *Graph) ShortestPath(src, dst NodeID) Path {
	if src == dst {
		return Path{src}
	}
	parent := make([]NodeID, g.n)
	for i := range parent {
		parent[i] = -1
	}
	parent[src] = src
	queue := []NodeID{src}
	for len(queue) > 0 {
		u := queue[0]
		queue = queue[1:]
		for _, id := range g.out[u] {
			v := g.links[id].To
			if parent[v] < 0 {
				parent[v] = u
				if v == dst {
					return reconstruct(parent, src, dst)
				}
				queue = append(queue, v)
			}
		}
	}
	return nil
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

// Connected reports whether the graph is connected (true for the
// single-node graph).
func (g *Graph) Connected() bool {
	dist := g.BFS(0)
	for _, d := range dist {
		if d < 0 {
			return false
		}
	}
	return true
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
