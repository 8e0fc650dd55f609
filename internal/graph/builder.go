package graph

import "fmt"

// Builder is the only way to construct a Graph. It accumulates the edge
// list in one flat array, then lays the graph out in a single pass:
// Finalize counting-sorts the links into one shared adjacency array, and
// each node's row is a subslice of it. At a million nodes this costs a
// handful of allocations, where a map keyed by node pair and a growing
// slice per node would cost hundreds of megabytes and millions of them.
//
// Generators may record an undirected edge more than once, in either
// orientation (circulants with repeated offsets or an offset of n/2, the
// lower-bound gadgets' shared edges): Finalize keeps the first occurrence
// and drops the repeats.
type Builder struct {
	n     int
	edges []builderEdge
}

// builderEdge is a recorded undirected edge; int32 halves the staging
// footprint (node counts are bounded well below 2^31 by checkMeshArgs-style
// guards and the int32 occupancy keys downstream).
type builderEdge struct{ u, v int32 }

// NewBuilder returns a builder for a graph on n nodes. It panics if n <= 0.
func NewBuilder(n int) *Builder {
	if n <= 0 {
		panic("graph: NewBuilder needs at least one node")
	}
	return &Builder{n: n}
}

// Grow pre-allocates capacity for extra additional edges, so a generator
// that knows its edge count stages the whole list in one allocation.
func (b *Builder) Grow(extra int) {
	if need := len(b.edges) + extra; need > cap(b.edges) {
		next := make([]builderEdge, len(b.edges), need)
		copy(next, b.edges)
		b.edges = next
	}
}

// AddEdge records the undirected edge {u, v}. It panics on out-of-range
// nodes or self-loops. Recording an edge again, in either orientation, is
// allowed; Finalize drops the repeat.
func (b *Builder) AddEdge(u, v NodeID) {
	if u < 0 || u >= b.n || v < 0 || v >= b.n {
		panic(fmt.Sprintf("graph: AddEdge(%d, %d) out of range [0,%d)", u, v, b.n))
	}
	if u == v {
		panic(fmt.Sprintf("graph: self-loop at node %d", u))
	}
	b.edges = append(b.edges, builderEdge{u: int32(u), v: int32(v)})
}

// Finalize builds the Graph. Every repeat of an undirected edge, in
// either orientation, is dropped and first occurrences keep their order:
// the k-th kept edge {u, v} becomes links 2k (u->v) and 2k+1 (v->u), and
// every node's row lists its outgoing links by ascending link ID. The
// pair-index map is built only when some node's degree exceeds the
// LinkBetween scan threshold; sparse graphs (meshes, tori, butterflies)
// skip it entirely.
//
// The builder must not be reused after Finalize.
func (b *Builder) Finalize() *Graph {
	g := layout(b.n, b.edges)
	if kept := firstOccurrences(g, b.edges); len(kept) < len(b.edges) {
		g = layout(b.n, kept)
	}
	if g.MaxDegree() > linkScanMaxDegree {
		g.buildIndex()
	}
	b.edges = nil
	return g
}

// layout builds the link table and the adjacency rows of the edges as
// given. A node's out-degree equals its in-degree (each incident edge
// contributes one link each way), so one offset table sizes the rows.
func layout(n int, edges []builderEdge) *Graph {
	links := make([]Link, 2*len(edges))
	off := make([]int32, n+1)
	for k, e := range edges {
		links[2*k] = Link{From: int(e.u), To: int(e.v)}
		links[2*k+1] = Link{From: int(e.v), To: int(e.u)}
		off[e.u+1]++
		off[e.v+1]++
	}
	for u := 0; u < n; u++ {
		off[u+1] += off[u]
	}
	flat := make([]adjEntry, len(links))
	next := append([]int32(nil), off[:n]...)
	for id, l := range links {
		p := next[l.From]
		flat[p] = adjEntry{to: int32(l.To), id: int32(id)}
		next[l.From] = p + 1
	}
	g := &Graph{n: n, links: links, adj: make([][]adjEntry, n)}
	for u := range g.adj {
		g.adj[u] = flat[off[u]:off[u+1]]
	}
	return g
}

// firstOccurrences returns the edges with every repeat of an undirected
// edge removed, first occurrences kept in order. g must be the layout of
// edges. A node's row lists the links of its incident edges in recording
// order, so a repeat is a neighbor met twice in one row, and a per-node
// stamp spots it in one pass: linear time, no map. Repeats are marked and
// compacted out of edges in place.
func firstOccurrences(g *Graph, edges []builderEdge) []builderEdge {
	stamp := make([]int32, g.n) // stamp[v] == u+1: v already met in u's row
	repeats := false
	for u, row := range g.adj {
		for _, a := range row {
			if stamp[a.to] == int32(u+1) {
				edges[a.id/2].u = -1
				repeats = true
			} else {
				stamp[a.to] = int32(u + 1)
			}
		}
	}
	if !repeats {
		return edges
	}
	kept := edges[:0]
	for _, e := range edges {
		if e.u >= 0 {
			kept = append(kept, e)
		}
	}
	return kept
}
