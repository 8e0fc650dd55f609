package graph

import "fmt"

// Builder accumulates the edge list of a graph whose generator guarantees
// every undirected edge is produced exactly once, then lays the adjacency
// out in one flat CSR-style pass. The incremental Graph path (New +
// AddEdge) keeps a map keyed by node pair for deduplication and grows one
// slice per node; at a million nodes that map alone costs hundreds of
// megabytes and millions of allocations. The builder needs neither: edges
// land in one flat array, Finalize counting-sorts them into shared backing
// arrays, and the per-node views are subslices of those arrays.
//
// Builder does NOT deduplicate. Generators that can emit coincident pairs
// (de Bruijn graphs, circulants with repeated offsets) must keep using
// Graph.AddEdge, which silently drops duplicates.
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
// nodes or self-loops. The caller must not record the same edge twice (see
// the type comment); Finalize would materialize a multigraph.
func (b *Builder) AddEdge(u, v NodeID) {
	if u < 0 || u >= b.n || v < 0 || v >= b.n {
		panic(fmt.Sprintf("graph: AddEdge(%d, %d) out of range [0,%d)", u, v, b.n))
	}
	if u == v {
		panic(fmt.Sprintf("graph: self-loop at node %d", u))
	}
	b.edges = append(b.edges, builderEdge{u: int32(u), v: int32(v)})
}

// Finalize builds the Graph. Link IDs match what the incremental path
// would have produced for the same AddEdge sequence: the k-th recorded
// edge {u, v} becomes links 2k (u->v) and 2k+1 (v->u), and every per-node
// list is ordered by ascending link ID. The pair-index map is built only
// when some node's degree exceeds the LinkBetween scan threshold; sparse
// graphs (meshes, tori, butterflies) skip it entirely.
//
// The builder must not be reused after Finalize.
func (b *Builder) Finalize() *Graph {
	n := b.n
	nLinks := 2 * len(b.edges)
	links := make([]Link, nLinks)
	// Out-degree equals in-degree at every node (each incident edge
	// contributes one outgoing and one incoming link), so one offset table
	// serves all three per-node layouts.
	off := make([]int32, n+1)
	for _, e := range b.edges {
		off[e.u+1]++
		off[e.v+1]++
	}
	for k, e := range b.edges {
		links[2*k] = Link{From: int(e.u), To: int(e.v)}
		links[2*k+1] = Link{From: int(e.v), To: int(e.u)}
	}
	maxDeg := 0
	for u := 0; u < n; u++ {
		if d := int(off[u+1]); d > maxDeg {
			maxDeg = d
		}
		off[u+1] += off[u]
	}
	outFlat := make([]LinkID, nLinks)
	inFlat := make([]LinkID, nLinks)
	adjFlat := make([]adjEntry, nLinks)
	outPos := make([]int32, n)
	inPos := make([]int32, n)
	for u := 0; u < n; u++ {
		outPos[u] = off[u]
		inPos[u] = off[u]
	}
	for id := 0; id < nLinks; id++ {
		l := links[id]
		p := outPos[l.From]
		outFlat[p] = id
		adjFlat[p] = adjEntry{to: int32(l.To), id: int32(id)}
		outPos[l.From] = p + 1
		q := inPos[l.To]
		inFlat[q] = id
		inPos[l.To] = q + 1
	}
	g := &Graph{
		n:     n,
		links: links,
		out:   make([][]LinkID, n),
		in:    make([][]LinkID, n),
		adj:   make([][]adjEntry, n),
	}
	for u := 0; u < n; u++ {
		lo, hi := off[u], off[u+1]
		// Full-slice expressions pin capacity so a later AddEdge append
		// copies out instead of clobbering the neighbor's region.
		g.out[u] = outFlat[lo:hi:hi]
		g.in[u] = inFlat[lo:hi:hi]
		g.adj[u] = adjFlat[lo:hi:hi]
	}
	if maxDeg > linkScanMaxDegree {
		g.buildIndex()
	}
	b.edges = nil
	return g
}
