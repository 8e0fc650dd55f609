// Package topology provides generators for the interconnection networks the
// paper applies its bounds to: d-dimensional meshes and tori, butterflies
// (plain and wrap-around), hypercubes, and further node-symmetric families
// (rings, circulants, cube-connected cycles, star graphs), plus chains for
// contrast.
//
// Every generator returns a concrete type that wraps a *graph.Graph and
// carries family-specific structure (coordinates, levels, rows). Families
// that are vertex-transitive additionally implement VertexTransitive,
// exposing the automorphism that maps node 0 to any chosen node; the
// translation-invariant path systems of Theorem 1.5 are built from these.
package topology

import (
	"fmt"

	"repro/internal/graph"
)

// Topology is a named network.
type Topology interface {
	// Graph returns the underlying undirected graph of routers.
	Graph() *graph.Graph
	// Name returns a short human-readable identifier such as "torus(2,8)".
	Name() string
}

// VertexTransitive is implemented by node-symmetric families
// (Definition 1.4 of the paper) for which we can produce, for every node u,
// an automorphism mapping node 0 to u. The paper's Theorem 1.5 path system
// translates one canonical shortest-path star through these automorphisms.
type VertexTransitive interface {
	Topology
	// AutomorphismTo returns a graph automorphism phi with phi(0) = u.
	AutomorphismTo(u graph.NodeID) func(graph.NodeID) graph.NodeID
}

// base supplies the Topology boilerplate for all concrete families.
type base struct {
	g    *graph.Graph
	name string
}

// Graph returns the underlying undirected router graph.
func (b *base) Graph() *graph.Graph { return b.g }

// Name returns the family identifier, e.g. "torus(2,8)".
func (b *base) Name() string { return b.name }

// Chain is the path graph on n nodes (not node-symmetric).
type Chain struct{ base }

// NewChain builds the chain 0-1-...-(n-1). It panics if n < 2.
func NewChain(n int) *Chain {
	if n < 2 {
		panic("topology: chain needs at least 2 nodes")
	}
	b := graph.NewBuilder(n)
	for i := 0; i+1 < n; i++ {
		b.AddEdge(i, i+1)
	}
	return &Chain{base{g: b.Finalize(), name: fmt.Sprintf("chain(%d)", n)}}
}

// Ring is the cycle graph on n nodes; it is vertex-transitive under
// rotation.
type Ring struct {
	base
	n int
}

// NewRing builds the n-cycle. It panics if n < 3.
func NewRing(n int) *Ring {
	if n < 3 {
		panic("topology: ring needs at least 3 nodes")
	}
	b := graph.NewBuilder(n)
	for i := 0; i < n; i++ {
		b.AddEdge(i, (i+1)%n)
	}
	return &Ring{base: base{g: b.Finalize(), name: fmt.Sprintf("ring(%d)", n)}, n: n}
}

// AutomorphismTo implements VertexTransitive by rotation.
func (r *Ring) AutomorphismTo(u graph.NodeID) func(graph.NodeID) graph.NodeID {
	n := r.n
	return func(x graph.NodeID) graph.NodeID { return (x + u) % n }
}

// Circulant is the circulant graph C_n(offsets): node i is adjacent to
// i±o (mod n) for each offset o. Circulants are the canonical example of
// bounded-degree node-symmetric networks beyond tori.
type Circulant struct {
	base
	n       int
	offsets []int
}

// NewCirculant builds C_n(offsets). Offsets must be in [1, n/2]; it panics
// otherwise or if n < 3 or offsets is empty. A repeated offset adds no
// edges, and an offset of n/2 for even n adds each of its edges once.
func NewCirculant(n int, offsets []int) *Circulant {
	if n < 3 {
		panic("topology: circulant needs at least 3 nodes")
	}
	if len(offsets) == 0 {
		panic("topology: circulant needs at least one offset")
	}
	b := graph.NewBuilder(n)
	b.Grow(n * len(offsets))
	for _, o := range offsets {
		if o < 1 || o > n/2 {
			panic(fmt.Sprintf("topology: circulant offset %d out of [1, %d]", o, n/2))
		}
		for i := 0; i < n; i++ {
			b.AddEdge(i, (i+o)%n)
		}
	}
	return &Circulant{
		base:    base{g: b.Finalize(), name: fmt.Sprintf("circulant(%d,%v)", n, offsets)},
		n:       n,
		offsets: append([]int(nil), offsets...),
	}
}

// AutomorphismTo implements VertexTransitive by rotation.
func (c *Circulant) AutomorphismTo(u graph.NodeID) func(graph.NodeID) graph.NodeID {
	n := c.n
	return func(x graph.NodeID) graph.NodeID { return (x + u) % n }
}
