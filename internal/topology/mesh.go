package topology

import (
	"fmt"

	"repro/internal/graph"
)

// Mesh is the d-dimensional mesh with a common side length: nodes are
// coordinate vectors in [side]^dims connected along each axis without
// wrap-around. Theorem 1.6 of the paper routes random functions on it.
type Mesh struct {
	base
	dims, side int
	strides    []int
}

// NewMesh builds a dims-dimensional mesh of the given side length
// (side^dims nodes). It panics unless dims >= 1 and side >= 2.
//
// The edge walk generates each undirected edge exactly once (every node
// emits its +1 neighbor per axis), so it stages through graph.Builder:
// million-node meshes build in a handful of flat allocations instead of a
// map plus three growing slices per node.
func NewMesh(dims, side int) *Mesh {
	checkMeshArgs(dims, side)
	m := &Mesh{dims: dims, side: side, strides: strides(dims, side)}
	n := intPow(side, dims)
	b := graph.NewBuilder(n)
	b.Grow(dims * (n / side) * (side - 1))
	c := make([]int, dims) // running coordinate vector: no per-node coordOf allocation
	for u := 0; u < n; u++ {
		for d := 0; d < dims; d++ {
			if c[d]+1 < side {
				b.AddEdge(u, u+m.strides[d])
			}
		}
		incCoord(c, side)
	}
	g := b.Finalize()
	g.SetLabeler(func(u graph.NodeID) string { return fmt.Sprint(m.coordOf(u)) })
	m.base = base{g: g, name: fmt.Sprintf("mesh(%d,%d)", dims, side)}
	return m
}

// incCoord advances the mixed-radix coordinate vector by one node ID.
func incCoord(c []int, side int) {
	for d := 0; d < len(c); d++ {
		c[d]++
		if c[d] < side {
			return
		}
		c[d] = 0
	}
}

// Torus is the d-dimensional torus (mesh with wrap-around); it is
// vertex-transitive under coordinate-wise translation and the standard
// example of a node-symmetric network (Theorem 1.5).
type Torus struct {
	base
	dims, side int
	strides    []int
}

// NewTorus builds a dims-dimensional torus of the given side length. It
// panics unless dims >= 1 and side >= 3 (side 2 would create double edges).
func NewTorus(dims, side int) *Torus {
	checkMeshArgs(dims, side)
	if side < 3 {
		panic("topology: torus needs side >= 3")
	}
	t := &Torus{dims: dims, side: side, strides: strides(dims, side)}
	n := intPow(side, dims)
	// Each node emits its +1 (wrapping) neighbor per axis, so with side >= 3
	// every undirected edge appears exactly once: builder-eligible.
	b := graph.NewBuilder(n)
	b.Grow(dims * n)
	c := make([]int, dims)
	for u := 0; u < n; u++ {
		for d := 0; d < dims; d++ {
			next := c[d] + 1
			if next == side {
				next = 0
			}
			v := u + (next-c[d])*t.strides[d]
			b.AddEdge(u, v)
		}
		incCoord(c, side)
	}
	g := b.Finalize()
	g.SetLabeler(func(u graph.NodeID) string { return fmt.Sprint(t.coordOf(u)) })
	t.base = base{g: g, name: fmt.Sprintf("torus(%d,%d)", dims, side)}
	return t
}

func checkMeshArgs(dims, side int) {
	if dims < 1 {
		panic("topology: mesh/torus needs dims >= 1")
	}
	if side < 2 {
		panic("topology: mesh/torus needs side >= 2")
	}
	if f := float64(intPow(side, dims)); f > 1<<31 {
		panic("topology: mesh/torus too large")
	}
}

func strides(dims, side int) []int {
	s := make([]int, dims)
	st := 1
	for d := 0; d < dims; d++ {
		s[d] = st
		st *= side
	}
	return s
}

func intPow(b, e int) int {
	r := 1
	for i := 0; i < e; i++ {
		r *= b
	}
	return r
}

// Dims returns the number of dimensions.
func (m *Mesh) Dims() int { return m.dims }

// Side returns the side length.
func (m *Mesh) Side() int { return m.side }

// Coord returns the coordinate vector of node u.
func (m *Mesh) Coord(u graph.NodeID) []int { return m.coordOf(u) }

// NodeAt returns the node with the given coordinate vector.
func (m *Mesh) NodeAt(c []int) graph.NodeID { return nodeAt(c, m.strides, m.side) }

func (m *Mesh) coordOf(u graph.NodeID) []int { return coordOf(u, m.dims, m.side) }

// Dims returns the number of dimensions.
func (t *Torus) Dims() int { return t.dims }

// Side returns the side length.
func (t *Torus) Side() int { return t.side }

// Coord returns the coordinate vector of node u.
func (t *Torus) Coord(u graph.NodeID) []int { return t.coordOf(u) }

// NodeAt returns the node with the given coordinate vector.
func (t *Torus) NodeAt(c []int) graph.NodeID { return nodeAt(c, t.strides, t.side) }

func (t *Torus) coordOf(u graph.NodeID) []int { return coordOf(u, t.dims, t.side) }

// AutomorphismTo implements VertexTransitive: coordinate-wise translation
// by the coordinates of u.
func (t *Torus) AutomorphismTo(u graph.NodeID) func(graph.NodeID) graph.NodeID {
	shift := t.coordOf(u)
	dims, side, str := t.dims, t.side, t.strides
	return func(x graph.NodeID) graph.NodeID {
		c := coordOf(x, dims, side)
		out := 0
		for d := 0; d < dims; d++ {
			out += ((c[d] + shift[d]) % side) * str[d]
		}
		return out
	}
}

func coordOf(u graph.NodeID, dims, side int) []int {
	c := make([]int, dims)
	for d := 0; d < dims; d++ {
		c[d] = u % side
		u /= side
	}
	return c
}

func nodeAt(c []int, strides []int, side int) graph.NodeID {
	if len(c) != len(strides) {
		panic(fmt.Sprintf("topology: coordinate dimension %d != %d", len(c), len(strides)))
	}
	u := 0
	for d, x := range c {
		if x < 0 || x >= side {
			panic(fmt.Sprintf("topology: coordinate %d out of [0,%d)", x, side))
		}
		u += x * strides[d]
	}
	return u
}

// Hypercube is the dim-dimensional binary hypercube; vertex-transitive
// under XOR translation.
type Hypercube struct {
	base
	dim int
}

// NewHypercube builds the hypercube on 2^dim nodes. It panics if dim < 1.
func NewHypercube(dim int) *Hypercube {
	if dim < 1 {
		panic("topology: hypercube needs dim >= 1")
	}
	if dim > 24 {
		panic("topology: hypercube too large")
	}
	n := 1 << dim
	b := graph.NewBuilder(n)
	b.Grow(dim * n / 2)
	for u := 0; u < n; u++ {
		for d := 0; d < dim; d++ {
			v := u ^ (1 << d)
			if u < v {
				b.AddEdge(u, v)
			}
		}
	}
	g := b.Finalize()
	g.SetLabeler(func(u graph.NodeID) string { return fmt.Sprintf("%0*b", dim, u) })
	return &Hypercube{base: base{g: g, name: fmt.Sprintf("hypercube(%d)", dim)}, dim: dim}
}

// Dim returns the number of dimensions.
func (h *Hypercube) Dim() int { return h.dim }

// AutomorphismTo implements VertexTransitive: XOR by u.
func (h *Hypercube) AutomorphismTo(u graph.NodeID) func(graph.NodeID) graph.NodeID {
	return func(x graph.NodeID) graph.NodeID { return x ^ u }
}
