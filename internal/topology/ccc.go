package topology

import (
	"fmt"

	"repro/internal/graph"
)

// CCC is the cube-connected-cycles network of dimension k: each hypercube
// node w in [0, 2^k) is replaced by a cycle of k routers (w, 0)..(w, k-1);
// router (w, i) has cycle edges to (w, i±1 mod k) and a cube edge to
// (w XOR 2^i, i). CCC(k) is 3-regular and vertex-transitive — a classic
// bounded-degree node-symmetric network for Theorem 1.5.
type CCC struct {
	base
	dim int
}

// NewCCC builds the cube-connected cycles of dimension k (k * 2^k
// routers). It panics if k < 3 (smaller instances degenerate into
// multi-edges).
func NewCCC(k int) *CCC {
	if k < 3 {
		panic("topology: CCC needs dimension >= 3")
	}
	if k > 20 {
		panic("topology: CCC too large")
	}
	rows := 1 << k
	c := &CCC{dim: k}
	// Every cube edge is recorded from both ends; Finalize keeps the first.
	b := graph.NewBuilder(k * rows)
	b.Grow(2 * k * rows)
	for w := 0; w < rows; w++ {
		for i := 0; i < k; i++ {
			u := c.nodeAt(w, i)
			b.AddEdge(u, c.nodeAt(w, (i+1)%k))  // cycle edge
			b.AddEdge(u, c.nodeAt(w^(1<<i), i)) // cube edge
		}
	}
	g := b.Finalize()
	g.SetLabeler(func(u graph.NodeID) string {
		return fmt.Sprintf("(%0*b,%d)", k, c.CubeOf(u), c.PosOf(u))
	})
	c.base = base{g: g, name: fmt.Sprintf("ccc(%d)", k)}
	return c
}

func (c *CCC) nodeAt(w, i int) graph.NodeID { return w*c.dim + i }

// CubeOf returns the cube address of router u.
func (c *CCC) CubeOf(u graph.NodeID) int { return u / c.dim }

// PosOf returns the cycle position of router u.
func (c *CCC) PosOf(u graph.NodeID) int { return u % c.dim }

// AutomorphismTo implements VertexTransitive: the automorphism group of
// CCC(k) contains the maps phi(w, i) = (rotl(w, s) XOR w0, i + s mod k)
// (rotating the cube coordinates together with the cycle positions, then
// translating the cube address). Choosing s = i0 and w0 = r0 maps (0, 0)
// to the target (r0, i0).
func (c *CCC) AutomorphismTo(u graph.NodeID) func(graph.NodeID) graph.NodeID {
	w0, i0 := c.CubeOf(u), c.PosOf(u)
	k := c.dim
	return func(x graph.NodeID) graph.NodeID {
		w, i := c.CubeOf(x), c.PosOf(x)
		return c.nodeAt(rotlBits(w, i0, k)^w0, (i+i0)%k)
	}
}
