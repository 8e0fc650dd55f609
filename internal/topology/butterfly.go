package topology

import (
	"fmt"

	"repro/internal/graph"
)

// Butterfly is the k-dimensional butterfly network. Nodes are (level, row)
// pairs with row in [0, 2^k). In the plain butterfly there are k+1 levels
// (0..k); level l and l+1 are joined by a straight edge (same row) and a
// cross edge (rows differing exactly in bit l). In the wrap-around
// butterfly level k is identified with level 0, leaving k levels; the
// wrap-around butterfly is vertex-transitive (a standard node-symmetric
// network, cf. the paper's Section 1.4).
//
// Theorem 1.7 routes random q-functions from the inputs (level 0) to the
// outputs (level k) of the plain butterfly along its unique leveled paths.
type Butterfly struct {
	base
	dim     int
	wrapped bool
	rows    int
}

// NewButterfly builds the plain k-dimensional butterfly ((k+1)*2^k nodes).
// It panics if k < 1 or the network would be unreasonably large.
func NewButterfly(k int) *Butterfly { return newButterfly(k, false) }

// NewWrappedButterfly builds the wrap-around k-dimensional butterfly
// (k*2^k nodes). It panics if k < 3 (smaller wrapped butterflies collapse
// to multi-edges).
func NewWrappedButterfly(k int) *Butterfly {
	if k < 3 {
		panic("topology: wrapped butterfly needs dimension >= 3")
	}
	return newButterfly(k, true)
}

func newButterfly(k int, wrapped bool) *Butterfly {
	if k < 1 {
		panic("topology: butterfly needs dimension >= 1")
	}
	if k > 20 {
		panic("topology: butterfly too large")
	}
	rows := 1 << k
	levels := k + 1
	if wrapped {
		levels = k
	}
	b := &Butterfly{dim: k, wrapped: wrapped, rows: rows}
	// Every edge joins level l to the next level and is emitted only from
	// the lower level, so each undirected edge appears exactly once:
	// builder-eligible (straight and cross edges never coincide, r^1<<l != r).
	bld := graph.NewBuilder(levels * rows)
	bld.Grow(2 * k * rows)
	for l := 0; l < k; l++ {
		nextLevel := l + 1
		if wrapped && nextLevel == k {
			nextLevel = 0
		}
		for r := 0; r < rows; r++ {
			u := b.nodeAt(l, r)
			bld.AddEdge(u, nextLevel*rows+r)        // straight
			bld.AddEdge(u, nextLevel*rows+(r^1<<l)) // cross: flips bit l
		}
	}
	g := bld.Finalize()
	name := fmt.Sprintf("butterfly(%d)", k)
	if wrapped {
		name = fmt.Sprintf("wrapped-butterfly(%d)", k)
	}
	g.SetLabeler(func(u graph.NodeID) string {
		return fmt.Sprintf("(%d,%0*b)", b.LevelOf(u), k, b.RowOf(u))
	})
	b.base = base{g: g, name: name}
	return b
}

// Dim returns the butterfly dimension k.
func (b *Butterfly) Dim() int { return b.dim }

// Wrapped reports whether level k is identified with level 0.
func (b *Butterfly) Wrapped() bool { return b.wrapped }

// Levels returns the number of distinct levels (k+1 plain, k wrapped).
func (b *Butterfly) Levels() int {
	if b.wrapped {
		return b.dim
	}
	return b.dim + 1
}

// Rows returns the number of rows, 2^k.
func (b *Butterfly) Rows() int { return b.rows }

// Node returns the node at (level, row). It panics on out-of-range input.
func (b *Butterfly) Node(level, row int) graph.NodeID {
	if level < 0 || level >= b.Levels() || row < 0 || row >= b.rows {
		panic(fmt.Sprintf("topology: butterfly node (%d,%d) out of range", level, row))
	}
	return b.nodeAt(level, row)
}

func (b *Butterfly) nodeAt(level, row int) graph.NodeID { return level*b.rows + row }

// LevelOf returns the level of node u.
func (b *Butterfly) LevelOf(u graph.NodeID) int { return u / b.rows }

// RowOf returns the row of node u.
func (b *Butterfly) RowOf(u graph.NodeID) int { return u % b.rows }

// Inputs returns the level-0 nodes in row order.
func (b *Butterfly) Inputs() []graph.NodeID {
	ins := make([]graph.NodeID, b.rows)
	for r := range ins {
		ins[r] = b.nodeAt(0, r)
	}
	return ins
}

// Outputs returns the level-k nodes in row order for the plain butterfly.
// It panics on a wrapped butterfly, which has no distinguished outputs.
func (b *Butterfly) Outputs() []graph.NodeID {
	if b.wrapped {
		panic("topology: wrapped butterfly has no output level")
	}
	outs := make([]graph.NodeID, b.rows)
	for r := range outs {
		outs[r] = b.nodeAt(b.dim, r)
	}
	return outs
}

// UniquePath returns the unique input-to-output path from input row
// srcRow to output row dstRow in the plain butterfly: at level l the path
// takes the cross edge exactly when bit l of srcRow and dstRow differ.
// The resulting collection over all (src,dst) pairs is leveled. It panics
// on a wrapped butterfly.
func (b *Butterfly) UniquePath(srcRow, dstRow int) graph.Path {
	if b.wrapped {
		panic("topology: UniquePath requires the plain butterfly")
	}
	if srcRow < 0 || srcRow >= b.rows || dstRow < 0 || dstRow >= b.rows {
		panic("topology: butterfly row out of range")
	}
	p := make(graph.Path, 0, b.dim+1)
	row := srcRow
	p = append(p, b.nodeAt(0, row))
	for l := 0; l < b.dim; l++ {
		if (row^dstRow)&(1<<l) != 0 {
			row ^= 1 << l
		}
		p = append(p, b.nodeAt(l+1, row))
	}
	return p
}

// rotlBits rotates the low k bits of r left by s positions.
func rotlBits(r, s, k int) int {
	s %= k
	mask := 1<<k - 1
	return ((r << s) | (r >> (k - s))) & mask
}

// AutomorphismTo implements VertexTransitive for the wrap-around
// butterfly: the automorphism group is generated by level rotation
// combined with a bit rotation of the row, and XOR translation of rows.
// It panics on a plain butterfly, which is not vertex-transitive.
func (b *Butterfly) AutomorphismTo(u graph.NodeID) func(graph.NodeID) graph.NodeID {
	if !b.wrapped {
		panic("topology: plain butterfly is not vertex-transitive")
	}
	l0, r0 := b.LevelOf(u), b.RowOf(u)
	k := b.dim
	return func(x graph.NodeID) graph.NodeID {
		l, r := b.LevelOf(x), b.RowOf(x)
		return b.nodeAt((l+l0)%k, rotlBits(r, l0, k)^r0)
	}
}
