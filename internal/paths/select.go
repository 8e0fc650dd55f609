package paths

import (
	"fmt"

	"repro/internal/graph"
	"repro/internal/topology"
)

// Selector produces a routing path from src to dst in a fixed network.
// Selectors are the "first part" of a routing scheme in the paper's
// terminology: the strategy that picks the path collection.
type Selector func(src, dst graph.NodeID) graph.Path

// Pair is one (source, destination) routing request.
type Pair struct {
	Src, Dst graph.NodeID
}

// Build applies the selector to every pair with Src != Dst and returns the
// resulting collection. Pairs with Src == Dst are skipped (nothing to
// route).
func Build(g *graph.Graph, pairs []Pair, sel Selector) (*Collection, error) {
	ps := make([]graph.Path, 0, len(pairs))
	for _, pr := range pairs {
		if pr.Src == pr.Dst {
			continue
		}
		p := sel(pr.Src, pr.Dst)
		if p == nil {
			return nil, fmt.Errorf("paths: selector returned nil for %d->%d", pr.Src, pr.Dst)
		}
		ps = append(ps, p)
	}
	return NewCollection(g, ps)
}

// DimOrderMesh returns the dimension-order (e-cube) selector for a mesh:
// the path corrects coordinates dimension by dimension, lowest dimension
// first. Every produced path is a shortest path, so every collection built
// from this selector is short-cut free.
func DimOrderMesh(m *topology.Mesh) Selector {
	return func(src, dst graph.NodeID) graph.Path {
		cs, cd := m.Coord(src), m.Coord(dst)
		p := graph.Path{src}
		cur := append([]int(nil), cs...)
		for d := 0; d < m.Dims(); d++ {
			step := 1
			if cd[d] < cur[d] {
				step = -1
			}
			for cur[d] != cd[d] {
				cur[d] += step
				p = append(p, m.NodeAt(cur))
			}
		}
		return p
	}
}

// DimOrderTorus returns the dimension-order selector for a torus, taking
// the shorter wrap direction in each dimension (positive direction on
// ties). Every path is a torus shortest path, hence collections are
// short-cut free; the selector is translation-invariant, making it the
// constructive path system behind Theorem 1.5 on tori.
func DimOrderTorus(t *topology.Torus) Selector {
	side := t.Side()
	return func(src, dst graph.NodeID) graph.Path {
		cs, cd := t.Coord(src), t.Coord(dst)
		p := graph.Path{src}
		cur := append([]int(nil), cs...)
		for d := 0; d < t.Dims(); d++ {
			fwd := (cd[d] - cur[d] + side) % side
			step := 1
			steps := fwd
			if fwd > side-fwd {
				step = -1
				steps = side - fwd
			}
			for k := 0; k < steps; k++ {
				cur[d] = ((cur[d]+step)%side + side) % side
				p = append(p, t.NodeAt(cur))
			}
		}
		return p
	}
}

// BitFixing returns the bit-fixing selector for a hypercube: correct
// differing address bits from lowest to highest. Paths are shortest, so
// collections are short-cut free; the selector is XOR-translation
// invariant.
func BitFixing(h *topology.Hypercube) Selector {
	dim := h.Dim()
	return func(src, dst graph.NodeID) graph.Path {
		p := graph.Path{src}
		cur := src
		for b := 0; b < dim; b++ {
			if (cur^dst)&(1<<b) != 0 {
				cur ^= 1 << b
				p = append(p, cur)
			}
		}
		return p
	}
}

// ButterflySelector returns the unique input-output path selector of the
// plain butterfly (Theorem 1.7). src must be a level-0 node and dst a
// level-k node; the selector panics otherwise. The resulting collections
// are leveled by construction.
func ButterflySelector(b *topology.Butterfly) Selector {
	return func(src, dst graph.NodeID) graph.Path {
		if b.LevelOf(src) != 0 {
			panic(fmt.Sprintf("paths: butterfly source %d not at level 0", src))
		}
		if b.LevelOf(dst) != b.Dim() {
			panic(fmt.Sprintf("paths: butterfly destination %d not at level %d", dst, b.Dim()))
		}
		return b.UniquePath(b.RowOf(src), b.RowOf(dst))
	}
}

// TranslationSystem returns a translation-invariant selector for a
// vertex-transitive network: a canonical shortest path from node 0 to each
// difference class is fixed once (via BFS), and the path from src to dst
// is the image of the canonical path to phi^-1(dst) under the automorphism
// phi mapping 0 to src. This realizes, constructively, the path system
// from [27] used by Theorem 1.5: by symmetry every edge has the same
// expected load under a random function, which is at most the dilation D.
//
// The canonical paths form one BFS tree from node 0, the paths
// g.ShortestPath(0, v, nil) returns, and images of shortest paths are
// shortest paths, so the resulting collections are short-cut free.
func TranslationSystem(vt topology.VertexTransitive) Selector {
	g := vt.Graph()
	n := g.NumNodes()
	parent := g.ShortestPathTree(0)
	for _, p := range parent {
		if p < 0 {
			panic("paths: TranslationSystem requires a connected network")
		}
	}
	// The inverse permutation of each source's automorphism is computed
	// once and cached, so building a whole collection costs O(n) per
	// distinct source rather than O(n) per pair.
	type entry struct {
		phi func(graph.NodeID) graph.NodeID
		inv []graph.NodeID
	}
	cache := make(map[graph.NodeID]entry)
	lookup := func(src graph.NodeID) entry {
		if e, ok := cache[src]; ok {
			return e
		}
		phi := vt.AutomorphismTo(src)
		inv := make([]graph.NodeID, n)
		for c := 0; c < n; c++ {
			inv[phi(c)] = c
		}
		e := entry{phi: phi, inv: inv}
		cache[src] = e
		return e
	}
	return func(src, dst graph.NodeID) graph.Path {
		e := lookup(src)
		v := e.inv[dst]
		hops := 0
		for u := v; u != 0; u = parent[u] {
			hops++
		}
		img := make(graph.Path, hops+1)
		for i, u := hops, v; i >= 0; i, u = i-1, parent[u] {
			img[i] = e.phi(u)
		}
		return img
	}
}

// BFSSelector returns a generic shortest-path selector with deterministic
// tie-breaking, usable on any connected network. Collections built from it
// are short-cut free (all paths are shortest paths).
func BFSSelector(g *graph.Graph) Selector {
	return func(src, dst graph.NodeID) graph.Path {
		p := g.ShortestPath(src, dst, nil)
		if p == nil {
			panic(fmt.Sprintf("paths: no path %d->%d", src, dst))
		}
		return p
	}
}
