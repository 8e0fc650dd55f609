// Package lowerbound builds the adversarial path collections from the
// paper's lower-bound proofs:
//
//   - Staggered structures (Section 2.2, Figure 5): sqrt(log n) paths of
//     length D where path i+1 starts d = floor((L-1)/2)+1 levels after
//     path i and shares exactly one edge with it. With suitable delays a
//     chain of worms eliminates its predecessors, forcing the
//     Omega(sqrt(log_alpha n)) round count of Main Theorems 1.1/1.3.
//   - Cyclic structures (Section 3.2, Figure 6): three paths of length D
//     pairwise sharing an edge so that the three worms can block each
//     other in a directed cycle. Under the serve-first rule these force
//     the Omega(log_alpha n) rounds of Main Theorem 1.2; the priority rule
//     breaks the cycle (Main Theorem 1.3).
//   - Identical structures (the type-2 collections of both sections):
//     C-tilde identical paths of length D, forcing the L*C/B term and the
//     log log round count.
//
// Each generator returns a Build with the union graph, the path
// collection, and the per-structure worm index ranges, plus the
// adversarial rank assignment used by Main Theorem 1.3's lower bound.
package lowerbound

import (
	"fmt"

	"repro/internal/graph"
	"repro/internal/paths"
)

// Build is a generated gadget collection.
type Build struct {
	Graph *graph.Graph
	// Collection holds the paths of all structures, structure by
	// structure in order.
	Collection *paths.Collection
	// Structures[k] lists the worm (path) indices of structure k.
	Structures [][]int
	// Ranks is the adversarial priority assignment of Section 2.2: within
	// each staggered structure the worm on path i gets rank i (later
	// paths preferred). Zero for other gadget kinds.
	Ranks []int
}

// builder incrementally allocates nodes of the union graph.
type builder struct {
	edges   [][2]int
	n       int
	paths   []graph.Path
	structs [][]int
	ranks   []int
}

func (b *builder) node() int {
	b.n++
	return b.n - 1
}

func (b *builder) edge(u, v int) { b.edges = append(b.edges, [2]int{u, v}) }

// finish lays the union graph out in one graph.Builder pass. Gadgets record
// a shared edge once per path through it; Finalize drops the repeats.
func (b *builder) finish() *Build {
	if b.n == 0 {
		b.n = 1
	}
	gb := graph.NewBuilder(b.n)
	gb.Grow(len(b.edges))
	for _, e := range b.edges {
		gb.AddEdge(e[0], e[1])
	}
	g := gb.Finalize()
	return &Build{
		Graph:      g,
		Collection: paths.MustCollection(g, b.paths),
		Structures: b.structs,
		Ranks:      b.ranks,
	}
}

// Staggered builds `structures` copies of the Figure 5 gadget, each with
// `pathsPer` paths of length D, for worms of length L. It panics unless
// pathsPer >= 1, L >= 2, and D is large enough to fit the stagger
// (D >= d+1 where d = floor((L-1)/2)+1).
func Staggered(structures, pathsPer, D, L int) *Build {
	if structures < 1 || pathsPer < 1 {
		panic("lowerbound: need at least one structure and one path")
	}
	if L < 2 {
		panic("lowerbound: staggered structures need L >= 2")
	}
	d := (L-1)/2 + 1
	if D < d+1 {
		panic(fmt.Sprintf("lowerbound: D=%d too short for stagger d=%d", D, d))
	}
	b := &builder{}
	for s := 0; s < structures; s++ {
		b.staggeredStructure(pathsPer, D, d)
	}
	return b.finish()
}

// staggeredStructure adds one Figure 5 gadget: path i (0-based) spans
// levels [i*d, i*d+D]; paths i and i+1 share the single edge from level
// (i+1)*d to (i+1)*d+1.
func (b *builder) staggeredStructure(pathsPer, D, d int) {
	// Shared edge j (between paths j-1 and j, 1-based j) gets two nodes.
	type shared struct{ a, z int }
	sh := make([]shared, pathsPer) // sh[j] used for j >= 1
	for j := 1; j < pathsPer; j++ {
		sh[j] = shared{a: b.node(), z: b.node()}
	}
	var idxs []int
	for i := 0; i < pathsPer; i++ {
		p := make(graph.Path, 0, D+1)
		// Offsets within path i: the shared edge with path i-1 sits at
		// offset 0 (levels i*d .. i*d+1), the one with path i+1 at offset
		// d (levels (i+1)*d .. (i+1)*d+1).
		for off := 0; off <= D; off++ {
			var u int
			switch {
			case i >= 1 && off == 0:
				u = sh[i].a
			case i >= 1 && off == 1:
				u = sh[i].z
			case i+1 < pathsPer && off == d:
				u = sh[i+1].a
			case i+1 < pathsPer && off == d+1:
				u = sh[i+1].z
			default:
				u = b.node()
			}
			p = append(p, u)
		}
		// d == 1 makes offsets 1 and d coincide; the switch above gives
		// priority to the i-1 edge, so re-check consistency: for d == 1,
		// offset 1 must be both sh[i].z and sh[i+1].a. Merge by rewriting.
		if d == 1 && i >= 1 && i+1 < pathsPer {
			// p[1] was set to sh[i].z by the switch; sh[i+1].a must be
			// the same node for the shared edge with path i+1 to exist.
			sh[i+1].a = p[1]
		}
		for k := 0; k+1 < len(p); k++ {
			b.edge(p[k], p[k+1])
		}
		b.paths = append(b.paths, p)
		b.ranks = append(b.ranks, i) // adversarial: later paths win
		idxs = append(idxs, len(b.paths)-1)
	}
	b.structs = append(b.structs, idxs)
}

// Cyclic builds `structures` copies of the Figure 6 gadget for worms of
// length L: three paths of length D; path j uses shared edge E_j at
// offset 0 and shared edge E_{(j+1) mod 3} at offset q = floor(L/2), so
// that three worms with similar delays eliminate each other in a directed
// cycle under the serve-first rule. It panics unless L >= 2 and
// D >= q+1.
func Cyclic(structures, D, L int) *Build {
	if structures < 1 {
		panic("lowerbound: need at least one structure")
	}
	if L < 2 {
		panic("lowerbound: cyclic structures need L >= 2")
	}
	q := L / 2
	if q < 1 {
		q = 1
	}
	if D < q+1 {
		panic(fmt.Sprintf("lowerbound: D=%d too short for offset q=%d", D, q))
	}
	b := &builder{}
	for s := 0; s < structures; s++ {
		b.cyclicStructure(D, q)
	}
	return b.finish()
}

// cyclicStructure adds one Figure 6 gadget. Shared edges E_0, E_1, E_2;
// path j starts with E_j (offset 0) and passes E_{(j+1)%3} at offset q.
// For q == 1 the end of E_j coincides with the start of E_{j+1}, so the
// three shared edges form a triangle on three nodes.
func (b *builder) cyclicStructure(D, q int) {
	type shared struct{ a, z int }
	var sh [3]shared
	if q == 1 {
		var x [3]int
		for j := range x {
			x[j] = b.node()
		}
		for j := range sh {
			sh[j] = shared{a: x[j], z: x[(j+1)%3]}
		}
	} else {
		for j := range sh {
			sh[j] = shared{a: b.node(), z: b.node()}
		}
	}
	var idxs []int
	for j := 0; j < 3; j++ {
		own := sh[j]
		next := sh[(j+1)%3]
		p := make(graph.Path, 0, D+1)
		for off := 0; off <= D; off++ {
			var u int
			switch {
			case off == 0:
				u = own.a
			case off == 1:
				u = own.z // for q == 1 this equals next.a
			case off == q:
				u = next.a
			case off == q+1:
				u = next.z
			default:
				u = b.node()
			}
			p = append(p, u)
		}
		for k := 0; k+1 < len(p); k++ {
			b.edge(p[k], p[k+1])
		}
		b.paths = append(b.paths, p)
		b.ranks = append(b.ranks, 0)
		idxs = append(idxs, len(b.paths)-1)
	}
	b.structs = append(b.structs, idxs)
}

// Identical builds `structures` type-2 gadgets, each consisting of
// `pathsPer` identical paths of length D (path congestion exactly
// pathsPer within a structure).
func Identical(structures, pathsPer, D int) *Build {
	if structures < 1 || pathsPer < 1 {
		panic("lowerbound: need at least one structure and one path")
	}
	if D < 1 {
		panic("lowerbound: paths need length >= 1")
	}
	b := &builder{}
	for s := 0; s < structures; s++ {
		p := make(graph.Path, D+1)
		for i := range p {
			p[i] = b.node()
		}
		for k := 0; k+1 < len(p); k++ {
			b.edge(p[k], p[k+1])
		}
		var idxs []int
		for c := 0; c < pathsPer; c++ {
			b.paths = append(b.paths, p.Clone())
			b.ranks = append(b.ranks, c)
			idxs = append(idxs, len(b.paths)-1)
		}
		b.structs = append(b.structs, idxs)
	}
	return b.finish()
}
