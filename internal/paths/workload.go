package paths

import (
	"fmt"

	"repro/internal/rng"
	"repro/internal/topology"
)

// Workload generators produce the (source, destination) request sets the
// paper's applications route: permutations, random functions ("routing a
// function": node i sends one message to f(i)") and random q-functions
// (each node is the source of q messages).

// RandomPermutation returns the pairs (i, pi(i)) for a uniformly random
// permutation pi of [n]. Fixed points are included (Build skips them).
func RandomPermutation(n int, src *rng.Source) []Pair {
	perm := src.Perm(n)
	prs := make([]Pair, n)
	for i, d := range perm {
		prs[i] = Pair{Src: i, Dst: d}
	}
	return prs
}

// RandomFunction returns the pairs (i, f(i)) for a uniformly random
// function f: [n] -> [n].
func RandomFunction(n int, src *rng.Source) []Pair {
	prs := make([]Pair, n)
	for i := range prs {
		prs[i] = Pair{Src: i, Dst: src.Intn(n)}
	}
	return prs
}

// RandomQFunction returns q*n pairs: each node is the source of q messages
// with independently uniform destinations (the paper's random q-function).
func RandomQFunction(q, n int, src *rng.Source) []Pair {
	prs := make([]Pair, 0, q*n)
	for k := 0; k < q; k++ {
		for i := 0; i < n; i++ {
			prs = append(prs, Pair{Src: i, Dst: src.Intn(n)})
		}
	}
	return prs
}

// ButterflyRandomQFunction returns q*2^k pairs from the butterfly's inputs
// to uniformly random outputs, the workload of Theorem 1.7.
func ButterflyRandomQFunction(b *topology.Butterfly, q int, src *rng.Source) []Pair {
	ins, outs := b.Inputs(), b.Outputs()
	prs := make([]Pair, 0, q*len(ins))
	for k := 0; k < q; k++ {
		for _, in := range ins {
			prs = append(prs, Pair{Src: in, Dst: outs[src.Intn(len(outs))]})
		}
	}
	return prs
}

// ButterflyPermutation returns pairs from butterfly input r to output
// perm[r].
func ButterflyPermutation(b *topology.Butterfly, perm []int) []Pair {
	ins, outs := b.Inputs(), b.Outputs()
	if len(perm) != len(ins) {
		panic(fmt.Sprintf("paths: permutation length %d != %d rows", len(perm), len(ins)))
	}
	prs := make([]Pair, len(ins))
	for r, in := range ins {
		prs[r] = Pair{Src: in, Dst: outs[perm[r]]}
	}
	return prs
}

// BitReversal returns the bit-reversal permutation pairs on a 2^k-node
// network: node u sends to the node whose k-bit address is u reversed.
// A classic adversarial permutation for meshes and butterflies.
func BitReversal(k int) []Pair {
	n := 1 << k
	prs := make([]Pair, n)
	for u := 0; u < n; u++ {
		r := 0
		for b := 0; b < k; b++ {
			if u&(1<<b) != 0 {
				r |= 1 << (k - 1 - b)
			}
		}
		prs[u] = Pair{Src: u, Dst: r}
	}
	return prs
}

// Transpose returns the matrix-transpose permutation on a 2-dimensional
// side x side mesh or torus node set: (x, y) sends to (y, x), with node
// ids in row-major order as produced by the mesh/torus generators.
func Transpose(side int) []Pair {
	prs := make([]Pair, 0, side*side)
	for y := 0; y < side; y++ {
		for x := 0; x < side; x++ {
			prs = append(prs, Pair{Src: y*side + x, Dst: x*side + y})
		}
	}
	return prs
}
