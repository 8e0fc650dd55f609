package topology

import (
	"fmt"

	"repro/internal/graph"
)

// StarGraph is the Akers-Krishnamurthy star graph S_k: vertices are the
// permutations of k symbols, and p is adjacent to p composed with the
// transposition of positions 1 and i for every i in 2..k. S_k is
// (k-1)-regular, vertex-transitive, and has diameter floor(3(k-1)/2) —
// another classic bounded-degree node-symmetric network for Theorem 1.5.
type StarGraph struct {
	base
	k     int
	perms [][]int // perms[id] = permutation of [0,k)
	index map[string]int
}

// NewStarGraph builds S_k on k! vertices. It panics unless 3 <= k <= 7
// (k = 7 is already 5040 routers).
func NewStarGraph(k int) *StarGraph {
	if k < 3 || k > 7 {
		panic("topology: star graph needs 3 <= k <= 7")
	}
	s := &StarGraph{k: k, index: make(map[string]int)}
	s.perms = allPerms(k)
	for id, p := range s.perms {
		s.index[permKey(p)] = id
	}
	// Every edge is recorded from both ends; Finalize keeps the first.
	b := graph.NewBuilder(len(s.perms))
	b.Grow(len(s.perms) * (k - 1))
	for id, p := range s.perms {
		for i := 1; i < k; i++ {
			q := append([]int(nil), p...)
			q[0], q[i] = q[i], q[0]
			b.AddEdge(id, s.index[permKey(q)])
		}
	}
	g := b.Finalize()
	g.SetLabeler(func(u graph.NodeID) string { return fmt.Sprint(s.perms[u]) })
	s.base = base{g: g, name: fmt.Sprintf("star-graph(%d)", k)}
	return s
}

func allPerms(k int) [][]int {
	var out [][]int
	p := make([]int, k)
	for i := range p {
		p[i] = i
	}
	var rec func(i int)
	rec = func(i int) {
		if i == k {
			out = append(out, append([]int(nil), p...))
			return
		}
		for j := i; j < k; j++ {
			p[i], p[j] = p[j], p[i]
			rec(i + 1)
			p[i], p[j] = p[j], p[i]
		}
	}
	rec(0)
	return out
}

func permKey(p []int) string {
	b := make([]byte, len(p))
	for i, v := range p {
		b[i] = byte(v)
	}
	return string(b)
}

// AutomorphismTo implements VertexTransitive: left multiplication by a
// fixed permutation maps edges to edges, because the star generators act
// on positions (on the right): q(p tau_i) = (qp) tau_i. Choosing q as the
// target's permutation maps the identity (node of [0..k-1]) to u.
func (s *StarGraph) AutomorphismTo(u graph.NodeID) func(graph.NodeID) graph.NodeID {
	q := s.perms[u]
	// phi(p) = q o p, i.e. (q o p)[i] = q[p[i]].
	return func(x graph.NodeID) graph.NodeID {
		p := s.perms[x]
		qp := make([]int, s.k)
		for i := range qp {
			qp[i] = q[p[i]]
		}
		return s.index[permKey(qp)]
	}
}
