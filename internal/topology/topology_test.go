package topology

import (
	"testing"

	"repro/internal/graph"
)

// checkAutomorphism verifies that phi is a graph automorphism of g: a
// bijection on nodes mapping edges to edges.
func checkAutomorphism(t *testing.T, g *graph.Graph, phi func(graph.NodeID) graph.NodeID) {
	t.Helper()
	n := g.NumNodes()
	seen := make([]bool, n)
	for u := 0; u < n; u++ {
		v := phi(u)
		if v < 0 || v >= n || seen[v] {
			t.Fatalf("phi is not a bijection: phi(%d) = %d", u, v)
		}
		seen[v] = true
	}
	for u, row := range neighborRows(g) {
		for _, w := range row {
			if !hasEdge(g, phi(u), phi(w)) {
				t.Fatalf("phi does not preserve edge {%d,%d}: image {%d,%d} missing",
					u, w, phi(u), phi(w))
			}
		}
	}
}

// checkVertexTransitive verifies AutomorphismTo for a sample of targets.
func checkVertexTransitive(t *testing.T, vt VertexTransitive) {
	t.Helper()
	g := vt.Graph()
	n := g.NumNodes()
	targets := []int{0, 1, n / 2, n - 1}
	for _, u := range targets {
		phi := vt.AutomorphismTo(u)
		if phi(0) != u {
			t.Fatalf("%s: AutomorphismTo(%d) maps 0 to %d", vt.Name(), u, phi(0))
		}
		checkAutomorphism(t, g, phi)
	}
}

func TestChain(t *testing.T) {
	c := NewChain(5)
	g := c.Graph()
	if g.NumNodes() != 5 || g.NumEdges() != 4 {
		t.Fatalf("chain(5): %d nodes %d edges", g.NumNodes(), g.NumEdges())
	}
	if g.Diameter() != 4 {
		t.Errorf("chain(5) diameter = %d", g.Diameter())
	}
	if c.Name() != "chain(5)" {
		t.Errorf("name = %q", c.Name())
	}
}

func TestRing(t *testing.T) {
	r := NewRing(8)
	g := r.Graph()
	if g.NumNodes() != 8 || g.NumEdges() != 8 {
		t.Fatalf("ring(8): %d nodes %d edges", g.NumNodes(), g.NumEdges())
	}
	if g.Diameter() != 4 {
		t.Errorf("ring(8) diameter = %d", g.Diameter())
	}
	for u := 0; u < 8; u++ {
		if g.Degree(u) != 2 {
			t.Errorf("ring degree at %d = %d", u, g.Degree(u))
		}
	}
	checkVertexTransitive(t, r)
}

func TestCirculant(t *testing.T) {
	c := NewCirculant(12, []int{1, 3})
	g := c.Graph()
	if g.NumNodes() != 12 {
		t.Fatal("node count")
	}
	for u := 0; u < 12; u++ {
		if g.Degree(u) != 4 {
			t.Errorf("circulant degree at %d = %d", u, g.Degree(u))
		}
	}
	checkVertexTransitive(t, c)
	if !hasEdge(g, 0, 3) || !hasEdge(g, 0, 11) {
		t.Error("offset edges missing")
	}
}

func TestCirculantPanics(t *testing.T) {
	for name, f := range map[string]func(){
		"too small":      func() { NewCirculant(2, []int{1}) },
		"no offsets":     func() { NewCirculant(5, nil) },
		"offset too big": func() { NewCirculant(10, []int{6}) },
		"offset zero":    func() { NewCirculant(10, []int{0}) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s did not panic", name)
				}
			}()
			f()
		}()
	}
}
