package topology

import (
	"testing"
)

func TestStarGraphStructure(t *testing.T) {
	s := NewStarGraph(4)
	g := s.Graph()
	if g.NumNodes() != 24 { // 4!
		t.Fatalf("S4 nodes = %d, want 24", g.NumNodes())
	}
	// (k-1)-regular.
	for u := 0; u < g.NumNodes(); u++ {
		if g.Degree(u) != 3 {
			t.Fatalf("S4 degree at %d = %d, want 3", u, g.Degree(u))
		}
	}
	if g.Eccentricity(0) < 0 {
		t.Fatal("star graph not connected")
	}
	// Diameter of S_k is floor(3(k-1)/2): S4 -> 4.
	if d := g.Diameter(); d != 4 {
		t.Errorf("S4 diameter = %d, want 4", d)
	}
	if s.K() != 4 {
		t.Error("K accessor")
	}
}

func TestStarGraphEdges(t *testing.T) {
	s := NewStarGraph(4)
	g := s.Graph()
	id := s.NodeOf([]int{0, 1, 2, 3})
	// Neighbors: swap position 0 with positions 1..3.
	for _, want := range [][]int{{1, 0, 2, 3}, {2, 1, 0, 3}, {3, 1, 2, 0}} {
		if !hasEdge(g, id, s.NodeOf(want)) {
			t.Errorf("edge to %v missing", want)
		}
	}
	// Not adjacent: a swap not involving position 0.
	if hasEdge(g, id, s.NodeOf([]int{0, 2, 1, 3})) {
		t.Error("non-generator edge present")
	}
}

func TestStarGraphVertexTransitive(t *testing.T) {
	s := NewStarGraph(4)
	checkVertexTransitive(t, s)
}

func TestStarGraphPermRoundTrip(t *testing.T) {
	s := NewStarGraph(5)
	for u := 0; u < s.Graph().NumNodes(); u += 7 {
		if s.NodeOf(s.Perm(u)) != u {
			t.Fatalf("perm round trip failed at %d", u)
		}
	}
}

func TestStarGraphPanics(t *testing.T) {
	for name, f := range map[string]func(){
		"k too small": func() { NewStarGraph(2) },
		"k too big":   func() { NewStarGraph(8) },
		"bad perm":    func() { NewStarGraph(3).NodeOf([]int{0, 0, 1}) },
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
