package topology

import (
	"testing"
)

func TestCCCStructure(t *testing.T) {
	c := NewCCC(3)
	g := c.Graph()
	if g.NumNodes() != 3*8 {
		t.Fatalf("ccc(3) nodes = %d, want 24", g.NumNodes())
	}
	// 3-regular everywhere.
	for u := 0; u < g.NumNodes(); u++ {
		if g.Degree(u) != 3 {
			t.Fatalf("ccc degree at %d = %d, want 3", u, g.Degree(u))
		}
	}
	if g.Eccentricity(0) < 0 {
		t.Fatal("ccc not connected")
	}
	// Cycle and cube edges.
	if !hasEdge(g, c.Node(5, 0), c.Node(5, 1)) {
		t.Error("cycle edge missing")
	}
	if !hasEdge(g, c.Node(5, 1), c.Node(7, 1)) { // flips bit 1: 101 -> 111
		t.Error("cube edge missing")
	}
	if hasEdge(g, c.Node(5, 0), c.Node(7, 0)) { // bit 1 flip at position 0
		t.Error("wrong cube edge present")
	}
}

func TestCCCRoundTrip(t *testing.T) {
	c := NewCCC(4)
	for w := 0; w < 16; w++ {
		for i := 0; i < 4; i++ {
			u := c.Node(w, i)
			if c.CubeOf(u) != w || c.PosOf(u) != i {
				t.Fatalf("round trip failed at (%d,%d)", w, i)
			}
		}
	}
	if c.Dim() != 4 {
		t.Error("Dim accessor")
	}
}

func TestCCCVertexTransitive(t *testing.T) {
	c := NewCCC(3)
	checkVertexTransitive(t, c)
	// Also check a non-trivial target with both coordinates shifted.
	phi := c.AutomorphismTo(c.Node(5, 2))
	if phi(0) != c.Node(5, 2) {
		t.Fatal("phi(0) wrong")
	}
	checkAutomorphism(t, c.Graph(), phi)
}

func TestCCCPanics(t *testing.T) {
	for name, f := range map[string]func(){
		"dim 2":      func() { NewCCC(2) },
		"node range": func() { NewCCC(3).Node(8, 0) },
		"pos range":  func() { NewCCC(3).Node(0, 3) },
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

func TestCCCLabels(t *testing.T) {
	c := NewCCC(3)
	if got := c.Graph().NodeLabel(c.Node(5, 1)); got != "(101,1)" {
		t.Errorf("label = %q", got)
	}
}
