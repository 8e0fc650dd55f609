package topology

import (
	"testing"
	"testing/quick"

	"repro/internal/rng"
)

func TestMesh2D(t *testing.T) {
	m := NewMesh(2, 4)
	g := m.Graph()
	if g.NumNodes() != 16 {
		t.Fatalf("mesh(2,4) nodes = %d", g.NumNodes())
	}
	// Edge count: 2 * side^(d-1) * (side-1) * ... = d * (side-1) * side^(d-1).
	if want := 2 * 3 * 4; g.NumEdges() != want {
		t.Fatalf("mesh(2,4) edges = %d, want %d", g.NumEdges(), want)
	}
	if g.Diameter() != 6 {
		t.Errorf("mesh(2,4) diameter = %d, want 6", g.Diameter())
	}
	// Corner degree 2, edge degree 3, inner degree 4.
	if g.Degree(m.NodeAt([]int{0, 0})) != 2 {
		t.Error("corner degree")
	}
	if g.Degree(m.NodeAt([]int{1, 0})) != 3 {
		t.Error("border degree")
	}
	if g.Degree(m.NodeAt([]int{1, 1})) != 4 {
		t.Error("inner degree")
	}
}

func TestMeshCoordRoundTrip(t *testing.T) {
	m := NewMesh(3, 5)
	check := func(u uint16) bool {
		id := int(u) % m.Graph().NumNodes()
		return m.NodeAt(m.Coord(id)) == id
	}
	if err := quick.Check(check, nil); err != nil {
		t.Fatal(err)
	}
	if m.Dims() != 3 || m.Side() != 5 {
		t.Error("accessors")
	}
}

func TestMeshEdgesAreUnitSteps(t *testing.T) {
	m := NewMesh(3, 3)
	g := m.Graph()
	for u, row := range neighborRows(g) {
		cu := m.Coord(u)
		for _, v := range row {
			cv := m.Coord(v)
			diff := 0
			for d := range cu {
				if cu[d] != cv[d] {
					diff++
					if cu[d]-cv[d] != 1 && cv[d]-cu[d] != 1 {
						t.Fatalf("edge %v-%v is not a unit step", cu, cv)
					}
				}
			}
			if diff != 1 {
				t.Fatalf("edge %v-%v changes %d coordinates", cu, cv, diff)
			}
		}
	}
}

func TestTorus(t *testing.T) {
	tor := NewTorus(2, 5)
	g := tor.Graph()
	if g.NumNodes() != 25 {
		t.Fatalf("torus(2,5) nodes = %d", g.NumNodes())
	}
	if want := 2 * 25; g.NumEdges() != want { // d * n edges
		t.Fatalf("torus(2,5) edges = %d, want %d", g.NumEdges(), want)
	}
	for u := 0; u < 25; u++ {
		if g.Degree(u) != 4 {
			t.Fatalf("torus degree at %d = %d", u, g.Degree(u))
		}
	}
	if g.Diameter() != 4 { // 2 * floor(5/2)
		t.Errorf("torus(2,5) diameter = %d, want 4", g.Diameter())
	}
	checkVertexTransitive(t, tor)
	if tor.Dims() != 2 || tor.Side() != 5 {
		t.Error("accessors")
	}
}

func TestTorusWrapEdges(t *testing.T) {
	tor := NewTorus(1, 6)
	g := tor.Graph()
	if !hasEdge(g, tor.NodeAt([]int{5}), tor.NodeAt([]int{0})) {
		t.Error("wrap-around edge missing")
	}
}

func TestTorusCoordRoundTrip(t *testing.T) {
	tor := NewTorus(2, 7)
	for u := 0; u < tor.Graph().NumNodes(); u++ {
		if tor.NodeAt(tor.Coord(u)) != u {
			t.Fatalf("coord round trip failed at %d", u)
		}
	}
}

func TestMeshTorusPanics(t *testing.T) {
	for name, f := range map[string]func(){
		"mesh dims 0":     func() { NewMesh(0, 4) },
		"mesh side 1":     func() { NewMesh(2, 1) },
		"torus side 2":    func() { NewTorus(2, 2) },
		"nodeAt range":    func() { NewMesh(2, 3).NodeAt([]int{0, 5}) },
		"nodeAt dims":     func() { NewMesh(2, 3).NodeAt([]int{0}) },
		"nodeAt negative": func() { NewMesh(2, 3).NodeAt([]int{-1, 0}) },
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

func TestHypercube(t *testing.T) {
	h := NewHypercube(4)
	g := h.Graph()
	if g.NumNodes() != 16 || g.NumEdges() != 32 {
		t.Fatalf("Q4: %d nodes %d edges", g.NumNodes(), g.NumEdges())
	}
	for u := 0; u < 16; u++ {
		if g.Degree(u) != 4 {
			t.Fatalf("Q4 degree at %d = %d", u, g.Degree(u))
		}
	}
	if g.Diameter() != 4 {
		t.Errorf("Q4 diameter = %d", g.Diameter())
	}
	checkVertexTransitive(t, h)
	if h.Dim() != 4 {
		t.Error("Dim accessor")
	}
}

func TestHypercubeDistanceIsHamming(t *testing.T) {
	h := NewHypercube(5)
	g := h.Graph()
	dist := g.BFS(0)
	for u := 0; u < g.NumNodes(); u++ {
		pop := 0
		for x := u; x != 0; x &= x - 1 {
			pop++
		}
		if dist[u] != pop {
			t.Fatalf("dist(0,%b) = %d, want popcount %d", u, dist[u], pop)
		}
	}
}

func TestTorusAutomorphismComposition(t *testing.T) {
	tor := NewTorus(2, 4)
	// phi_u followed by phi_v equals phi_{u+v} in the translation group.
	u := tor.NodeAt([]int{1, 2})
	v := tor.NodeAt([]int{3, 1})
	w := tor.NodeAt([]int{(1 + 3) % 4, (2 + 1) % 4})
	pu, pv, pw := tor.AutomorphismTo(u), tor.AutomorphismTo(v), tor.AutomorphismTo(w)
	for x := 0; x < tor.Graph().NumNodes(); x++ {
		if pv(pu(x)) != pw(x) {
			t.Fatalf("translation composition failed at node %d", x)
		}
	}
}

func TestMeshSideTwoAllowed(t *testing.T) {
	m := NewMesh(3, 2) // the 3-cube as a mesh
	if m.Graph().NumNodes() != 8 || m.Graph().NumEdges() != 12 {
		t.Errorf("mesh(3,2): %d nodes %d edges", m.Graph().NumNodes(), m.Graph().NumEdges())
	}
}

func TestMeshLabels(t *testing.T) {
	m := NewMesh(2, 3)
	if m.Graph().NodeLabel(4) != "[1 1]" {
		t.Errorf("label = %q", m.Graph().NodeLabel(4))
	}
}

var _ = rng.New // keep import if unused in future edits
