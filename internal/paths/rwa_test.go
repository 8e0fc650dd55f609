package paths

import (
	"testing"
	"testing/quick"

	"repro/internal/graph"
	"repro/internal/rng"
	"repro/internal/topology"
)

func TestGreedyAssignmentIdenticalPaths(t *testing.T) {
	g := lineGraph(5)
	ps := make([]graph.Path, 6)
	for i := range ps {
		ps[i] = graph.Path{0, 1, 2, 3}
	}
	c := MustCollection(g, ps)
	colors, used := c.GreedyWavelengthAssignment()
	if used != 6 {
		t.Fatalf("identical paths need one wavelength each: used = %d", used)
	}
	if !c.ValidWavelengthAssignment(colors) {
		t.Fatal("invalid assignment")
	}
}

func TestGreedyAssignmentDisjointPaths(t *testing.T) {
	g := lineGraph(9)
	c := MustCollection(g, []graph.Path{{0, 1, 2}, {3, 4, 5}, {6, 7, 8}})
	colors, used := c.GreedyWavelengthAssignment()
	if used != 1 {
		t.Fatalf("disjoint paths share one wavelength: used = %d", used)
	}
	if !c.ValidWavelengthAssignment(colors) {
		t.Fatal("invalid assignment")
	}
}

func TestGreedyAssignmentBounds(t *testing.T) {
	check := func(seed uint16) bool {
		src := rng.New(uint64(seed))
		tor := topology.NewTorus(2, 5)
		prs := RandomFunction(tor.Graph().NumNodes(), src)
		c, err := Build(tor.Graph(), prs, DimOrderTorus(tor))
		if err != nil {
			return false
		}
		colors, used := c.GreedyWavelengthAssignment()
		if !c.ValidWavelengthAssignment(colors) {
			return false
		}
		// Lower bound: edge congestion; upper bound: max degree + 1.
		return used >= c.EdgeCongestion() && used <= c.MaxConflictDegree()+1
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

func TestValidWavelengthAssignmentRejects(t *testing.T) {
	g := lineGraph(4)
	c := MustCollection(g, []graph.Path{{0, 1, 2}, {1, 2, 3}})
	if c.ValidWavelengthAssignment([]int{0, 0}) {
		t.Error("conflicting colors accepted")
	}
	if !c.ValidWavelengthAssignment([]int{0, 1}) {
		t.Error("valid coloring rejected")
	}
	if c.ValidWavelengthAssignment([]int{0}) {
		t.Error("wrong length accepted")
	}
}

func TestConflictDegree(t *testing.T) {
	g := lineGraph(4)
	c := MustCollection(g, []graph.Path{{0, 1, 2}, {1, 2, 3}, {0, 1}})
	deg := c.ConflictDegree()
	// Path 0 conflicts with both others; paths 1 and 2 only with path 0.
	if deg[0] != 2 || deg[1] != 1 || deg[2] != 1 {
		t.Errorf("degrees = %v, want [2 1 1]", deg)
	}
	if c.MaxConflictDegree() != 2 {
		t.Errorf("max degree = %d", c.MaxConflictDegree())
	}
}

func TestGreedyPrefersLongPathsFirst(t *testing.T) {
	// Deterministic order: the longest path gets color 0.
	g := lineGraph(6)
	c := MustCollection(g, []graph.Path{{0, 1}, {0, 1, 2, 3, 4, 5}})
	colors, used := c.GreedyWavelengthAssignment()
	if colors[1] != 0 {
		t.Errorf("longest path should be colored first: colors = %v", colors)
	}
	if used != 2 {
		t.Errorf("used = %d", used)
	}
}
