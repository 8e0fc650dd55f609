package paths

import (
	"testing"
	"testing/quick"

	"repro/internal/graph"
	"repro/internal/rng"
	"repro/internal/topology"
)

func TestLevelAssignmentChain(t *testing.T) {
	g := lineGraph(5)
	c := MustCollection(g, []graph.Path{{0, 1, 2}, {2, 3, 4}})
	levels, ok := c.LevelAssignment()
	if !ok {
		t.Fatal("chain collection should be leveled")
	}
	for i := 0; i+1 < 5; i++ {
		if levels[i+1] != levels[i]+1 {
			t.Fatalf("levels not consecutive: %v", levels)
		}
	}
	if levels[0] != 0 {
		t.Errorf("component minimum should be 0: %v", levels)
	}
}

func TestLevelAssignmentConflict(t *testing.T) {
	// Two paths traversing the same edge in opposite directions force
	// level(v) = level(u)+1 and level(u) = level(v)+1 simultaneously.
	g := lineGraph(3)
	c := MustCollection(g, []graph.Path{{0, 1}, {1, 0}})
	if c.IsLeveled() {
		t.Fatal("opposite directions over one edge cannot be leveled")
	}
}

func TestLevelAssignmentOddCycle(t *testing.T) {
	// Going around an odd cycle in one direction: levels must increase by
	// 1 each step around a cycle of length 5 -> conflict.
	g := topology.NewRing(5).Graph()
	c := MustCollection(g, []graph.Path{{0, 1, 2, 3, 4, 0}})
	if c.IsLeveled() {
		t.Fatal("directed cycle cannot be leveled")
	}
}

func TestButterflyCollectionIsLeveled(t *testing.T) {
	b := topology.NewButterfly(3)
	src := rng.New(1)
	prs := ButterflyRandomQFunction(b, 2, src)
	c, err := Build(b.Graph(), prs, ButterflySelector(b))
	if err != nil {
		t.Fatal(err)
	}
	levels, ok := c.LevelAssignment()
	if !ok {
		t.Fatal("butterfly unique-path collection must be leveled")
	}
	// Levels must agree with butterfly levels on used nodes.
	for i := 0; i < c.Size(); i++ {
		for _, u := range c.Path(i) {
			if levels[u] != b.LevelOf(u) {
				t.Fatalf("node %d: assigned level %d, butterfly level %d",
					u, levels[u], b.LevelOf(u))
			}
		}
	}
}

func TestMeshDimOrderNotNecessarilyLeveled(t *testing.T) {
	// Opposite-direction traffic on a mesh breaks leveling.
	m := topology.NewMesh(1, 4)
	c, err := Build(m.Graph(), []Pair{{Src: 0, Dst: 3}, {Src: 3, Dst: 0}}, DimOrderMesh(m))
	if err != nil {
		t.Fatal(err)
	}
	if c.IsLeveled() {
		t.Fatal("bidirectional chain traffic should not be leveled")
	}
}

func TestIsShortCutFreeBasic(t *testing.T) {
	g := lineGraph(6)
	c := MustCollection(g, []graph.Path{{0, 1, 2, 3}, {1, 2, 3, 4}})
	if !c.IsShortCutFree() {
		t.Fatal("overlapping chain subpaths are not shortcuts")
	}
}

func TestIsShortCutFreeViolation(t *testing.T) {
	// p goes u ... v the long way; q goes u -> v directly.
	gb := graph.NewBuilder(4)
	gb.AddEdge(0, 1)
	gb.AddEdge(1, 2)
	gb.AddEdge(2, 3)
	gb.AddEdge(0, 3) // chord
	g := gb.Finalize()
	c := MustCollection(g, []graph.Path{{0, 1, 2, 3}, {0, 3}})
	if c.IsShortCutFree() {
		t.Fatal("chord path short-cuts the long path; must be detected")
	}
}

func TestIsShortCutFreeDirectionMatters(t *testing.T) {
	// q visits v before u, so it does not short-cut p's u..v subpath.
	gb := graph.NewBuilder(4)
	gb.AddEdge(0, 1)
	gb.AddEdge(1, 2)
	gb.AddEdge(2, 3)
	gb.AddEdge(0, 3)
	g := gb.Finalize()
	c := MustCollection(g, []graph.Path{{0, 1, 2, 3}, {3, 0}})
	if !c.IsShortCutFree() {
		t.Fatal("reverse-direction chord is not a shortcut")
	}
}

func TestSelfShortcutNonSimplePath(t *testing.T) {
	// A non-simple path that revisits a node with a shorter return leg
	// short-cuts itself: 0-1-2-0 has subpath 0..0? Use 0-1-2-3-1: the
	// subpath 1..1 (length 3) is "short-cut" by the trivial... build a
	// clear case: p = 0-1-2-3 and also q = 0-1-2-3 via p=q: no violation.
	// Non-simple: 0-1-2-0-3: subpath from 1 to 0 has length 2; within the
	// same path the edge 0->... there is no shorter 1..0 subpath, so it is
	// fine. Construct a true self-shortcut: 0-1-2-3-0-1 where the second
	// visit to 1 gives subpath 0..1 of length 1 shortcutting nothing, but
	// subpath 1..0 (positions 1..4, length 3) vs ... we need two u..v
	// subpaths of different lengths: node 0 at positions 0 and 4, node 1
	// at positions 1 and 5: subpath 0..1 appears with lengths 1 (pos 0->1),
	// 5 (pos 0->5), and 1 (pos 4->5): lengths differ -> self-shortcut.
	gb := graph.NewBuilder(4)
	gb.AddEdge(0, 1)
	gb.AddEdge(1, 2)
	gb.AddEdge(2, 3)
	gb.AddEdge(3, 0)
	g := gb.Finalize()
	c := MustCollection(g, []graph.Path{{0, 1, 2, 3, 0, 1}})
	if c.IsShortCutFree() {
		t.Fatal("self-shortcut through repeated visits must be detected")
	}
}

func TestShortestPathCollectionsAreShortCutFree(t *testing.T) {
	// Property: any collection of shortest paths is short-cut free,
	// because subpaths of shortest paths are shortest.
	tor := topology.NewTorus(2, 5)
	src := rng.New(9)
	check := func(seed uint16) bool {
		s := rng.New(uint64(seed))
		prs := RandomFunction(tor.Graph().NumNodes(), s)[:10]
		c, err := Build(tor.Graph(), prs, BFSSelector(tor.Graph()))
		if err != nil {
			return false
		}
		return c.IsShortCutFree()
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
	_ = src
}

func TestDimOrderTorusShortCutFree(t *testing.T) {
	tor := topology.NewTorus(2, 6)
	src := rng.New(12)
	prs := RandomPermutation(tor.Graph().NumNodes(), src)
	c, err := Build(tor.Graph(), prs, DimOrderTorus(tor))
	if err != nil {
		t.Fatal(err)
	}
	if !c.IsShortCutFree() {
		t.Fatal("dimension-order torus paths must be short-cut free")
	}
}

func TestButterflyQFunctionShortCutFree(t *testing.T) {
	b := topology.NewButterfly(3)
	src := rng.New(4)
	prs := ButterflyRandomQFunction(b, 1, src)
	c, err := Build(b.Graph(), prs, ButterflySelector(b))
	if err != nil {
		t.Fatal(err)
	}
	if !c.IsShortCutFree() {
		t.Error("butterfly unique paths must be short-cut free")
	}
}

func TestLeveledImpliesConsistentOnSharedStructure(t *testing.T) {
	// Identical paths: leveled and shortcut-free.
	g := lineGraph(5)
	ps := []graph.Path{{0, 1, 2, 3}, {0, 1, 2, 3}, {0, 1, 2, 3}}
	c := MustCollection(g, ps)
	if !c.IsLeveled() || !c.IsShortCutFree() {
		t.Error("identical paths must be leveled and shortcut free")
	}
}
