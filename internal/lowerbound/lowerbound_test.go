package lowerbound

import (
	"fmt"
	"slices"
	"testing"

	"repro/internal/graph"
	"repro/internal/optical"
	"repro/internal/sim"
)

func TestStaggeredStructure(t *testing.T) {
	for _, L := range []int{2, 3, 4, 5, 7} {
		d := (L-1)/2 + 1
		D := 3*d + 4
		b := Staggered(1, 4, D, L)
		c := b.Collection
		if c.Size() != 4 {
			t.Fatalf("L=%d: size = %d", L, c.Size())
		}
		if c.Dilation() != D {
			t.Fatalf("L=%d: dilation = %d, want %d", L, c.Dilation(), D)
		}
		// Consecutive paths share exactly one edge; others none.
		for i := 0; i < 4; i++ {
			for j := i + 1; j < 4; j++ {
				shared := sharedLinks(c.Graph(), c.Path(i), c.Path(j))
				want := 0
				if j == i+1 {
					want = 1
				}
				if shared != want {
					t.Errorf("L=%d: paths %d,%d share %d links, want %d", L, i, j, shared, want)
				}
			}
		}
		// The shared edge with path i+1 sits at offset d of path i and at
		// offset 0 of path i+1 (the "starts (i-1)d levels later" stagger).
		if !c.IsLeveled() {
			t.Errorf("L=%d: staggered structure must be leveled", L)
		}
		if !c.IsShortCutFree() {
			t.Errorf("L=%d: staggered structure must be short-cut free", L)
		}
		if len(b.Structures) != 1 || len(b.Structures[0]) != 4 {
			t.Error("structure index wrong")
		}
		if b.Ranks[0] != 0 || b.Ranks[3] != 3 {
			t.Errorf("adversarial ranks = %v", b.Ranks[:4])
		}
	}
}

func sharedLinks(g *graph.Graph, p, q graph.Path) int {
	in := map[graph.LinkID]bool{}
	for _, id := range p.Links(g) {
		in[id] = true
	}
	n := 0
	for _, id := range q.Links(g) {
		if in[id] {
			n++
		}
	}
	return n
}

func TestStaggeredSharedEdgeOffsets(t *testing.T) {
	L := 5 // d = 3
	d := 3
	b := Staggered(1, 3, 10, L)
	c := b.Collection
	g := c.Graph()
	for i := 0; i+1 < 3; i++ {
		p, q := c.Path(i), c.Path(i+1)
		// Path i's link at offset d equals path i+1's link at offset 0.
		pl, ql := p.Links(g), q.Links(g)
		if pl[d] != ql[0] {
			t.Errorf("paths %d,%d: shared edge not at offsets (%d, 0)", i, i+1, d)
		}
	}
}

func TestStaggeredMultipleStructuresDisjoint(t *testing.T) {
	b := Staggered(3, 3, 8, 3)
	c := b.Collection
	if c.Size() != 9 || len(b.Structures) != 3 {
		t.Fatal("sizes")
	}
	// Paths of different structures share nothing.
	for _, i := range b.Structures[0] {
		for _, j := range b.Structures[1] {
			if sharedLinks(c.Graph(), c.Path(i), c.Path(j)) != 0 {
				t.Fatal("structures must be disjoint")
			}
		}
	}
}

// TestStaggeredChainElimination verifies the Lemma 2.8 mechanism: with the
// right delays, worm i+1 blocks worm i, so in one round only the last worm
// survives.
func TestStaggeredChainElimination(t *testing.T) {
	L := 4 // d = 2
	m := 4
	b := Staggered(1, m, 12, L)
	c := b.Collection
	g := c.Graph()
	// All worms same wavelength, same delay: worm i+1 enters the shared
	// edge (its offset 0) at delay; worm i reaches that edge (offset d) at
	// delay+d, finding worm i+1's occupancy [delay, delay+L-1] since
	// d <= L-1. So every worm except the last is eliminated.
	worms := make([]sim.Worm, m)
	for i := 0; i < m; i++ {
		worms[i] = sim.Worm{ID: i, Path: c.Path(i), Length: L, Delay: 5, Wavelength: 0}
	}
	res, err := sim.NewEngine().Run(g, worms, sim.Config{
		Bandwidth: 1, Rule: optical.ServeFirst, Wreckage: sim.Drain,
		RecordCollisions: true, CheckInvariants: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < m-1; i++ {
		if res.Outcomes[i].Delivered {
			t.Errorf("worm %d should be blocked by worm %d", i, i+1)
		}
	}
	if !res.Outcomes[m-1].Delivered {
		t.Error("last worm has no blocker and must be delivered")
	}
}

func TestCyclicStructure(t *testing.T) {
	for _, L := range []int{2, 3, 4, 5, 8} {
		q := L / 2
		if q < 1 {
			q = 1
		}
		D := q + 5
		b := Cyclic(2, D, L)
		c := b.Collection
		if c.Size() != 6 {
			t.Fatalf("L=%d: size = %d", L, c.Size())
		}
		// Within a structure, every pair of paths shares exactly one edge.
		for _, st := range b.Structures {
			for x := 0; x < 3; x++ {
				for y := x + 1; y < 3; y++ {
					n := sharedLinks(c.Graph(), c.Path(st[x]), c.Path(st[y]))
					if n != 1 {
						t.Errorf("L=%d: cyclic paths %d,%d share %d links, want 1", L, x, y, n)
					}
				}
			}
		}
		if !c.IsShortCutFree() {
			t.Errorf("L=%d: cyclic structure must be short-cut free", L)
		}
		if c.IsLeveled() {
			t.Errorf("L=%d: cyclic structure must NOT be leveled", L)
		}
	}
}

// TestCyclicMutualElimination verifies the Figure 6 mechanism: with equal
// delays and one wavelength, the three worms eliminate each other in a
// directed cycle under serve-first (nobody survives), whereas the priority
// rule with distinct ranks lets at least one worm through.
func TestCyclicMutualElimination(t *testing.T) {
	for _, L := range []int{2, 4, 6} {
		b := Cyclic(1, L/2+4, L)
		c := b.Collection
		g := c.Graph()
		worms := make([]sim.Worm, 3)
		for i := 0; i < 3; i++ {
			worms[i] = sim.Worm{ID: i, Path: c.Path(i), Length: L, Delay: 3, Wavelength: 0, Rank: i}
		}
		resSF, err := sim.NewEngine().Run(g, worms, sim.Config{
			Bandwidth: 1, Rule: optical.ServeFirst, Wreckage: sim.Drain,
			RecordCollisions: true, CheckInvariants: true,
		})
		if err != nil {
			t.Fatal(err)
		}
		if resSF.DeliveredCount != 0 {
			t.Errorf("L=%d serve-first: %d delivered, want 0 (mutual elimination)",
				L, resSF.DeliveredCount)
		}
		resPrio, err := sim.NewEngine().Run(g, worms, sim.Config{
			Bandwidth: 1, Rule: optical.Priority, Wreckage: sim.Drain,
			RecordCollisions: true, CheckInvariants: true,
		})
		if err != nil {
			t.Fatal(err)
		}
		if resPrio.DeliveredCount < 1 {
			t.Errorf("L=%d priority: %d delivered, want >= 1 (cycle broken)",
				L, resPrio.DeliveredCount)
		}
	}
}

func TestIdenticalStructure(t *testing.T) {
	b := Identical(2, 5, 7)
	c := b.Collection
	if c.Size() != 10 {
		t.Fatal("size")
	}
	if c.PathCongestion() != 5 {
		t.Errorf("path congestion = %d, want 5", c.PathCongestion())
	}
	if c.Dilation() != 7 {
		t.Errorf("dilation = %d", c.Dilation())
	}
	if !c.IsLeveled() || !c.IsShortCutFree() {
		t.Error("identical paths must be leveled and short-cut free")
	}
}

func TestMixed(t *testing.T) {
	b := Mixed("staggered", 2, 3, 2, 4, 10, 3)
	if b.Collection.Size() != 2*3+2*4 {
		t.Fatalf("size = %d", b.Collection.Size())
	}
	if len(b.Structures) != 4 {
		t.Fatalf("structures = %d", len(b.Structures))
	}
	// Worm indices must partition [0, size).
	seen := map[int]bool{}
	for _, st := range b.Structures {
		for _, w := range st {
			if seen[w] {
				t.Fatal("worm in two structures")
			}
			seen[w] = true
		}
	}
	if len(seen) != b.Collection.Size() {
		t.Fatal("structures do not cover all worms")
	}
	if len(b.Ranks) != b.Collection.Size() {
		t.Fatal("ranks length")
	}
	// Stats still sane after merge.
	if b.Collection.PathCongestion() != 4 {
		t.Errorf("merged path congestion = %d, want 4", b.Collection.PathCongestion())
	}

	b2 := Mixed("cyclic", 2, 0, 1, 3, 8, 4)
	if b2.Collection.Size() != 2*3+3 {
		t.Fatalf("cyclic mixed size = %d", b2.Collection.Size())
	}
}

func TestGeneratorPanics(t *testing.T) {
	for name, f := range map[string]func(){
		"staggered structures 0": func() { Staggered(0, 2, 8, 3) },
		"staggered L 1":          func() { Staggered(1, 2, 8, 1) },
		"staggered D short":      func() { Staggered(1, 2, 1, 5) },
		"cyclic structures 0":    func() { Cyclic(0, 8, 3) },
		"cyclic L 1":             func() { Cyclic(1, 8, 1) },
		"cyclic D short":         func() { Cyclic(1, 1, 8) },
		"identical 0":            func() { Identical(0, 2, 3) },
		"identical D 0":          func() { Identical(1, 2, 0) },
		"mixed bad kind":         func() { Mixed("weird", 1, 2, 1, 2, 8, 3) },
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

// TestFinishMatchesAddEdgeGraph pins the one-pass graph build against the
// per-edge Graph.AddEdge build it replaced. Every generator records its
// edges as the consecutive node pairs of its paths, in path order, so
// re-adding those pairs one by one (AddEdge drops the repeats) reproduces
// the old graph: link IDs, per-node orders and lookups must all agree.
func TestFinishMatchesAddEdgeGraph(t *testing.T) {
	builds := map[string]*Build{}
	for _, L := range []int{2, 3, 4, 7} {
		d := (L-1)/2 + 1
		builds[fmt.Sprintf("staggered-L%d", L)] = Staggered(3, 4, 3*d+4, L)
		builds[fmt.Sprintf("cyclic-L%d", L)] = Cyclic(3, L/2+3, L)
		builds[fmt.Sprintf("mixed-staggered-L%d", L)] = Mixed("staggered", 2, 3, 2, 4, 3*d+4, L)
		builds[fmt.Sprintf("mixed-cyclic-L%d", L)] = Mixed("cyclic", 2, 3, 2, 4, L/2+3, L)
	}
	builds["identical"] = Identical(3, 5, 6)
	for name, b := range builds {
		got := b.Graph
		want := graph.New(got.NumNodes())
		for _, p := range b.Collection.Paths() {
			for k := 0; k+1 < len(p); k++ {
				want.AddEdge(p[k], p[k+1])
			}
		}
		if got.NumLinks() != want.NumLinks() {
			t.Fatalf("%s: %d links, AddEdge build has %d", name, got.NumLinks(), want.NumLinks())
		}
		for id := 0; id < got.NumLinks(); id++ {
			if got.Link(id) != want.Link(id) {
				t.Fatalf("%s: link %d = %v, AddEdge build has %v", name, id, got.Link(id), want.Link(id))
			}
		}
		for u := 0; u < got.NumNodes(); u++ {
			if !slices.Equal(got.Out(u), want.Out(u)) || !slices.Equal(got.In(u), want.In(u)) {
				t.Fatalf("%s: node %d out/in = %v/%v, AddEdge build has %v/%v",
					name, u, got.Out(u), got.In(u), want.Out(u), want.In(u))
			}
			for v := 0; v < got.NumNodes(); v++ {
				gid, gok := got.LinkBetween(u, v)
				wid, wok := want.LinkBetween(u, v)
				if gid != wid || gok != wok {
					t.Fatalf("%s: LinkBetween(%d, %d) = %d,%t, AddEdge build has %d,%t", name, u, v, gid, gok, wid, wok)
				}
			}
		}
	}
}
