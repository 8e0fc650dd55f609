package paths

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"testing"
	"testing/quick"

	"repro/internal/graph"
	"repro/internal/rng"
	"repro/internal/topology"
)

func TestBuildSkipsFixedPoints(t *testing.T) {
	g := lineGraph(4)
	c, err := Build(g, []Pair{{0, 0}, {0, 3}, {2, 2}}, BFSSelector(g))
	if err != nil {
		t.Fatal(err)
	}
	if c.Size() != 1 {
		t.Fatalf("size = %d, want 1 (fixed points skipped)", c.Size())
	}
}

func TestBuildRejectsNilSelector(t *testing.T) {
	g := lineGraph(3)
	if _, err := Build(g, []Pair{{0, 2}}, func(s, d graph.NodeID) graph.Path { return nil }); err == nil {
		t.Fatal("nil selector result accepted")
	}
}

func TestDimOrderMesh(t *testing.T) {
	m := topology.NewMesh(2, 4)
	sel := DimOrderMesh(m)
	p := sel(m.NodeAt([]int{0, 0}), m.NodeAt([]int{3, 2}))
	if p.Len() != 5 {
		t.Fatalf("path length = %d, want 5 (L1 distance)", p.Len())
	}
	if err := checkPath(m.Graph(), p); err != nil {
		t.Fatal(err)
	}
	// First dimension corrected first.
	if m.Coord(p[1])[0] != 1 || m.Coord(p[1])[1] != 0 {
		t.Errorf("second node = %v, want [1 0]", m.Coord(p[1]))
	}
	// Negative direction too.
	p2 := sel(m.NodeAt([]int{3, 3}), m.NodeAt([]int{0, 0}))
	if p2.Len() != 6 {
		t.Errorf("reverse path length = %d, want 6", p2.Len())
	}
}

func TestDimOrderMeshIsShortest(t *testing.T) {
	m := topology.NewMesh(2, 5)
	g := m.Graph()
	sel := DimOrderMesh(m)
	check := func(a, b uint8) bool {
		s, d := int(a)%25, int(b)%25
		if s == d {
			return true
		}
		p := sel(s, d)
		return checkPath(g, p) == nil && p.Len() == g.BFS(s)[d]
	}
	if err := quick.Check(check, nil); err != nil {
		t.Fatal(err)
	}
}

func TestDimOrderTorusIsShortest(t *testing.T) {
	tor := topology.NewTorus(2, 5)
	g := tor.Graph()
	sel := DimOrderTorus(tor)
	check := func(a, b uint8) bool {
		s, d := int(a)%25, int(b)%25
		if s == d {
			return true
		}
		p := sel(s, d)
		return checkPath(g, p) == nil && p.Len() == g.BFS(s)[d]
	}
	if err := quick.Check(check, nil); err != nil {
		t.Fatal(err)
	}
}

func TestDimOrderTorusWrap(t *testing.T) {
	tor := topology.NewTorus(1, 6)
	sel := DimOrderTorus(tor)
	// 0 -> 5 should wrap backwards in 1 step.
	p := sel(0, 5)
	if p.Len() != 1 {
		t.Fatalf("0->5 on ring6: length %d, want 1 (wrap)", p.Len())
	}
	// 0 -> 3 tie: positive direction chosen.
	p2 := sel(0, 3)
	if p2.Len() != 3 || p2[1] != 1 {
		t.Errorf("tie not broken positively: %v", p2)
	}
}

func TestBitFixing(t *testing.T) {
	h := topology.NewHypercube(4)
	g := h.Graph()
	sel := BitFixing(h)
	p := sel(0b0000, 0b1011)
	if p.Len() != 3 {
		t.Fatalf("path length = %d, want 3 (Hamming distance)", p.Len())
	}
	if err := checkPath(g, p); err != nil {
		t.Fatal(err)
	}
	// Bits fixed lowest first.
	if p[1] != 0b0001 || p[2] != 0b0011 || p[3] != 0b1011 {
		t.Errorf("bit-fixing order wrong: %v", p)
	}
}

func TestBitFixingIsShortestProperty(t *testing.T) {
	h := topology.NewHypercube(5)
	g := h.Graph()
	sel := BitFixing(h)
	check := func(a, b uint8) bool {
		s, d := int(a)%32, int(b)%32
		if s == d {
			return true
		}
		p := sel(s, d)
		return checkPath(g, p) == nil && p.Len() == g.BFS(s)[d]
	}
	if err := quick.Check(check, nil); err != nil {
		t.Fatal(err)
	}
}

func TestButterflySelectorPanics(t *testing.T) {
	b := topology.NewButterfly(3)
	sel := ButterflySelector(b)
	node := func(level, row int) graph.NodeID { return level*b.Rows() + row }
	for name, f := range map[string]func(){
		"src not level 0": func() { sel(node(1, 0), node(3, 0)) },
		"dst not level k": func() { sel(node(0, 0), node(2, 0)) },
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

func TestTranslationSystemTorus(t *testing.T) {
	tor := topology.NewTorus(2, 5)
	g := tor.Graph()
	sel := TranslationSystem(tor)
	check := func(a, b uint8) bool {
		s, d := int(a)%25, int(b)%25
		if s == d {
			return true
		}
		p := sel(s, d)
		return checkPath(g, p) == nil &&
			p.Source() == s && p.Dest() == d &&
			p.Len() == g.BFS(s)[d]
	}
	if err := quick.Check(check, nil); err != nil {
		t.Fatal(err)
	}
}

func TestTranslationSystemTranslationInvariance(t *testing.T) {
	tor := topology.NewTorus(2, 4)
	sel := TranslationSystem(tor)
	// The path s->d must be the translate of the path 0->(d-s).
	s := tor.NodeAt([]int{1, 2})
	d := tor.NodeAt([]int{3, 3})
	diff := tor.NodeAt([]int{(3 - 1 + 4) % 4, (3 - 2 + 4) % 4})
	phi := tor.AutomorphismTo(s)
	base := sel(0, diff)
	img := sel(s, d)
	if len(base) != len(img) {
		t.Fatal("translated path has different length")
	}
	for i := range base {
		if phi(base[i]) != img[i] {
			t.Fatalf("position %d: translate mismatch", i)
		}
	}
}

func TestTranslationSystemHypercube(t *testing.T) {
	h := topology.NewHypercube(4)
	g := h.Graph()
	sel := TranslationSystem(h)
	src := rng.New(5)
	prs := RandomFunction(g.NumNodes(), src)
	c, err := Build(g, prs, sel)
	if err != nil {
		t.Fatal(err)
	}
	if !c.IsShortCutFree() {
		t.Error("translation system (shortest paths) must be shortcut free")
	}
}

func TestBFSSelectorUnreachablePanics(t *testing.T) {
	gb := graph.NewBuilder(3)
	gb.AddEdge(0, 1)
	g := gb.Finalize()
	sel := BFSSelector(g)
	defer func() {
		if recover() == nil {
			t.Fatal("unreachable destination did not panic")
		}
	}()
	sel(0, 2)
}

func TestRandomShortestPath(t *testing.T) {
	tor := topology.NewTorus(2, 5)
	g := tor.Graph()
	src := rng.New(33)
	sel := RandomShortestPath(g, src)
	for i := 0; i < 50; i++ {
		s, d := src.Intn(25), src.Intn(25)
		if s == d {
			continue
		}
		p := sel(s, d)
		if err := checkPath(g, p); err != nil {
			t.Fatal(err)
		}
		if p.Len() != g.BFS(s)[d] {
			t.Fatalf("random shortest path %d->%d not shortest", s, d)
		}
	}
}

func TestWorkloadGenerators(t *testing.T) {
	src := rng.New(2)
	perm := RandomPermutation(10, src)
	if len(perm) != 10 {
		t.Fatal("permutation size")
	}
	seen := make([]bool, 10)
	for _, pr := range perm {
		if seen[pr.Dst] {
			t.Fatal("permutation repeats a destination")
		}
		seen[pr.Dst] = true
	}
	fn := RandomFunction(10, src)
	if len(fn) != 10 {
		t.Fatal("function size")
	}
	for i, pr := range fn {
		if pr.Src != i || pr.Dst < 0 || pr.Dst >= 10 {
			t.Fatalf("function pair %d: %+v", i, pr)
		}
	}
	qf := RandomQFunction(3, 10, src)
	if len(qf) != 30 {
		t.Fatal("q-function size")
	}
	counts := make([]int, 10)
	for _, pr := range qf {
		counts[pr.Src]++
	}
	for i, c := range counts {
		if c != 3 {
			t.Fatalf("node %d is source of %d messages, want 3", i, c)
		}
	}
}

func TestBitReversal(t *testing.T) {
	prs := BitReversal(3)
	if len(prs) != 8 {
		t.Fatal("size")
	}
	if prs[0b001].Dst != 0b100 {
		t.Errorf("reversal of 001 = %03b", prs[1].Dst)
	}
	if prs[0b110].Dst != 0b011 {
		t.Errorf("reversal of 110 = %03b", prs[6].Dst)
	}
	// Involution: reversing twice is the identity.
	for _, pr := range prs {
		if prs[pr.Dst].Dst != pr.Src {
			t.Fatal("bit reversal is not an involution")
		}
	}
}

func TestTranspose(t *testing.T) {
	prs := Transpose(3)
	if len(prs) != 9 {
		t.Fatal("size")
	}
	for _, pr := range prs {
		x, y := pr.Src%3, pr.Src/3
		if pr.Dst != x*3+y {
			t.Fatalf("transpose of (%d,%d) wrong: %d", x, y, pr.Dst)
		}
	}
}

func TestButterflyWorkloads(t *testing.T) {
	b := topology.NewButterfly(3)
	src := rng.New(6)
	qf := ButterflyRandomQFunction(b, 2, src)
	if len(qf) != 16 {
		t.Fatal("size")
	}
	for _, pr := range qf {
		if b.LevelOf(pr.Src) != 0 || b.LevelOf(pr.Dst) != 3 {
			t.Fatalf("bad levels in pair %+v", pr)
		}
	}
	perm := ButterflyPermutation(b, []int{1, 0, 3, 2, 5, 4, 7, 6})
	if len(perm) != 8 {
		t.Fatal("perm size")
	}
	if b.RowOf(perm[0].Dst) != 1 {
		t.Error("perm mapping wrong")
	}
	defer func() {
		if recover() == nil {
			t.Error("wrong-length permutation did not panic")
		}
	}()
	ButterflyPermutation(b, []int{0, 1})
}

// TestTranslationSystemEdgeLoad validates the premise of Theorem 1.5: the
// translation-invariant path system places expected load at most ~D on
// every directed link under a random function (the [27] property).
func TestTranslationSystemEdgeLoad(t *testing.T) {
	cases := []struct {
		name string
		vt   topology.VertexTransitive
		diam int
	}{
		{"torus(2,6)", topology.NewTorus(2, 6), 6},
		{"hypercube(5)", topology.NewHypercube(5), 5},
		{"circulant(64,{1,8})", topology.NewCirculant(64, []int{1, 8}), 8},
	}
	for _, tc := range cases {
		g := tc.vt.Graph()
		sel := TranslationSystem(tc.vt)
		src := rng.New(404)
		_, maxLoad := EdgeLoadStats(g, sel, 30, src)
		// Expected load <= D, with Monte-Carlo slack.
		if limit := 1.5 * float64(tc.diam); maxLoad > limit {
			t.Errorf("%s: max expected edge load %.2f exceeds 1.5*D = %.1f",
				tc.name, maxLoad, limit)
		}
	}
}

// TestEdgeLoadStatsSymmetric: on a vertex-transitive network the loads
// should be near-uniform — the per-link spread stays small.
func TestEdgeLoadStatsSymmetric(t *testing.T) {
	tor := topology.NewTorus(2, 5)
	sel := TranslationSystem(tor)
	src := rng.New(505)
	mean, max := EdgeLoadStats(tor.Graph(), sel, 50, src)
	if max > 3*mean {
		t.Errorf("edge loads too skewed for a symmetric system: mean %.2f max %.2f", mean, max)
	}
}

// TestTranslationSystemPathsDigest pins every src->dst path
// TranslationSystem returns on seven vertex-transitive graphs: one
// SHA-256 over node counts, path lengths and nodes, in graph, source and
// destination order. The digest was recorded when each canonical path
// came from its own ShortestPath(0, v) query; the one BFS tree from node
// 0 must spell the same paths.
func TestTranslationSystemPathsDigest(t *testing.T) {
	nets := []topology.VertexTransitive{
		topology.NewRing(64),
		topology.NewCirculant(64, []int{1, 5}),
		topology.NewCCC(4),
		topology.NewStarGraph(5),
		topology.NewTorus(2, 6),
		topology.NewHypercube(5),
		topology.NewWrappedButterfly(3),
	}
	h := sha256.New()
	var word [8]byte
	put := func(x int) {
		binary.LittleEndian.PutUint64(word[:], uint64(x))
		h.Write(word[:])
	}
	for _, vt := range nets {
		sel := TranslationSystem(vt)
		n := vt.Graph().NumNodes()
		put(n)
		for src := 0; src < n; src++ {
			for dst := 0; dst < n; dst++ {
				p := sel(src, dst)
				put(len(p))
				for _, v := range p {
					put(v)
				}
			}
		}
	}
	const want = "77c621229574611fb2f60f21c878880ede118ad0b7386fcd6f22e3b75aa4211a"
	if got := hex.EncodeToString(h.Sum(nil)); got != want {
		t.Errorf("translation-system paths drifted:\n got %s\nwant %s", got, want)
	}
}
