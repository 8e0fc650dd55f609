package paths

import (
	"runtime"
	"slices"
	"strings"
	"sync"
	"testing"

	"repro/internal/graph"
	"repro/internal/rng"
	"repro/internal/topology"
)

// lineGraph builds a chain 0-1-...-n-1 and returns its graph.
func lineGraph(n int) *graph.Graph {
	return topology.NewChain(n).Graph()
}

func TestNewCollectionValidation(t *testing.T) {
	g := lineGraph(5)
	if _, err := NewCollection(g, []graph.Path{{0, 1, 2}}); err != nil {
		t.Fatalf("valid collection rejected: %v", err)
	}
	for name, tc := range map[string]struct {
		ps   []graph.Path
		want string
	}{
		"missing link": {[]graph.Path{{0, 1}, {0, 2}}, "path 1: graph: path step 0: no link 0->2"},
		"zero length":  {[]graph.Path{{3}}, "path 0: graph: zero-length path"},
		"out of range": {[]graph.Path{{0, 1}, {1, 2}, {4, 5}}, "path 2: graph: path node 5 out of range"},
		"empty":        {[]graph.Path{{}}, "path 0: graph: empty path"},
	} {
		if _, err := NewCollection(g, tc.ps); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: err = %v, want %q", name, err, tc.want)
		}
	}
	if _, err := NewCollection(g, nil); err != nil {
		t.Errorf("empty collection rejected: %v", err)
	}
	// A walk that revisits a directed link is a collection path; its route
	// says so, and the simulator refuses to route it.
	c, err := NewCollection(g, []graph.Path{{0, 1, 2}, {1, 2, 1, 2}})
	if err != nil {
		t.Fatalf("revisiting walk rejected: %v", err)
	}
	if c.Route(0).Revisits() || !c.Route(1).Revisits() || !c.Route(1).On(g) {
		t.Errorf("revisit flags %v %v", c.Route(0).Revisits(), c.Route(1).Revisits())
	}
}

func TestMustCollectionPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("MustCollection did not panic on invalid input")
		}
	}()
	MustCollection(lineGraph(3), []graph.Path{{0, 2}})
}

func TestDilation(t *testing.T) {
	g := lineGraph(6)
	c := MustCollection(g, []graph.Path{{0, 1}, {0, 1, 2, 3}, {2, 3, 4}})
	if d := c.Dilation(); d != 3 {
		t.Errorf("dilation = %d, want 3", d)
	}
	empty, _ := NewCollection(g, nil)
	if empty.Dilation() != 0 {
		t.Error("empty dilation should be 0")
	}
}

func TestEdgeCongestionDirected(t *testing.T) {
	g := lineGraph(4)
	// Two paths left-to-right and one right-to-left over the same edge:
	// opposite directions use different links and must not add up.
	c := MustCollection(g, []graph.Path{{0, 1, 2}, {1, 2}, {2, 1}})
	if got := c.EdgeCongestion(); got != 2 {
		t.Errorf("edge congestion = %d, want 2 (directions are separate links)", got)
	}
}

func TestPathCongestionIdenticalPaths(t *testing.T) {
	// A type-2 structure: k identical paths has path congestion exactly k.
	g := lineGraph(5)
	k := 7
	ps := make([]graph.Path, k)
	for i := range ps {
		ps[i] = graph.Path{0, 1, 2, 3}
	}
	c := MustCollection(g, ps)
	if got := c.PathCongestion(); got != k {
		t.Errorf("path congestion of %d identical paths = %d, want %d", k, got, k)
	}
}

func TestPathCongestionDisjoint(t *testing.T) {
	g := lineGraph(9)
	c := MustCollection(g, []graph.Path{{0, 1, 2}, {3, 4, 5}, {6, 7, 8}})
	if got := c.PathCongestion(); got != 1 {
		t.Errorf("path congestion of disjoint paths = %d, want 1", got)
	}
}

func TestPathCongestionVsEdgeCongestion(t *testing.T) {
	// A "star of paths": k paths each sharing a distinct edge with one hub
	// path but not with each other. Edge congestion stays 2, while the hub
	// path's congestion is k+1.
	k := 5
	// Hub path 0-1-2-...-k; spoke i covers edge (i, i+1) and then departs
	// to a private node.
	n := (k + 1) + k
	gb := graph.NewBuilder(n)
	for i := 0; i < k; i++ {
		gb.AddEdge(i, i+1)
	}
	for i := 0; i < k; i++ {
		gb.AddEdge(i+1, k+1+i) // private exits
	}
	g := gb.Finalize()
	hub := make(graph.Path, k+1)
	for i := range hub {
		hub[i] = i
	}
	ps := []graph.Path{hub}
	for i := 0; i < k; i++ {
		ps = append(ps, graph.Path{i, i + 1, k + 1 + i})
	}
	c := MustCollection(g, ps)
	if got := c.EdgeCongestion(); got != 2 {
		t.Errorf("edge congestion = %d, want 2", got)
	}
	if got := c.PathCongestion(); got != k+1 {
		t.Errorf("path congestion = %d, want %d", got, k+1)
	}
	cong := c.PathCongestions()
	if cong[0] != k+1 {
		t.Errorf("hub congestion = %d, want %d", cong[0], k+1)
	}
	for i := 1; i <= k; i++ {
		if cong[i] != 2 {
			t.Errorf("spoke %d congestion = %d, want 2", i, cong[i])
		}
	}
}

func TestLinkUsersAndSharePairs(t *testing.T) {
	g := lineGraph(4)
	c := MustCollection(g, []graph.Path{{0, 1, 2}, {1, 2, 3}, {0, 1}})
	id, _ := g.LinkBetween(1, 2)
	users := c.LinkUsers(id)
	if len(users) != 2 {
		t.Fatalf("link users = %v", users)
	}
	var pairs [][2]int
	c.SharePairs(func(i, j int) { pairs = append(pairs, [2]int{i, j}) })
	// Pairs sharing a link: (0,1) via 1->2, (0,2) via 0->1.
	if len(pairs) != 2 {
		t.Fatalf("share pairs = %v", pairs)
	}
	seen := map[[2]int]bool{}
	for _, p := range pairs {
		seen[p] = true
	}
	if !seen[[2]int{0, 1}] || !seen[[2]int{0, 2}] {
		t.Errorf("share pairs = %v, want (0,1) and (0,2)", pairs)
	}
}

func TestComputeStatsAndString(t *testing.T) {
	g := lineGraph(4)
	c := MustCollection(g, []graph.Path{{0, 1, 2, 3}, {0, 1}})
	s := c.ComputeStats()
	if s.N != 2 || s.Dilation != 3 || s.EdgeCongestion != 2 || s.PathCongestion != 2 {
		t.Errorf("stats = %+v", s)
	}
	if !s.Leveled {
		t.Error("chain collection should be leveled")
	}
	if !s.ShortCutFree {
		t.Error("chain collection should be short-cut free")
	}
	if str := s.String(); !strings.Contains(str, "n=2") || !strings.Contains(str, "D=3") {
		t.Errorf("String = %q", str)
	}
}

// TestPathLinksCached pins that every reader of a path's links reads its
// route, resolved once when the collection was made: the collection and
// the link index share one table.
func TestPathLinksCached(t *testing.T) {
	g := lineGraph(3)
	c := MustCollection(g, []graph.Path{{0, 1}, {0, 1, 2}})
	a := c.PathLinks(1)
	b := c.Index().PathLinks(1)
	if &a[0] != &b[0] || &a[0] != &c.Route(1).Links()[0] {
		t.Error("PathLinks should return the route's slice")
	}
	if len(a) != 2 || cap(a) != 2 {
		t.Errorf("links = %v (cap %d)", a, cap(a))
	}
}

func TestAccessors(t *testing.T) {
	g := lineGraph(3)
	ps := []graph.Path{{0, 1}, {1, 2}}
	c := MustCollection(g, ps)
	if c.Size() != 2 || c.Graph() != g {
		t.Error("Size/Graph accessors")
	}
	if c.Path(1).Source() != 1 {
		t.Error("Path accessor")
	}
}

// TestPathCongestionConcurrentOnce starts concurrent readers on a fresh
// collection: they must all agree, share one memoised slice, and the
// congestion pass must run exactly once.
func TestPathCongestionConcurrentOnce(t *testing.T) {
	tor := topology.NewTorus(2, 8)
	c, err := Build(tor.Graph(), RandomFunction(64, rng.New(3)), DimOrderTorus(tor))
	if err != nil {
		t.Fatal(err)
	}
	const readers = 8
	got := make([]int, readers)
	firsts := make([]*int, readers)
	var wg sync.WaitGroup
	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			got[r] = c.PathCongestion()
			firsts[r] = &c.PathCongestions()[0]
		}(r)
	}
	wg.Wait()
	for r := 1; r < readers; r++ {
		if got[r] != got[0] || firsts[r] != firsts[0] {
			t.Fatalf("reader %d saw C~=%d (slice %p), reader 0 saw %d (slice %p)", r, got[r], firsts[r], got[0], firsts[0])
		}
	}
	c.mu.Lock()
	builds := c.congBuilds
	c.mu.Unlock()
	if builds != 1 {
		t.Errorf("congestion computed %d times, want 1", builds)
	}
}

// TestCollectionBytesPerHop pins what a collection holds per routed hop
// on the kernel-sparse shape: 2048 seeded dimension-order pairs on a
// 256x256 torus, 265,139 hops. The heap growth across Build,
// PathCongestion and Index covers the node table, the routes and their
// one link table, the link-user index with its hop positions, shared
// links and path loads, and the per-path congestions: 23.8 bytes per hop
// measured, pinned with a small margin.
func TestCollectionBytesPerHop(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation inflates the heap")
	}
	tor := topology.NewTorus(2, 256)
	g := tor.Graph()
	src := rng.New(1)
	prs := make([]Pair, 0, 2048)
	for len(prs) < cap(prs) {
		if s, d := src.Intn(g.NumNodes()), src.Intn(g.NumNodes()); s != d {
			prs = append(prs, Pair{Src: s, Dst: d})
		}
	}
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	c, err := Build(g, prs, DimOrderTorus(tor))
	if err != nil {
		t.Fatal(err)
	}
	c.PathCongestion()
	c.Index()
	runtime.GC()
	runtime.ReadMemStats(&after)
	hops := 0
	for _, p := range c.paths {
		hops += p.Len()
	}
	perHop := float64(after.HeapAlloc-before.HeapAlloc) / float64(hops)
	t.Logf("%d B over %d hops: %.1f B per hop", after.HeapAlloc-before.HeapAlloc, hops, perHop)
	const budget = 24.5
	if perHop > budget {
		t.Errorf("collection holds %.1f B per hop, budget %.1f", perHop, budget)
	}
	runtime.KeepAlive(c)
	runtime.KeepAlive(prs)
	runtime.KeepAlive(tor)
}

// TestCollectionOwnsItsPaths: a collection copies its paths' nodes into
// one table of exactly their size, so a caller reusing its slices cannot
// change it, and appending to a returned path copies it.
func TestCollectionOwnsItsPaths(t *testing.T) {
	g := topology.NewChain(6).Graph()
	ps := []graph.Path{{0, 1, 2}, {3, 4, 5}}
	c := MustCollection(g, ps)
	ps[0][1], ps[1] = 9, graph.Path{0, 1}
	for i, want := range []graph.Path{{0, 1, 2}, {3, 4, 5}} {
		p := c.Path(i)
		if !slices.Equal(p, want) || cap(p) != len(p) {
			t.Errorf("Path(%d) = %v (cap %d), want %v at exact capacity", i, p, cap(p), want)
		}
	}
}
