package paths_test

import (
	"math"
	"slices"
	"testing"

	"repro/internal/graph"
	"repro/internal/lowerbound"
	"repro/internal/paths"
	"repro/internal/rng"
	"repro/internal/topology"
)

// naiveIndex is the map-based reference the dense link index replaced:
// link -> users in ascending path order, one entry per crossing.
type naiveIndex struct {
	links [][]int32
	users map[int32][]int
	hops  map[int32][]int // beside users: the hop at which each crosses the link
}

// pathsOf lists c's paths in order.
func pathsOf(c *paths.Collection) []graph.Path {
	ps := make([]graph.Path, c.Size())
	for i := range ps {
		ps[i] = c.Path(i)
	}
	return ps
}

func newNaiveIndex(c *paths.Collection) *naiveIndex {
	r := &naiveIndex{users: make(map[int32][]int), hops: make(map[int32][]int)}
	g := c.Graph()
	for i, p := range pathsOf(c) {
		var ids []int32
		for k := 0; k+1 < len(p); k++ {
			id, _ := g.LinkBetween(p[k], p[k+1])
			ids = append(ids, int32(id))
		}
		r.links = append(r.links, ids)
		for p, id := range ids {
			r.users[id] = append(r.users[id], i)
			r.hops[id] = append(r.hops[id], p)
		}
	}
	return r
}

func (r *naiveIndex) pathCongestions() []int {
	out := make([]int, len(r.links))
	for i, ids := range r.links {
		seen := make(map[int]bool)
		for _, id := range ids {
			for _, j := range r.users[id] {
				seen[j] = true
			}
		}
		out[i] = len(seen)
	}
	return out
}

func (r *naiveIndex) edgeCongestion() int {
	best := 0
	//optlint:allow mapiter order-independent max-reduction
	for _, us := range r.users {
		best = max(best, len(us))
	}
	return best
}

func (r *naiveIndex) sharePairs() [][2]int {
	var out [][2]int
	seen := make(map[[2]int]bool)
	for i, ids := range r.links {
		for _, id := range ids {
			for _, j := range r.users[id] {
				if j > i && !seen[[2]int{i, j}] {
					seen[[2]int{i, j}] = true
					out = append(out, [2]int{i, j})
				}
			}
		}
	}
	return out
}

// randomWalks builds n walks of the given length from random sources. Walks
// may revisit links, which exercises repeated entries in a link's users.
func randomWalks(g *graph.Graph, n, length int, src *rng.Source) []graph.Path {
	rows := paths.NeighborRows(g)
	ps := make([]graph.Path, n)
	for i := range ps {
		u := src.Intn(g.NumNodes())
		p := graph.Path{u}
		for k := 0; k < length; k++ {
			u = rows[u][src.Intn(len(rows[u]))]
			p = append(p, u)
		}
		ps[i] = p
	}
	return ps
}

func differentialCases(t *testing.T) map[string]*paths.Collection {
	t.Helper()
	src := rng.New(12)
	cases := make(map[string]*paths.Collection)
	build := func(name string, g *graph.Graph, prs []paths.Pair, sel paths.Selector) {
		c, err := paths.Build(g, prs, sel)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		cases[name] = c
	}
	tor := topology.NewTorus(2, 8)
	build("torus-permutation", tor.Graph(), paths.RandomPermutation(64, src), paths.DimOrderTorus(tor))
	build("torus-function", tor.Graph(), paths.RandomFunction(64, src), paths.RandomShortestPath(tor.Graph(), src))
	h := topology.NewHypercube(6)
	build("hypercube-function", h.Graph(), paths.RandomFunction(64, src), paths.BitFixing(h))
	b := topology.NewButterfly(4)
	build("butterfly-qfunction", b.Graph(), paths.ButterflyRandomQFunction(b, 3, src), paths.ButterflySelector(b))
	// Many long overlapping paths: the case the bitset method is picked for.
	chain := topology.NewMesh(1, 200)
	build("chain-function", chain.Graph(), paths.RandomFunction(200, src), paths.DimOrderMesh(chain))
	walk := topology.NewTorus(2, 4)
	cases["torus-walks"] = paths.MustCollection(walk.Graph(), randomWalks(walk.Graph(), 40, 12, src))
	cases["staggered"] = lowerbound.Staggered(3, 4, 9, 4).Collection
	cases["cyclic"] = lowerbound.Cyclic(3, 6, 4).Collection
	// Staggered structures beside identical copies of their paths, as the
	// lower-bound proofs combine type-1 and type-2 collections.
	st := lowerbound.Staggered(2, 3, 8, 3)
	mixed := pathsOf(st.Collection)
	for _, p := range mixed[:2] {
		for range 4 {
			mixed = append(mixed, p.Clone())
		}
	}
	cases["mixed"] = paths.MustCollection(st.Graph, mixed)
	cases["empty"] = paths.MustCollection(tor.Graph(), nil)
	return cases
}

// TestLinkIndexMatchesNaiveReference pins every index-backed accessor,
// including the order of LinkUsers and SharePairs and the hop positions,
// shared links and path loads the loner marking reads, against the map-based
// reference on random torus, hypercube, butterfly and chain collections
// and on the lower-bound structures. Both exact congestion methods are
// checked on every input, whichever one the collection picks.
func TestLinkIndexMatchesNaiveReference(t *testing.T) {
	for name, c := range differentialCases(t) {
		t.Run(name, func(t *testing.T) {
			ref := newNaiveIndex(c)
			x := c.Index()
			for id := 0; id < c.Graph().NumLinks(); id++ {
				if got, want := c.LinkUsers(id), ref.users[int32(id)]; !slices.Equal(got, want) {
					t.Fatalf("LinkUsers(%d) = %v, want %v", id, got, want)
				}
				var dense []int
				for _, j := range x.Users(id) {
					dense = append(dense, int(j))
				}
				if !slices.Equal(dense, ref.users[int32(id)]) {
					t.Fatalf("Index().Users(%d) = %v, want %v", id, dense, ref.users[int32(id)])
				}
				var hops []int
				for _, p := range x.Positions(id) {
					hops = append(hops, int(p))
				}
				if !slices.Equal(hops, ref.hops[int32(id)]) {
					t.Fatalf("Index().Positions(%d) = %v, want %v", id, hops, ref.hops[int32(id)])
				}
				if shared := slices.Contains(x.SharedLinks(), int32(id)); shared != (len(dense) > 1) {
					t.Fatalf("link %d with %d users: in SharedLinks %v", id, len(dense), shared)
				}
			}
			if !slices.IsSorted(x.SharedLinks()) {
				t.Fatalf("SharedLinks not ascending: %v", x.SharedLinks())
			}
			for i := range ref.links {
				if !slices.Equal(c.PathLinks(i), ref.links[i]) || !slices.Equal(x.PathLinks(i), ref.links[i]) {
					t.Fatalf("PathLinks(%d) = %v, want %v", i, c.PathLinks(i), ref.links[i])
				}
				load := 0
				for _, id := range ref.links[i] {
					load = max(load, len(ref.users[id]))
				}
				if x.Load(i) != load {
					t.Fatalf("Load(%d) = %d, want %d", i, x.Load(i), load)
				}
			}
			cong := ref.pathCongestions()
			if got := c.PathCongestions(); !slices.Equal(got, cong) {
				t.Fatalf("PathCongestions = %v, want %v", got, cong)
			}
			stamps, bitsets := paths.CongestionsBothWays(c)
			if !slices.Equal(stamps, cong) || !slices.Equal(bitsets, cong) {
				t.Fatalf("congestions by stamps %v, by bitsets %v, want %v", stamps, bitsets, cong)
			}
			wantC := 0
			for _, k := range cong {
				wantC = max(wantC, k)
			}
			if got := c.PathCongestion(); got != wantC {
				t.Errorf("PathCongestion = %d, want %d", got, wantC)
			}
			if got, want := c.EdgeCongestion(), ref.edgeCongestion(); got != want {
				t.Errorf("EdgeCongestion = %d, want %d", got, want)
			}
			deg := c.ConflictDegree()
			for i := range deg {
				if deg[i] != cong[i]-1 {
					t.Fatalf("ConflictDegree[%d] = %d, want %d", i, deg[i], cong[i]-1)
				}
			}
			var pairs [][2]int
			c.SharePairs(func(i, j int) { pairs = append(pairs, [2]int{i, j}) })
			if want := ref.sharePairs(); !slices.Equal(pairs, want) {
				t.Errorf("SharePairs = %v, want %v", pairs, want)
			}
			wantD := 0
			for _, p := range pathsOf(c) {
				wantD = max(wantD, p.Len())
			}
			if got := c.Dilation(); got != wantD {
				t.Errorf("Dilation = %d, want %d", got, wantD)
			}
		})
	}
}

// TestLinkIndexLongPaths: a hop position is stored in 16 bits, so every
// path that shares a link with a path of more than 65,535 hops reports an
// unbounded load, and a load threshold keeps callers off the cut-off
// positions. Paths elsewhere keep their counts.
func TestLinkIndexLongPaths(t *testing.T) {
	g := topology.NewChain(70_000).Graph()
	span := func(from, to int) graph.Path {
		p := graph.Path{}
		for u := from; u <= to; u++ {
			p = append(p, u)
		}
		return p
	}
	c := paths.MustCollection(g, []graph.Path{span(0, 69_999), span(69_990, 69_999), span(5, 9), {9, 8, 7, 6, 5}})
	x := c.Index()
	for i, want := range []int{math.MaxInt32, math.MaxInt32, math.MaxInt32, 1} {
		if got := x.Load(i); got != want {
			t.Errorf("Load(%d) = %d, want %d", i, got, want)
		}
	}
}
