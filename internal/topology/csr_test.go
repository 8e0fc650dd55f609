package topology

import (
	"runtime"
	"testing"

	"repro/internal/graph"
)

// incrementalLinks is the link table that per-edge construction gives an
// edge sequence, naive and map-based: each new undirected edge {u, v}
// appends u->v and v->u, and a repeat in either orientation is dropped.
func incrementalLinks(edges [][2]int) []graph.Link {
	seen := map[[2]int]bool{}
	var links []graph.Link
	for _, e := range edges {
		u, v := e[0], e[1]
		if seen[[2]int{u, v}] {
			continue
		}
		seen[[2]int{u, v}], seen[[2]int{v, u}] = true, true
		links = append(links, graph.Link{From: u, To: v}, graph.Link{From: v, To: u})
	}
	return links
}

// edgesOf replays a graph's undirected edges in link-ID order.
func edgesOf(g *graph.Graph) [][2]int {
	var edges [][2]int
	for id := 0; id < g.NumLinks(); id += 2 {
		l := g.Link(id)
		edges = append(edges, [2]int{l.From, l.To})
	}
	return edges
}

// circulantEdges is the sequence NewCirculant records, repeats included.
func circulantEdges(n int, offsets ...int) [][2]int {
	var edges [][2]int
	for _, o := range offsets {
		for i := 0; i < n; i++ {
			edges = append(edges, [2]int{i, (i + o) % n})
		}
	}
	return edges
}

// The constructors must produce graphs indistinguishable — link IDs,
// degrees, lookups — from feeding the edges each one records, one at a
// time, through the map-based per-edge reference. CCCs and star graphs
// record every edge from both ends, and circulants with a repeated offset
// or an offset of n/2 record edges twice; the mesh family records each
// edge once, so it replays its own link table.
func TestCSRConstructorsMatchIncremental(t *testing.T) {
	ccc := NewCCC(4)
	star := NewStarGraph(5)
	cases := []struct {
		name  string
		g     *graph.Graph
		edges [][2]int
	}{
		{"mesh(2,7)", NewMesh(2, 7).Graph(), nil},
		{"mesh(3,4)", NewMesh(3, 4).Graph(), nil},
		{"torus(2,8)", NewTorus(2, 8).Graph(), nil},
		{"torus(3,3)", NewTorus(3, 3).Graph(), nil},
		{"hypercube(5)", NewHypercube(5).Graph(), nil},
		{"butterfly(3)", NewButterfly(3).Graph(), nil},
		{"wrapped-butterfly(4)", NewWrappedButterfly(4).Graph(), nil},
		{"ccc(4)", ccc.Graph(), func() (edges [][2]int) {
			for w := 0; w < 1<<4; w++ {
				for i := 0; i < 4; i++ {
					edges = append(edges, [2]int{ccc.Node(w, i), ccc.Node(w, (i+1)%4)},
						[2]int{ccc.Node(w, i), ccc.Node(w^1<<i, i)})
				}
			}
			return edges
		}()},
		{"star(5)", star.Graph(), func() (edges [][2]int) {
			for u := 0; u < star.Graph().NumNodes(); u++ {
				for i := 1; i < 5; i++ {
					q := append([]int(nil), star.Perm(u)...)
					q[0], q[i] = q[i], q[0]
					edges = append(edges, [2]int{u, star.NodeOf(q)})
				}
			}
			return edges
		}()},
		{"chain(7)", NewChain(7).Graph(), [][2]int{{0, 1}, {1, 2}, {2, 3}, {3, 4}, {4, 5}, {5, 6}}},
		{"ring(6)", NewRing(6).Graph(), [][2]int{{0, 1}, {1, 2}, {2, 3}, {3, 4}, {4, 5}, {5, 0}}},
		{"circulant(12,[1 5])", NewCirculant(12, []int{1, 5}).Graph(), circulantEdges(12, 1, 5)},
		{"circulant(12,[5 1 5 1])", NewCirculant(12, []int{5, 1, 5, 1}).Graph(), circulantEdges(12, 5, 1, 5, 1)},
		{"circulant(10,[5])", NewCirculant(10, []int{5}).Graph(), circulantEdges(10, 5)},
		{"circulant(10,[2 5 2])", NewCirculant(10, []int{2, 5, 2}).Graph(), circulantEdges(10, 2, 5, 2)},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			g := tc.g
			if tc.edges == nil {
				tc.edges = edgesOf(g)
			}
			want := incrementalLinks(tc.edges)
			if g.NumLinks() != len(want) {
				t.Fatalf("link count %d != incremental %d", g.NumLinks(), len(want))
			}
			degree := make([]int, g.NumNodes())
			for id, l := range want {
				if g.Link(id) != l {
					t.Fatalf("link %d = %v want %v", id, g.Link(id), l)
				}
				if got, ok := g.LinkBetween(l.From, l.To); !ok || got != id {
					t.Fatalf("LinkBetween(%d,%d) = %d,%v want %d", l.From, l.To, got, ok, id)
				}
				degree[l.From]++
			}
			for u, d := range degree {
				if g.Degree(u) != d {
					t.Fatalf("node %d degree %d want %d", u, g.Degree(u), d)
				}
			}
		})
	}
}

// Building a million-node torus must stay within a flat-CSR-sized memory
// budget and a constant-ish allocation count. A pair-index map and growing
// slices per node cost >600 MB and millions of allocations; the link table
// and one adjacency layout need about 120 MiB and a few dozen allocations.
func TestTorusMillionNodeMemoryBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation inflates heap and alloc counts")
	}
	if testing.Short() {
		t.Skip("1024x1024 torus build in -short mode")
	}
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	tor := NewTorus(2, 1024)
	runtime.GC()
	runtime.ReadMemStats(&after)
	g := tor.Graph()
	if g.NumNodes() != 1024*1024 || g.NumLinks() != 4*1024*1024 {
		t.Fatalf("unexpected size: %d nodes %d links", g.NumNodes(), g.NumLinks())
	}
	const heapBudget = 160 << 20 // bytes
	if grew := after.HeapAlloc - before.HeapAlloc; grew > heapBudget {
		t.Errorf("heap grew %d MiB, budget %d MiB", grew>>20, heapBudget>>20)
	}
	// Allocation count: the flat layout allocates O(1) blocks. A per-node
	// scheme costs millions; anything under a few thousand proves flatness
	// while leaving room for runtime bookkeeping.
	if allocs := after.Mallocs - before.Mallocs; allocs > 2000 {
		t.Errorf("build made %d allocations, budget 2000", allocs)
	}
	runtime.KeepAlive(tor)
}
