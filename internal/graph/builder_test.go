package graph

import (
	"fmt"
	"math/rand/v2"
	"testing"
)

// rebuildIncremental replays g's undirected edges, in link-ID order, through
// the incremental New+AddEdge path.
func rebuildIncremental(g *Graph) *Graph {
	h := New(g.NumNodes())
	for id := 0; id < g.NumLinks(); id += 2 {
		l := g.Link(id)
		h.AddEdge(l.From, l.To)
	}
	return h
}

// checkSameGraph asserts the two graphs agree on every accessor the rest of
// the system uses: link table, per-node out/in lists (order included),
// LinkBetween, and HasEdge.
func checkSameGraph(t *testing.T, got, want *Graph) {
	t.Helper()
	if got.NumNodes() != want.NumNodes() || got.NumLinks() != want.NumLinks() {
		t.Fatalf("size mismatch: got %d nodes %d links, want %d nodes %d links",
			got.NumNodes(), got.NumLinks(), want.NumNodes(), want.NumLinks())
	}
	for id := 0; id < want.NumLinks(); id++ {
		if got.Link(id) != want.Link(id) {
			t.Fatalf("link %d: got %v want %v", id, got.Link(id), want.Link(id))
		}
	}
	for u := 0; u < want.NumNodes(); u++ {
		gOut, wOut := got.Out(u), want.Out(u)
		if len(gOut) != len(wOut) {
			t.Fatalf("node %d: out degree %d want %d", u, len(gOut), len(wOut))
		}
		for i := range wOut {
			if gOut[i] != wOut[i] {
				t.Fatalf("node %d out[%d]: got %d want %d", u, i, gOut[i], wOut[i])
			}
		}
		gIn, wIn := got.In(u), want.In(u)
		if len(gIn) != len(wIn) {
			t.Fatalf("node %d: in degree %d want %d", u, len(gIn), len(wIn))
		}
		for i := range wIn {
			if gIn[i] != wIn[i] {
				t.Fatalf("node %d in[%d]: got %d want %d", u, i, gIn[i], wIn[i])
			}
		}
		for _, id := range wOut {
			v := want.Link(id).To
			gotID, ok := got.LinkBetween(u, v)
			if !ok || gotID != id {
				t.Fatalf("LinkBetween(%d,%d): got %d,%v want %d,true", u, v, gotID, ok, id)
			}
			if !got.HasEdge(u, v) || !got.HasEdge(v, u) {
				t.Fatalf("HasEdge(%d,%d) false", u, v)
			}
		}
	}
}

func TestBuilderMatchesIncremental(t *testing.T) {
	cases := []struct {
		name  string
		edges [][2]int
		n     int
	}{
		{"path4", [][2]int{{0, 1}, {1, 2}, {2, 3}}, 4},
		{"cycle5", [][2]int{{0, 1}, {1, 2}, {2, 3}, {3, 4}, {4, 0}}, 5},
		{"star+chord", [][2]int{{0, 1}, {0, 2}, {0, 3}, {0, 4}, {3, 4}}, 5},
		{"isolated-node", [][2]int{{0, 2}}, 4},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			b := NewBuilder(tc.n)
			want := New(tc.n)
			for _, e := range tc.edges {
				b.AddEdge(e[0], e[1])
				want.AddEdge(e[0], e[1])
			}
			checkSameGraph(t, b.Finalize(), want)
		})
	}
}

func TestBuilderMatchesIncrementalRandom(t *testing.T) {
	src := rand.New(rand.NewPCG(41, 1))
	for trial := 0; trial < 20; trial++ {
		n := 2 + src.IntN(40)
		b := NewBuilder(n)
		want := New(n)
		seen := map[[2]int]bool{}
		for e := 0; e < 3*n; e++ {
			u, v := src.IntN(n), src.IntN(n)
			if u == v {
				continue
			}
			if u > v {
				u, v = v, u
			}
			if seen[[2]int{u, v}] {
				continue // the builder contract: no duplicate edges
			}
			seen[[2]int{u, v}] = true
			b.AddEdge(u, v)
			want.AddEdge(u, v)
		}
		got := b.Finalize()
		checkSameGraph(t, got, want)
		if got.Reverse(0) != 1 || (got.NumLinks() >= 4 && got.Reverse(3) != 2) {
			t.Fatalf("trial %d: Reverse pairing broken", trial)
		}
	}
}

// A dense builder graph (degree above the scan threshold) must construct
// its pair-index map so LinkBetween stays correct past the scan path.
func TestBuilderDenseIndex(t *testing.T) {
	const n = 20 // complete graph: degree 19 > linkScanMaxDegree
	b := NewBuilder(n)
	want := New(n)
	for u := 0; u < n; u++ {
		for v := u + 1; v < n; v++ {
			b.AddEdge(u, v)
			want.AddEdge(u, v)
		}
	}
	got := b.Finalize()
	if got.index == nil {
		t.Fatalf("dense finalized graph has no pair index")
	}
	checkSameGraph(t, got, want)
}

// AddEdge after Finalize must rebuild the skipped index, deduplicate, and
// not corrupt neighboring nodes' CSR regions.
func TestBuilderAddEdgeAfterFinalize(t *testing.T) {
	b := NewBuilder(5)
	b.AddEdge(0, 1)
	b.AddEdge(1, 2)
	b.AddEdge(2, 3)
	g := b.Finalize()
	if g.index != nil {
		t.Fatalf("sparse finalized graph built an index eagerly")
	}
	before := fmt.Sprint(g.Out(0), g.Out(1), g.Out(2), g.Out(3))
	g.AddEdge(1, 2) // duplicate: no-op
	if g.NumLinks() != 6 {
		t.Fatalf("duplicate AddEdge changed link count to %d", g.NumLinks())
	}
	g.AddEdge(3, 4)
	if id, ok := g.LinkBetween(3, 4); !ok || g.Link(id) != (Link{From: 3, To: 4}) {
		t.Fatalf("appended edge not resolvable")
	}
	if after := fmt.Sprint(g.Out(0), g.Out(1), g.Out(2), g.Out(3)[:1]); len(before) > 0 && after != before {
		t.Fatalf("append corrupted existing adjacency:\n before %s\n after  %s", before, after)
	}
	want := rebuildIncremental(g)
	checkSameGraph(t, g, want)
}
