package graph

import (
	"math/rand/v2"
	"slices"
	"testing"
)

// incremental is the reference a Builder must reproduce: per-edge
// construction, naive and map-based. A new undirected edge {u, v} appends
// the links u->v and v->u under the next two IDs and grows each
// endpoint's row; a repeat, in either orientation, is dropped.
type incremental struct {
	links []Link
	rows  [][]adjEntry
	seen  map[[2]int]bool
}

func newIncremental(n int) *incremental {
	return &incremental{rows: make([][]adjEntry, n), seen: map[[2]int]bool{}}
}

func (r *incremental) addEdge(u, v NodeID) {
	if r.seen[[2]int{u, v}] {
		return
	}
	r.seen[[2]int{u, v}], r.seen[[2]int{v, u}] = true, true
	for _, l := range []Link{{From: u, To: v}, {From: v, To: u}} {
		r.rows[l.From] = append(r.rows[l.From], adjEntry{to: int32(l.To), id: int32(len(r.links))})
		r.links = append(r.links, l)
	}
}

// checkSameGraph asserts the graph agrees with the reference on every
// accessor the rest of the system uses: link table, per-node rows (order
// included), Degree, and LinkBetween on every node pair.
func checkSameGraph(t *testing.T, got *Graph, want *incremental) {
	t.Helper()
	if got.NumNodes() != len(want.rows) || got.NumLinks() != len(want.links) {
		t.Fatalf("size mismatch: got %d nodes %d links, want %d nodes %d links",
			got.NumNodes(), got.NumLinks(), len(want.rows), len(want.links))
	}
	for id, l := range want.links {
		if got.Link(id) != l {
			t.Fatalf("link %d: got %v want %v", id, got.Link(id), l)
		}
	}
	for u, row := range want.rows {
		if !slices.Equal(got.adj[u], row) || got.Degree(u) != len(row) {
			t.Fatalf("node %d: row %v (degree %d), want %v", u, got.adj[u], got.Degree(u), row)
		}
		for v := range want.rows {
			id, ok := got.LinkBetween(u, v)
			wantOK := want.seen[[2]int{u, v}]
			if ok != wantOK || (ok && got.Link(id) != (Link{From: u, To: v})) {
				t.Fatalf("LinkBetween(%d,%d) = %d,%v; want present=%v", u, v, id, ok, wantOK)
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
		{"repeats", [][2]int{{0, 1}, {1, 2}, {1, 0}, {2, 3}, {2, 1}, {0, 1}, {3, 0}}, 4},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			b := NewBuilder(tc.n)
			want := newIncremental(tc.n)
			for _, e := range tc.edges {
				b.AddEdge(e[0], e[1])
				want.addEdge(e[0], e[1])
			}
			checkSameGraph(t, b.Finalize(), want)
		})
	}
}

// Random edge sequences, a third of them repeats of an earlier edge in a
// random orientation, build the same graph as the per-edge reference.
func TestBuilderMatchesIncrementalRandom(t *testing.T) {
	src := rand.New(rand.NewPCG(41, 1))
	for trial := 0; trial < 20; trial++ {
		n := 2 + src.IntN(40)
		b := NewBuilder(n)
		want := newIncremental(n)
		var recorded [][2]int
		for e := 0; e < 3*n; e++ {
			u, v := src.IntN(n), src.IntN(n)
			if len(recorded) > 0 && src.IntN(3) == 0 {
				r := recorded[src.IntN(len(recorded))]
				u, v = r[0], r[1]
				if src.IntN(2) == 0 {
					u, v = v, u
				}
			}
			if u == v {
				continue
			}
			recorded = append(recorded, [2]int{u, v})
			b.AddEdge(u, v)
			want.addEdge(u, v)
		}
		got := b.Finalize()
		checkSameGraph(t, got, want)
		if got.Reverse(0) != 1 || (got.NumLinks() >= 4 && got.Reverse(3) != 2) {
			t.Fatalf("trial %d: Reverse pairing broken", trial)
		}
	}
}

// A dense builder graph (degree above the scan threshold) must construct
// its pair-index map so LinkBetween stays correct past the scan path; a
// sparse one builds none.
func TestBuilderDenseIndex(t *testing.T) {
	if ringGraph(8).index != nil {
		t.Fatalf("sparse finalized graph built a pair index")
	}
	const n = 20 // complete graph: degree 19 > linkScanMaxDegree
	b := NewBuilder(n)
	want := newIncremental(n)
	for u := 0; u < n; u++ {
		for v := u + 1; v < n; v++ {
			b.AddEdge(u, v)
			want.addEdge(u, v)
		}
	}
	b.AddEdge(n-1, 0) // a repeat: the layout is redone without it
	want.addEdge(n-1, 0)
	got := b.Finalize()
	if got.index == nil {
		t.Fatalf("dense finalized graph has no pair index")
	}
	checkSameGraph(t, got, want)
}
