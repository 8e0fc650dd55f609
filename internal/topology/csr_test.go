package topology

import (
	"runtime"
	"testing"

	"repro/internal/graph"
)

// The builder-backed constructors must produce graphs indistinguishable —
// link IDs, adjacency order, everything — from replaying the same edge
// sequence through the incremental graph.New/AddEdge path that built them
// before the CSR conversion.
func TestCSRConstructorsMatchIncremental(t *testing.T) {
	cases := []struct {
		name string
		g    *graph.Graph
	}{
		{"mesh(2,7)", NewMesh(2, 7).Graph()},
		{"mesh(3,4)", NewMesh(3, 4).Graph()},
		{"torus(2,8)", NewTorus(2, 8).Graph()},
		{"torus(3,3)", NewTorus(3, 3).Graph()},
		{"hypercube(5)", NewHypercube(5).Graph()},
		{"butterfly(3)", NewButterfly(3).Graph()},
		{"wrapped-butterfly(4)", NewWrappedButterfly(4).Graph()},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			want := graph.New(tc.g.NumNodes())
			for id := 0; id < tc.g.NumLinks(); id += 2 {
				l := tc.g.Link(id)
				want.AddEdge(l.From, l.To)
			}
			if tc.g.NumLinks() != want.NumLinks() {
				t.Fatalf("link count %d != incremental %d (duplicate edge fed to builder?)",
					tc.g.NumLinks(), want.NumLinks())
			}
			for u := 0; u < want.NumNodes(); u++ {
				gOut, wOut := tc.g.Out(u), want.Out(u)
				if len(gOut) != len(wOut) {
					t.Fatalf("node %d out degree %d want %d", u, len(gOut), len(wOut))
				}
				for i := range wOut {
					if gOut[i] != wOut[i] {
						t.Fatalf("node %d out[%d] = %d want %d", u, i, gOut[i], wOut[i])
					}
				}
				gIn, wIn := tc.g.In(u), want.In(u)
				for i := range wIn {
					if gIn[i] != wIn[i] {
						t.Fatalf("node %d in[%d] = %d want %d", u, i, gIn[i], wIn[i])
					}
				}
				for _, id := range wOut {
					v := want.Link(id).To
					if got, ok := tc.g.LinkBetween(u, v); !ok || got != id {
						t.Fatalf("LinkBetween(%d,%d) = %d,%v want %d", u, v, got, ok, id)
					}
				}
			}
		})
	}
}

// Building a million-node torus must stay within a flat-CSR-sized memory
// budget and a constant-ish allocation count. Before the builder
// conversion this build cost >600 MB (pair-index map, three growing
// slices per node) and millions of allocations; the CSR layout needs
// ~240 MB and a few dozen allocations.
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
	const heapBudget = 340 << 20 // bytes; legacy layout needed roughly 2x
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
