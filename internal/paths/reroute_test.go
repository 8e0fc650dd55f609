package paths

import (
	"reflect"
	"testing"

	"repro/internal/graph"
	"repro/internal/topology"
)

// The degraded-mode protocol rounds reroute worms with graph.ShortestPath
// and a predicate naming the links a fault plan has taken down.

func TestShortestPathAvoidingMatchesShortestPath(t *testing.T) {
	g := topology.NewTorus(3, 3).Graph()
	none := func(graph.LinkID) bool { return false }
	for u := 0; u < g.NumNodes(); u++ {
		dist := g.BFS(u)
		for v := 0; v < g.NumNodes(); v++ {
			want := g.ShortestPath(u, v, nil)
			if want.Len() != dist[v] || (u != v && checkPath(g, want) != nil) {
				t.Fatalf("%d->%d: %v is not a shortest path (distance %d)", u, v, want, dist[v])
			}
			if got := g.ShortestPath(u, v, none); !reflect.DeepEqual(got, want) {
				t.Fatalf("%d->%d: avoid-nothing path %v != shortest path %v", u, v, got, want)
			}
		}
	}
}

func TestShortestPathAvoidingDetours(t *testing.T) {
	// Ring of 4: 0-1-2-3-0. Blocking 0->1 forces the long way around.
	g := topology.NewRing(4).Graph()
	direct, ok := g.LinkBetween(0, 1)
	if !ok {
		t.Fatal("missing link")
	}
	p := g.ShortestPath(0, 2, func(id graph.LinkID) bool { return id == direct })
	want := graph.Path{0, 3, 2}
	if !reflect.DeepEqual(p, want) {
		t.Fatalf("detour = %v, want %v", p, want)
	}
	if err := checkPath(g, p); err != nil {
		t.Fatal(err)
	}
}

func TestShortestPathAvoidingUnreachable(t *testing.T) {
	// Chain 0-1-2: blocking both directions of edge {1,2} cuts node 2 off.
	g := topology.NewChain(3).Graph()
	l12, _ := g.LinkBetween(1, 2)
	l21, _ := g.LinkBetween(2, 1)
	blocked := func(id graph.LinkID) bool { return id == l12 || id == l21 }
	if p := g.ShortestPath(0, 2, blocked); p != nil {
		t.Fatalf("found a path %v through a cut", p)
	}
	if p := g.ShortestPath(2, 2, blocked); !reflect.DeepEqual(p, graph.Path{2}) {
		t.Fatalf("self path = %v", p)
	}
}
