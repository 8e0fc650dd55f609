package graph

import (
	"bytes"
	"slices"
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/rng"
)

// build finalizes a graph on n nodes with the given edges.
func build(n int, edges ...[2]int) *Graph {
	b := NewBuilder(n)
	for _, e := range edges {
		b.AddEdge(e[0], e[1])
	}
	return b.Finalize()
}

// ringGraph builds a cycle on n nodes.
func ringGraph(n int) *Graph {
	b := NewBuilder(n)
	for i := 0; i < n; i++ {
		b.AddEdge(i, (i+1)%n)
	}
	return b.Finalize()
}

func TestNewPanicsOnZeroNodes(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("NewBuilder(0) did not panic")
		}
	}()
	NewBuilder(0)
}

func TestAddEdgeBasics(t *testing.T) {
	g := build(3, [2]int{0, 1}, [2]int{1, 2})
	if g.NumEdges() != 2 || g.NumLinks() != 4 {
		t.Fatalf("edges/links = %d/%d, want 2/4", g.NumEdges(), g.NumLinks())
	}
	_, fwd := g.LinkBetween(0, 1)
	_, bwd := g.LinkBetween(1, 0)
	if !fwd || !bwd {
		t.Error("an edge should be linked both ways")
	}
	if _, ok := g.LinkBetween(0, 2); ok {
		t.Error("nonexistent edge reported")
	}
	// A repeat, in either orientation, is dropped.
	if g := build(3, [2]int{0, 1}, [2]int{1, 2}, [2]int{1, 0}, [2]int{1, 2}); g.NumEdges() != 2 {
		t.Errorf("repeated AddEdge changed edge count to %d", g.NumEdges())
	}
}

func TestAddEdgePanics(t *testing.T) {
	for name, f := range map[string]func(){
		"self-loop":    func() { NewBuilder(2).AddEdge(1, 1) },
		"out-of-range": func() { NewBuilder(2).AddEdge(0, 5) },
		"negative":     func() { NewBuilder(2).AddEdge(-1, 0) },
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

func TestLinkDirections(t *testing.T) {
	g := build(2, [2]int{0, 1})
	fwd, ok := g.LinkBetween(0, 1)
	if !ok {
		t.Fatal("missing forward link")
	}
	bwd, ok := g.LinkBetween(1, 0)
	if !ok {
		t.Fatal("missing backward link")
	}
	if fwd == bwd {
		t.Fatal("forward and backward links must be distinct")
	}
	if g.Link(fwd) != (Link{From: 0, To: 1}) {
		t.Errorf("fwd link endpoints wrong: %+v", g.Link(fwd))
	}
	if g.Reverse(fwd) != bwd || g.Reverse(bwd) != fwd {
		t.Error("Reverse is not an involution between the two directions")
	}
}

func TestOutInDegree(t *testing.T) {
	g := build(4, [2]int{0, 1}, [2]int{0, 2}, [2]int{3, 0})
	if g.Degree(0) != 3 || g.Degree(1) != 1 {
		t.Errorf("degrees wrong: %d, %d", g.Degree(0), g.Degree(1))
	}
	if g.MaxDegree() != 3 {
		t.Errorf("MaxDegree = %d, want 3", g.MaxDegree())
	}
	want := []adjEntry{{to: 1, id: 0}, {to: 2, id: 2}, {to: 3, id: 5}}
	if !slices.Equal(g.adj[0], want) {
		t.Errorf("hub row = %v, want %v", g.adj[0], want)
	}
}

func TestBFSRing(t *testing.T) {
	g := ringGraph(6)
	dist := g.BFS(0)
	want := []int{0, 1, 2, 3, 2, 1}
	for i, d := range dist {
		if d != want[i] {
			t.Errorf("dist[%d] = %d, want %d", i, d, want[i])
		}
	}
}

func TestBFSDisconnected(t *testing.T) {
	g := build(4, [2]int{0, 1})
	dist := g.BFS(0)
	if dist[2] != -1 || dist[3] != -1 {
		t.Errorf("unreachable nodes should have distance -1: %v", dist)
	}
	if g.Diameter() != -1 {
		t.Error("disconnected diameter should be -1")
	}
	if g.Eccentricity(0) != -1 {
		t.Error("eccentricity with unreachable nodes should be -1")
	}
}

func TestShortestPath(t *testing.T) {
	g := ringGraph(8)
	p := g.ShortestPath(0, 3, nil)
	if p.Len() != 3 || p.Source() != 0 || p.Dest() != 3 {
		t.Fatalf("shortest path 0->3 on ring8: %v", p)
	}
	if _, err := check(g, p); err != nil {
		t.Fatal(err)
	}
	if q := g.ShortestPath(2, 2, nil); len(q) != 1 || q[0] != 2 {
		t.Errorf("trivial path = %v", q)
	}
	g2 := build(3, [2]int{0, 1})
	if g.ShortestPath(0, 0, nil) == nil {
		t.Error("self path should not be nil")
	}
	if p := g2.ShortestPath(0, 2, nil); p != nil {
		t.Errorf("unreachable path should be nil, got %v", p)
	}
}

func TestDiameterAndEccentricity(t *testing.T) {
	g := ringGraph(10)
	if d := g.Diameter(); d != 5 {
		t.Errorf("ring10 diameter = %d, want 5", d)
	}
	if e := g.Eccentricity(3); e != 5 {
		t.Errorf("ring10 eccentricity = %d, want 5", e)
	}
}

func TestConnectedSingleNode(t *testing.T) {
	if d := NewBuilder(1).Finalize().Diameter(); d != 0 {
		t.Errorf("single node graph diameter = %d, want 0 (connected)", d)
	}
}

func TestNodeLabel(t *testing.T) {
	g := build(2)
	if g.NodeLabel(1) != "1" {
		t.Errorf("default label = %q", g.NodeLabel(1))
	}
	g.SetLabeler(func(u NodeID) string { return "n" })
	if g.NodeLabel(0) != "n" {
		t.Error("custom labeler ignored")
	}
}

func TestShortestPathIsShortestProperty(t *testing.T) {
	r := rng.New(202)
	check := func(seed uint16) bool {
		src := rng.New(uint64(seed))
		n := 5 + src.Intn(20)
		gb := NewBuilder(n)
		// Random connected graph: spanning chain + extra edges.
		for i := 1; i < n; i++ {
			gb.AddEdge(i-1, i)
		}
		for k := 0; k < n; k++ {
			u, v := src.Intn(n), src.Intn(n)
			if u != v {
				gb.AddEdge(u, v)
			}
		}
		g := gb.Finalize()
		a, b := r.Intn(n), r.Intn(n)
		p := g.ShortestPath(a, b, nil)
		if p == nil {
			return false
		}
		_, err := check(g, p)
		return p.Len() == g.BFS(a)[b] && (a == b || err == nil)
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestBFSTriangleInequalityProperty(t *testing.T) {
	check := func(seed uint16) bool {
		src := rng.New(uint64(seed))
		n := 4 + src.Intn(16)
		b := NewBuilder(n)
		for i := 1; i < n; i++ {
			b.AddEdge(src.Intn(i), i)
		}
		g := b.Finalize()
		u, v, w := src.Intn(n), src.Intn(n), src.Intn(n)
		du := g.BFS(u)
		dv := g.BFS(v)
		return du[w] <= du[v]+dv[w]
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestWriteDot(t *testing.T) {
	g := ringGraph(3)
	var buf bytes.Buffer
	g.WriteDot(&buf, "")
	out := buf.String()
	for _, want := range []string{"graph \"topology\"", "n0 -- n1", "n1 -- n2", "n0 -- n2", "}"} {
		if !strings.Contains(out, want) {
			t.Errorf("DOT output missing %q:\n%s", want, out)
		}
	}
	// Exactly one line per undirected edge.
	if got := strings.Count(out, " -- "); got != 3 {
		t.Errorf("edge lines = %d, want 3", got)
	}
	var named bytes.Buffer
	g.WriteDot(&named, "ring")
	if !strings.Contains(named.String(), "graph \"ring\"") {
		t.Error("custom name ignored")
	}
}

// TestReversePairing pins the 2k/2k+1 link pairing that Reverse relies
// on: for every link, Reverse must return the directed opposite, agree
// with an index lookup, and be an involution.
func TestReversePairing(t *testing.T) {
	g := build(7, [2]int{0, 1}, [2]int{1, 2}, [2]int{2, 0}, [2]int{3, 4},
		[2]int{4, 5}, [2]int{5, 6}, [2]int{6, 3}, [2]int{0, 6})
	for id := 0; id < g.NumLinks(); id++ {
		l := g.Link(id)
		rev := g.Reverse(id)
		rl := g.Link(rev)
		if rl.From != l.To || rl.To != l.From {
			t.Fatalf("Reverse(%d) = %d: %v is not the opposite of %v", id, rev, rl, l)
		}
		if byIndex, ok := g.LinkBetween(l.To, l.From); !ok || byIndex != rev {
			t.Fatalf("Reverse(%d) = %d, LinkBetween gives %d (ok=%v)", id, rev, byIndex, ok)
		}
		if g.Reverse(rev) != id {
			t.Fatalf("Reverse is not an involution at link %d", id)
		}
	}
}

// TestLinkBetweenScanAndMapAgree drives LinkBetween through both the
// small-degree adjacency scan and the high-degree map fallback (a star
// center exceeding linkScanMaxDegree) and checks every present and
// absent pair, including out-of-range nodes.
func TestLinkBetweenScanAndMapAgree(t *testing.T) {
	const leaves = linkScanMaxDegree + 8
	b := NewBuilder(leaves + 2)
	for v := 1; v <= leaves; v++ {
		b.AddEdge(0, v) // node 0 ends up beyond the scan threshold
	}
	b.AddEdge(1, 2) // a low-degree pair
	g := b.Finalize()
	for u := 0; u < g.NumNodes(); u++ {
		for v := 0; v < g.NumNodes(); v++ {
			id, ok := g.LinkBetween(u, v)
			wantID, wantOK := g.index[pack(u, v)]
			if ok != wantOK || (ok && id != wantID) {
				t.Fatalf("LinkBetween(%d,%d) = %d,%v; index says %d,%v", u, v, id, ok, wantID, wantOK)
			}
			if ok {
				l := g.Link(id)
				if l.From != u || l.To != v {
					t.Fatalf("LinkBetween(%d,%d) returned link %v", u, v, l)
				}
			}
		}
	}
	if _, ok := g.LinkBetween(-1, 0); ok {
		t.Error("negative node must not resolve")
	}
	if _, ok := g.LinkBetween(g.NumNodes(), 0); ok {
		t.Error("out-of-range node must not resolve")
	}
}
