package graph

import (
	"fmt"
	"math/rand/v2"
	"slices"
	"strings"
	"testing"
)

func TestPathBasics(t *testing.T) {
	p := Path{0, 1, 2, 3}
	if p.Source() != 0 || p.Dest() != 3 || p.Len() != 3 {
		t.Errorf("basics wrong: src=%d dst=%d len=%d", p.Source(), p.Dest(), p.Len())
	}
	if (Path{5}).Len() != 0 {
		t.Error("single-node path should have 0 links")
	}
	if Path(nil).Len() != 0 {
		t.Error("nil path should have 0 links")
	}
}

func TestPathPanicsOnEmpty(t *testing.T) {
	for name, f := range map[string]func(){
		"Source": func() { Path{}.Source() },
		"Dest":   func() { Path{}.Dest() },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s on empty path did not panic", name)
				}
			}()
			f()
		}()
	}
}

// check is AppendRoute on a fresh table.
func check(g *Graph, p Path) (Route, error) {
	r, _, err := g.AppendRoute(nil, p)
	return r, err
}

func TestPathValidate(t *testing.T) {
	g := ringGraph(5)
	if _, err := check(g, Path{0, 1, 2}); err != nil {
		t.Errorf("valid path rejected: %v", err)
	}
	for name, tc := range map[string]struct {
		p    Path
		want string
	}{
		"chord":    {Path{0, 2}, "no link 0->2"},
		"empty":    {Path{}, "empty path"},
		"one node": {Path{3}, "zero-length path"},
		"range":    {Path{0, 9}, "out of range"},
		"negative": {Path{-1}, "out of range"},
	} {
		if r, err := check(g, tc.p); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: err = %v, want %q", name, err, tc.want)
		} else if r.On(g) || r.Len() != 0 {
			t.Errorf("%s: refused path returned route %+v", name, r)
		}
	}
	if (Route{}).On(g) {
		t.Error("zero route claims a graph")
	}
	r, err := check(g, Path{0, 1, 2})
	if err != nil || !r.On(g) || r.On(ringGraph(5)) {
		t.Errorf("route on %p: On(g) = %v, on another ring %v, err %v", g, r.On(g), r.On(ringGraph(5)), err)
	}
}

func TestPathLinks(t *testing.T) {
	g := ringGraph(4)
	r, err := check(g, Path{0, 1, 2})
	if err != nil {
		t.Fatal(err)
	}
	ids := r.Links()
	if len(ids) != 2 || r.Len() != 2 || cap(ids) != len(ids) {
		t.Fatalf("links = %v (cap %d)", ids, cap(ids))
	}
	if g.Link(int(ids[0])).From != 0 || g.Link(int(ids[0])).To != 1 {
		t.Errorf("first link wrong: %+v", g.Link(int(ids[0])))
	}
	if g.Link(int(ids[1])).From != 1 || g.Link(int(ids[1])).To != 2 {
		t.Errorf("second link wrong: %+v", g.Link(int(ids[1])))
	}
	if r.Revisits() {
		t.Error("simple path flagged as revisiting")
	}
	if w, _ := check(g, Path{0, 1, 0, 1}); !w.Revisits() {
		t.Error("0->1->0->1 not flagged as revisiting 0->1")
	}
	if w, _ := check(g, Path{0, 1, 0}); w.Revisits() {
		t.Error("0->1->0 uses two directed links, flagged as revisiting")
	}
}

// naiveRoute is the map-based reference for AppendRoute: the same refusals
// in the same order, links resolved through the link table, and repeats
// found with a set.
func naiveRoute(g *Graph, p Path) ([]int32, bool, error) {
	if len(p) == 0 {
		return nil, false, fmt.Errorf("graph: empty path")
	}
	if p[0] < 0 || p[0] >= g.NumNodes() {
		return nil, false, fmt.Errorf("graph: path node %d out of range [0,%d)", p[0], g.NumNodes())
	}
	if len(p) == 1 {
		return nil, false, fmt.Errorf("graph: zero-length path")
	}
	byEnds := make(map[Link]int)
	for id := 0; id < g.NumLinks(); id++ {
		byEnds[g.Link(id)] = id
	}
	var links []int32
	seen := make(map[int]bool)
	revisit := false
	for j := 0; j+1 < len(p); j++ {
		if p[j+1] < 0 || p[j+1] >= g.NumNodes() {
			return nil, false, fmt.Errorf("graph: path node %d out of range [0,%d)", p[j+1], g.NumNodes())
		}
		id, ok := byEnds[Link{From: p[j], To: p[j+1]}]
		if !ok {
			return nil, false, fmt.Errorf("graph: path step %d: no link %d->%d", j, p[j], p[j+1])
		}
		revisit = revisit || seen[id]
		seen[id] = true
		links = append(links, int32(id))
	}
	return links, revisit, nil
}

// TestRouteMatchesNaiveCheck drives the route check and the map-based
// reference over random node sequences on sparse and dense graphs (the
// dense ones resolve through the pair index): walks that revisit links,
// sequences with missing links and out-of-range nodes, and one-node and
// empty paths. Both must refuse the same paths with the same error, and
// agree on the links and the revisit flag of the rest, whether each path
// is checked alone or all of them in one Routes pass.
func TestRouteMatchesNaiveCheck(t *testing.T) {
	src := rand.New(rand.NewPCG(7, 1))
	for _, g := range []*Graph{ringGraph(6), gridForRoutes(5), denseForRoutes(40)} {
		n := g.NumNodes()
		var ps []Path
		for range 2000 {
			p := Path{src.IntN(n+2) - 1}
			for k := src.IntN(12); k > 0; k-- {
				u := p[len(p)-1]
				switch {
				case src.IntN(8) == 0 || u < 0 || u >= n || g.Degree(u) == 0:
					p = append(p, src.IntN(n+2)-1) // any node, maybe out of range
				default:
					p = append(p, Row(g, u)[src.IntN(g.Degree(u))][0]) // a real hop
				}
			}
			if src.IntN(50) == 0 {
				p = Path{}
			}
			ps = append(ps, p)
		}
		var table []int32
		var good []Path
		var want [][]int32
		for _, p := range ps {
			links, revisit, wantErr := naiveRoute(g, p)
			r, next, err := g.AppendRoute(table, p)
			if (err == nil) != (wantErr == nil) || (err != nil && err.Error() != wantErr.Error()) {
				t.Fatalf("%v: err %v, naive %v", p, err, wantErr)
			}
			if err != nil {
				if len(next) != len(table) {
					t.Fatalf("%v: refused path left %d links in the table", p, len(next)-len(table))
				}
				continue
			}
			if !slices.Equal(r.Links(), links) || r.Revisits() != revisit || !r.On(g) {
				t.Fatalf("%v: links %v revisit %v, naive %v %v", p, r.Links(), r.Revisits(), links, revisit)
			}
			table = next
			good = append(good, p)
			want = append(want, links)
		}
		routes, err := g.Routes(good)
		if err != nil {
			t.Fatal(err)
		}
		for i, r := range routes {
			if !slices.Equal(r.Links(), want[i]) || cap(r.Links()) != r.Len() {
				t.Fatalf("Routes[%d] = %v (cap %d), want %v", i, r.Links(), cap(r.Links()), want[i])
			}
		}
		if _, err := g.Routes(append(good, Path{0})); err == nil || !strings.Contains(err.Error(), fmt.Sprintf("path %d: graph: zero-length path", len(good))) {
			t.Errorf("Routes with a one-node path: err = %v", err)
		}
	}
}

// gridForRoutes is a side x side grid; denseForRoutes is a complete graph
// whose rows are past the LinkBetween scan threshold.
func gridForRoutes(side int) *Graph {
	b := NewBuilder(side * side)
	for r := 0; r < side; r++ {
		for c := 0; c < side; c++ {
			if c+1 < side {
				b.AddEdge(r*side+c, r*side+c+1)
			}
			if r+1 < side {
				b.AddEdge(r*side+c, (r+1)*side+c)
			}
		}
	}
	return b.Finalize()
}

func denseForRoutes(n int) *Graph {
	b := NewBuilder(n)
	for u := 0; u < n; u++ {
		for v := u + 1; v < n; v += 2 {
			b.AddEdge(u, v)
		}
	}
	return b.Finalize()
}

func TestPathIsSimple(t *testing.T) {
	if !(Path{0, 1, 2}).IsSimple() {
		t.Error("simple path misclassified")
	}
	if (Path{0, 1, 0}).IsSimple() {
		t.Error("cycle misclassified as simple")
	}
}

func TestPathIndexOfCloneString(t *testing.T) {
	p := Path{4, 7, 9}
	c := p.Clone()
	c[0] = 99
	if p[0] != 4 {
		t.Error("Clone aliases original")
	}
	if p.String() != "4->7->9" {
		t.Errorf("String = %q", p.String())
	}
}
