package topology

import (
	"testing"
	"testing/quick"
)

func TestButterflyStructure(t *testing.T) {
	b := NewButterfly(3)
	g := b.Graph()
	if g.NumNodes() != 4*8 {
		t.Fatalf("butterfly(3) nodes = %d, want 32", g.NumNodes())
	}
	// Each of the k levels contributes 2 edges per row.
	if want := 3 * 8 * 2; g.NumEdges() != want {
		t.Fatalf("butterfly(3) edges = %d, want %d", g.NumEdges(), want)
	}
	if b.Levels() != 4 || b.Rows() != 8 || b.Dim() != 3 || b.Wrapped() {
		t.Error("accessors wrong")
	}
	// Straight and cross edges at level 0.
	if !hasEdge(g, b.Node(0, 5), b.Node(1, 5)) {
		t.Error("straight edge missing")
	}
	if !hasEdge(g, b.Node(0, 5), b.Node(1, 4)) { // flips bit 0
		t.Error("cross edge missing")
	}
	if hasEdge(g, b.Node(0, 5), b.Node(1, 7)) { // would flip bit 1
		t.Error("wrong cross edge present")
	}
}

func TestButterflyLevelRowRoundTrip(t *testing.T) {
	b := NewButterfly(4)
	for l := 0; l < b.Levels(); l++ {
		for r := 0; r < b.Rows(); r++ {
			u := b.Node(l, r)
			if b.LevelOf(u) != l || b.RowOf(u) != r {
				t.Fatalf("round trip failed at (%d,%d)", l, r)
			}
		}
	}
}

func TestButterflyInputsOutputs(t *testing.T) {
	b := NewButterfly(3)
	ins, outs := b.Inputs(), b.Outputs()
	if len(ins) != 8 || len(outs) != 8 {
		t.Fatal("inputs/outputs size")
	}
	for r, u := range ins {
		if b.LevelOf(u) != 0 || b.RowOf(u) != r {
			t.Fatalf("input %d wrong: %d", r, u)
		}
	}
	for r, u := range outs {
		if b.LevelOf(u) != 3 || b.RowOf(u) != r {
			t.Fatalf("output %d wrong: %d", r, u)
		}
	}
}

func TestButterflyUniquePath(t *testing.T) {
	b := NewButterfly(4)
	g := b.Graph()
	check := func(src, dst uint8) bool {
		s, d := int(src)%16, int(dst)%16
		p := b.UniquePath(s, d)
		if p.Len() != 4 {
			return false
		}
		if _, _, err := g.AppendRoute(nil, p); err != nil {
			return false
		}
		if b.LevelOf(p.Source()) != 0 || b.RowOf(p.Source()) != s {
			return false
		}
		return b.LevelOf(p.Dest()) == 4 && b.RowOf(p.Dest()) == d
	}
	if err := quick.Check(check, nil); err != nil {
		t.Fatal(err)
	}
}

func TestButterflyUniquePathMonotoneLevels(t *testing.T) {
	b := NewButterfly(5)
	p := b.UniquePath(3, 28)
	for i, u := range p {
		if b.LevelOf(u) != i {
			t.Fatalf("path node %d at level %d, want %d", i, b.LevelOf(u), i)
		}
	}
}

func TestButterflyConnected(t *testing.T) {
	if NewButterfly(3).Graph().Eccentricity(0) < 0 {
		t.Error("plain butterfly not connected")
	}
	if NewWrappedButterfly(3).Graph().Eccentricity(0) < 0 {
		t.Error("wrapped butterfly not connected")
	}
}

func TestWrappedButterfly(t *testing.T) {
	b := NewWrappedButterfly(3)
	g := b.Graph()
	if g.NumNodes() != 3*8 {
		t.Fatalf("wrapped butterfly(3) nodes = %d, want 24", g.NumNodes())
	}
	if b.Levels() != 3 || !b.Wrapped() {
		t.Error("accessors")
	}
	// Wrap edges: level 2 connects to level 0.
	if !hasEdge(g, b.Node(2, 1), b.Node(0, 1)) {
		t.Error("straight wrap edge missing")
	}
	if !hasEdge(g, b.Node(2, 1), b.Node(0, 5)) { // flips bit 2
		t.Error("cross wrap edge missing")
	}
	// 4-regular everywhere.
	for u := 0; u < g.NumNodes(); u++ {
		if g.Degree(u) != 4 {
			t.Fatalf("wrapped butterfly degree at %d = %d", u, g.Degree(u))
		}
	}
	checkVertexTransitive(t, b)
}

func TestWrappedButterflyAutomorphismAllTargets(t *testing.T) {
	b := NewWrappedButterfly(3)
	g := b.Graph()
	for u := 0; u < g.NumNodes(); u++ {
		phi := b.AutomorphismTo(u)
		if phi(0) != u {
			t.Fatalf("phi(0) = %d, want %d", phi(0), u)
		}
	}
	// Full automorphism check on a couple of targets beyond the generic
	// ones in checkVertexTransitive.
	checkAutomorphism(t, g, b.AutomorphismTo(b.Node(2, 5)))
	checkAutomorphism(t, g, b.AutomorphismTo(b.Node(1, 7)))
}

func TestButterflyPanics(t *testing.T) {
	for name, f := range map[string]func(){
		"dim 0":            func() { NewButterfly(0) },
		"wrapped dim 2":    func() { NewWrappedButterfly(2) },
		"node range":       func() { NewButterfly(2).Node(5, 0) },
		"outputs wrapped":  func() { NewWrappedButterfly(3).Outputs() },
		"unique wrapped":   func() { NewWrappedButterfly(3).UniquePath(0, 1) },
		"unique row range": func() { NewButterfly(2).UniquePath(0, 9) },
		"aut plain":        func() { NewButterfly(2).AutomorphismTo(1) },
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

func TestRotlBits(t *testing.T) {
	cases := []struct{ r, s, k, want int }{
		{0b001, 1, 3, 0b010},
		{0b100, 1, 3, 0b001},
		{0b101, 0, 3, 0b101},
		{0b101, 3, 3, 0b101},
		{0b1100, 2, 4, 0b0011},
	}
	for _, c := range cases {
		if got := rotlBits(c.r, c.s, c.k); got != c.want {
			t.Errorf("rotlBits(%b,%d,%d) = %b, want %b", c.r, c.s, c.k, got, c.want)
		}
	}
}
