package graph

import (
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

func TestPathValidate(t *testing.T) {
	g := ringGraph(5)
	if err := (Path{0, 1, 2}).Validate(g); err != nil {
		t.Errorf("valid path rejected: %v", err)
	}
	if err := (Path{0, 2}).Validate(g); err == nil {
		t.Error("chord path accepted on ring")
	}
	if err := (Path{}).Validate(g); err == nil {
		t.Error("empty path accepted")
	}
	if err := (Path{0, 9}).Validate(g); err == nil {
		t.Error("out-of-range node accepted")
	}
	if err := (Path{-1}).Validate(g); err == nil {
		t.Error("negative node accepted")
	}
}

func TestPathLinks(t *testing.T) {
	g := ringGraph(4)
	p := Path{0, 1, 2}
	ids := p.Links(g)
	if len(ids) != 2 {
		t.Fatalf("links = %v", ids)
	}
	if g.Link(ids[0]).From != 0 || g.Link(ids[0]).To != 1 {
		t.Errorf("first link wrong: %+v", g.Link(ids[0]))
	}
	if g.Link(ids[1]).From != 1 || g.Link(ids[1]).To != 2 {
		t.Errorf("second link wrong: %+v", g.Link(ids[1]))
	}
	defer func() {
		if recover() == nil {
			t.Error("Links on invalid path did not panic")
		}
	}()
	Path{0, 2}.Links(g)
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
