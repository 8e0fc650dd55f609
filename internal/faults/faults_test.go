package faults

import (
	"reflect"
	"testing"

	"repro/internal/graph"
	"repro/internal/rng"
)

func line(n int) *graph.Graph {
	gb := graph.NewBuilder(n)
	for i := 0; i+1 < n; i++ {
		gb.AddEdge(i, i+1)
	}
	return gb.Finalize()
}

func TestFaultActiveAt(t *testing.T) {
	f := Fault{Kind: LinkOutage, Link: 0, Start: 5, End: 10}
	for _, tc := range []struct {
		t    int
		want bool
	}{{4, false}, {5, true}, {9, true}, {10, false}} {
		if got := f.ActiveAt(tc.t); got != tc.want {
			t.Errorf("ActiveAt(%d) = %t, want %t", tc.t, got, tc.want)
		}
	}
	open := Fault{Kind: LinkOutage, Link: 0, Start: 3}
	if open.ActiveAt(2) || !open.ActiveAt(3) || !open.ActiveAt(1<<20) {
		t.Error("open-ended fault has wrong activity window")
	}
}

func TestPlanValidate(t *testing.T) {
	g := line(4)
	bad := []Plan{
		{Faults: []Fault{{Kind: LinkOutage, Link: g.NumLinks()}}},
		{Faults: []Fault{{Kind: LinkOutage, Link: -1}}},
		{Faults: []Fault{{Kind: WavelengthOutage, Link: 0, Wavelength: 2}}},
		{Faults: []Fault{{Kind: WavelengthOutage, Link: 0, Band: 2}}},
		{Faults: []Fault{{Kind: StuckCoupler, Node: 4}}},
		{Faults: []Fault{{Kind: Kind(99), Link: 0}}},
		{Faults: []Fault{{Kind: LinkOutage, Link: 0, Start: -1}}},
		{Faults: []Fault{{Kind: LinkOutage, Link: 0, Start: 5, End: 5}}},
		{Faults: []Fault{{Kind: AckLoss, Link: 0, Start: 5, End: 3}}},
	}
	for i := range bad {
		if err := bad[i].Validate(g, 2); err == nil {
			t.Errorf("plan %d: Validate accepted an invalid fault", i)
		}
	}
	ok := Plan{Faults: []Fault{
		{Kind: LinkOutage, Link: 0, Start: 0, End: 10},
		{Kind: WavelengthOutage, Link: 1, Band: 1, Wavelength: 1, Start: 2},
		{Kind: AckLoss, Link: 2, Start: 1, End: 2},
		{Kind: StuckCoupler, Node: 3, Start: 0},
	}}
	if err := ok.Validate(g, 2); err != nil {
		t.Fatalf("Validate rejected a valid plan: %v", err)
	}
	var nilPlan *Plan
	if err := nilPlan.Validate(g, 2); err != nil {
		t.Fatalf("nil plan should validate: %v", err)
	}
}

func TestCompileOrdersRepairsBeforeActivations(t *testing.T) {
	g := line(3)
	p := &Plan{Faults: []Fault{
		{Kind: LinkOutage, Link: 1, Start: 10, End: 20}, // activation at 10
		{Kind: LinkOutage, Link: 0, Start: 0, End: 10},  // repair at 10
		{Kind: AckLoss, Link: 2, Start: 10},             // activation at 10, after link 1's (plan order)
	}}
	s, err := p.Compile(g, 2)
	if err != nil {
		t.Fatal(err)
	}
	ev := s.Events()
	if len(ev) != 5 {
		t.Fatalf("got %d events, want 5", len(ev))
	}
	// Order: start@0, repair@10, start@10 (link 1), start@10 (ack loss),
	// repair@20 (link 1).
	want := []struct {
		step  int
		start bool
		link  graph.LinkID
	}{{0, true, 0}, {10, false, 0}, {10, true, 1}, {10, true, 2}, {20, false, 1}}
	for i, w := range want {
		if ev[i].Step != w.step || ev[i].Start != w.start || ev[i].Fault.Link != w.link {
			t.Errorf("event %d = {step %d start %t link %d}, want %+v",
				i, ev[i].Step, ev[i].Start, ev[i].Fault.Link, w)
		}
	}
	if s.Empty() {
		t.Error("schedule with events reports Empty")
	}
	if !s.Matches(g.NumLinks(), g.NumNodes(), 2) || s.Matches(g.NumLinks(), g.NumNodes(), 3) {
		t.Error("Matches does not pin the compiled geometry")
	}
}

func TestCompileEmptyAndNil(t *testing.T) {
	g := line(3)
	var nilPlan *Plan
	s, err := nilPlan.Compile(g, 2)
	if err != nil || !s.Empty() {
		t.Fatalf("nil plan: schedule empty=%t err=%v", s.Empty(), err)
	}
	s2, err := (&Plan{}).Compile(g, 2)
	if err != nil || !s2.Empty() {
		t.Fatalf("empty plan: schedule empty=%t err=%v", s2.Empty(), err)
	}
}

func TestShift(t *testing.T) {
	p := &Plan{Faults: []Fault{
		{Kind: LinkOutage, Link: 0, Start: 0, End: 10},  // over before offset: dropped
		{Kind: LinkOutage, Link: 1, Start: 5, End: 25},  // straddles: clamped
		{Kind: AckLoss, Link: 2, Start: 30, End: 40},    // future: translated
		{Kind: StuckCoupler, Node: 0, Start: 2, End: 0}, // open: stays open
	}}
	q := p.Shift(20)
	want := []Fault{
		{Kind: LinkOutage, Link: 1, Start: 0, End: 5},
		{Kind: AckLoss, Link: 2, Start: 10, End: 20},
		{Kind: StuckCoupler, Node: 0, Start: 0, End: 0},
	}
	if !reflect.DeepEqual(q.Faults, want) {
		t.Errorf("Shift(20) = %+v, want %+v", q.Faults, want)
	}
	if p.Shift(0) != p {
		t.Error("Shift(0) should return the plan unchanged")
	}
	var nilPlan *Plan
	if nilPlan.Shift(5) != nil {
		t.Error("nil plan shifts to nil")
	}
}

func TestDownLinksAt(t *testing.T) {
	p := &Plan{Faults: []Fault{
		{Kind: LinkOutage, Link: 3, Start: 0, End: 10},
		{Kind: LinkOutage, Link: 1, Start: 5, End: 15},
		{Kind: LinkOutage, Link: 3, Start: 2, End: 20}, // duplicate link
		{Kind: AckLoss, Link: 0, Start: 0, End: 100},   // not a link outage
	}}
	if got := p.DownLinksAt(7); !reflect.DeepEqual(got, []graph.LinkID{1, 3}) {
		t.Errorf("DownLinksAt(7) = %v, want [1 3]", got)
	}
	if got := p.DownLinksAt(12); !reflect.DeepEqual(got, []graph.LinkID{1, 3}) {
		t.Errorf("DownLinksAt(12) = %v, want [1 3]", got)
	}
	if got := p.DownLinksAt(50); len(got) != 0 {
		t.Errorf("DownLinksAt(50) = %v, want empty", got)
	}
	var nilPlan *Plan
	if nilPlan.DownLinksAt(0) != nil {
		t.Error("nil plan has no down links")
	}
}

func TestRandomDeterministicAndValid(t *testing.T) {
	g := line(6)
	cfg := GenConfig{
		Horizon:           100,
		LinkOutages:       3,
		WavelengthOutages: 2,
		AckLosses:         2,
		StuckCouplers:     1,
		MinDuration:       5,
		MaxDuration:       20,
	}
	p1 := MustRandom(g, 3, cfg, rng.New(42))
	p2 := MustRandom(g, 3, cfg, rng.New(42))
	if !reflect.DeepEqual(p1, p2) {
		t.Fatal("same seed must reproduce the same plan")
	}
	p3 := MustRandom(g, 3, cfg, rng.New(43))
	if reflect.DeepEqual(p1, p3) {
		t.Fatal("different seeds produced identical plans (suspicious)")
	}
	if err := p1.Validate(g, 3); err != nil {
		t.Fatalf("generated plan fails validation: %v", err)
	}
	if got := len(p1.Faults); got != 8 {
		t.Fatalf("generated %d faults, want 8", got)
	}
	counts := map[Kind]int{}
	for _, f := range p1.Faults {
		counts[f.Kind]++
		if f.Start < 0 || f.Start >= cfg.Horizon {
			t.Errorf("fault start %d outside [0,%d)", f.Start, cfg.Horizon)
		}
		if d := f.End - f.Start; d < cfg.MinDuration || d > cfg.MaxDuration {
			t.Errorf("fault duration %d outside [%d,%d]", d, cfg.MinDuration, cfg.MaxDuration)
		}
	}
	if counts[LinkOutage] != 3 || counts[WavelengthOutage] != 2 || counts[AckLoss] != 2 || counts[StuckCoupler] != 1 {
		t.Errorf("kind counts = %v", counts)
	}
}

func TestRandomErrors(t *testing.T) {
	g := line(3)
	if _, err := Random(g, 2, GenConfig{LinkOutages: 1}, rng.New(1)); err == nil {
		t.Error("missing horizon should error")
	}
	if _, err := Random(g, 0, GenConfig{Horizon: 10, LinkOutages: 1}, rng.New(1)); err == nil {
		t.Error("bad bandwidth should error")
	}
	p, err := Random(g, 2, GenConfig{}, rng.New(1))
	if err != nil || !p.Empty() {
		t.Errorf("zero-count config should yield the empty plan, got %+v, %v", p, err)
	}
}

func TestKindString(t *testing.T) {
	for k, want := range map[Kind]string{
		LinkOutage: "link-outage", WavelengthOutage: "wavelength-outage",
		AckLoss: "ack-loss", StuckCoupler: "stuck-coupler", Kind(7): "Kind(7)",
	} {
		if got := k.String(); got != want {
			t.Errorf("Kind(%d).String() = %q, want %q", int(k), got, want)
		}
	}
}
