package optical

import (
	"testing"
)

func TestRuleString(t *testing.T) {
	if ServeFirst.String() != "serve-first" || Priority.String() != "priority" {
		t.Error("rule strings")
	}
	if Rule(9).String() != "Rule(9)" {
		t.Error("unknown rule string")
	}
	for _, r := range []Rule{ServeFirst, Priority} {
		if got, err := ParseRule(r.String()); err != nil || got != r {
			t.Errorf("ParseRule(%q) = %v, %v", r, got, err)
		}
	}
	for _, name := range []string{"", "priorty", "Rule(9)"} {
		if _, err := ParseRule(name); err == nil {
			t.Errorf("ParseRule(%q) accepted", name)
		}
	}
}

func TestCouplerServeFirstArrive(t *testing.T) {
	c := NewCoupler(2, ServeFirst)
	ok, pre := c.Arrive(Signal{Wavelength: 0, WormID: 1})
	if !ok || pre != nil {
		t.Fatal("first arrival on free wavelength must be accepted")
	}
	// Same wavelength occupied: arrival eliminated.
	ok, pre = c.Arrive(Signal{Wavelength: 0, WormID: 2})
	if ok || pre != nil {
		t.Fatal("serve-first must eliminate arrival on occupied wavelength")
	}
	// Other wavelength free.
	if ok, _ := c.Arrive(Signal{Wavelength: 1, WormID: 2}); !ok {
		t.Fatal("different wavelength must be independent")
	}
	// Occupant bookkeeping.
	if c.Occupant(0).WormID != 1 || c.Occupant(1).WormID != 2 {
		t.Error("occupants wrong")
	}
	c.Release(0)
	if c.Occupant(0) != nil {
		t.Error("Release did not free wavelength")
	}
	if ok, _ := c.Arrive(Signal{Wavelength: 0, WormID: 3}); !ok {
		t.Error("freed wavelength must accept")
	}
}

func TestCouplerPriorityArrive(t *testing.T) {
	c := NewCoupler(1, Priority)
	c.Arrive(Signal{Wavelength: 0, WormID: 1, Rank: 5})
	// Lower rank loses.
	ok, pre := c.Arrive(Signal{Wavelength: 0, WormID: 2, Rank: 3})
	if ok || pre != nil {
		t.Fatal("lower-rank arrival must lose without preempting")
	}
	// Higher rank preempts incumbent.
	ok, pre = c.Arrive(Signal{Wavelength: 0, WormID: 3, Rank: 9})
	if !ok || pre == nil || pre.WormID != 1 {
		t.Fatalf("higher-rank arrival must preempt: ok=%v pre=%+v", ok, pre)
	}
	if c.Occupant(0).WormID != 3 {
		t.Error("occupant not updated after preemption")
	}
	// Equal rank: incumbent wins.
	ok, _ = c.Arrive(Signal{Wavelength: 0, WormID: 4, Rank: 9})
	if ok {
		t.Error("equal-rank arrival must not preempt the incumbent")
	}
}

func TestCouplerSimultaneousServeFirstTies(t *testing.T) {
	c := NewCoupler(1, ServeFirst)
	// Default: all simultaneous arrivals on a free wavelength eliminated.
	acc, elim := c.ArriveSimultaneous([]Signal{
		{Wavelength: 0, WormID: 1}, {Wavelength: 0, WormID: 2},
	})
	if len(acc) != 0 || len(elim) != 2 {
		t.Fatalf("TieEliminateAll: acc=%v elim=%v", acc, elim)
	}
	if c.Occupant(0) != nil {
		t.Fatal("no occupant expected after mutual elimination")
	}
	// Arbitrary-winner policy: smallest worm ID survives.
	c2 := NewCoupler(1, ServeFirst)
	c2.SetTiePolicy(TieArbitraryWinner)
	acc, elim = c2.ArriveSimultaneous([]Signal{
		{Wavelength: 0, WormID: 7}, {Wavelength: 0, WormID: 3}, {Wavelength: 0, WormID: 9},
	})
	if len(acc) != 1 || acc[0].WormID != 3 || len(elim) != 2 {
		t.Fatalf("TieArbitraryWinner: acc=%v elim=%v", acc, elim)
	}
}

func TestCouplerSimultaneousServeFirstOccupied(t *testing.T) {
	c := NewCoupler(1, ServeFirst)
	c.Arrive(Signal{Wavelength: 0, WormID: 1})
	acc, elim := c.ArriveSimultaneous([]Signal{
		{Wavelength: 0, WormID: 2}, {Wavelength: 0, WormID: 3},
	})
	if len(acc) != 0 || len(elim) != 2 {
		t.Fatalf("occupied wavelength must eliminate all arrivals: acc=%v elim=%v", acc, elim)
	}
	if c.Occupant(0).WormID != 1 {
		t.Error("incumbent must survive")
	}
}

func TestCouplerSimultaneousSingleArrival(t *testing.T) {
	c := NewCoupler(2, ServeFirst)
	acc, elim := c.ArriveSimultaneous([]Signal{{Wavelength: 1, WormID: 5}})
	if len(acc) != 1 || len(elim) != 0 || c.Occupant(1).WormID != 5 {
		t.Fatal("single arrival on free wavelength must be accepted")
	}
}

func TestCouplerSimultaneousPriority(t *testing.T) {
	c := NewCoupler(1, Priority)
	c.Arrive(Signal{Wavelength: 0, WormID: 1, Rank: 4})
	// Arrivals with max rank 9 preempt the incumbent; others eliminated.
	acc, elim := c.ArriveSimultaneous([]Signal{
		{Wavelength: 0, WormID: 2, Rank: 9},
		{Wavelength: 0, WormID: 3, Rank: 6},
	})
	if len(acc) != 1 || acc[0].WormID != 2 {
		t.Fatalf("acc = %v", acc)
	}
	if len(elim) != 2 { // incumbent 1 and arrival 3
		t.Fatalf("elim = %v", elim)
	}
	if c.Occupant(0).WormID != 2 {
		t.Error("occupant not updated")
	}
	// Incumbent with the top rank survives all arrivals.
	c2 := NewCoupler(1, Priority)
	c2.Arrive(Signal{Wavelength: 0, WormID: 1, Rank: 10})
	acc, elim = c2.ArriveSimultaneous([]Signal{
		{Wavelength: 0, WormID: 2, Rank: 9},
		{Wavelength: 0, WormID: 3, Rank: 8},
	})
	if len(acc) != 0 || len(elim) != 2 || c2.Occupant(0).WormID != 1 {
		t.Fatal("top-rank incumbent must survive batch")
	}
}

func TestCouplerPanics(t *testing.T) {
	for name, f := range map[string]func(){
		"bandwidth 0":       func() { NewCoupler(0, ServeFirst) },
		"occupant range":    func() { NewCoupler(1, ServeFirst).Occupant(1) },
		"release range":     func() { NewCoupler(1, ServeFirst).Release(-1) },
		"arrive wavelength": func() { NewCoupler(1, ServeFirst).Arrive(Signal{Wavelength: 2}) },
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

func TestElementarySwitchConfigurations(t *testing.T) {
	// Figure 2: an elementary switch with two outputs allows exactly two
	// configurations.
	s := NewElementarySwitch(2, 2)
	if s.Configurations() != 2 {
		t.Fatalf("elementary configurations = %d, want 2", s.Configurations())
	}
	s.SetConfiguration(1)
	// All wavelengths follow the fiber: both to output 1.
	if s.OutputFor(0) != 1 || s.OutputFor(1) != 1 {
		t.Error("elementary switch must move whole fibers")
	}
	if s.Outputs() != 2 || s.Bandwidth() != 2 {
		t.Error("accessors")
	}
}

func TestGeneralizedSwitchConfigurations(t *testing.T) {
	// Figure 2: a generalized switch with two outputs and two wavelengths
	// allows all four configurations.
	s := NewGeneralizedSwitch(2, 2)
	if s.Configurations() != 4 {
		t.Fatalf("generalized configurations = %d, want 4", s.Configurations())
	}
	seen := map[[2]int]bool{}
	for c := 0; c < 4; c++ {
		s.SetConfiguration(c)
		seen[[2]int{s.OutputFor(0), s.OutputFor(1)}] = true
	}
	if len(seen) != 4 {
		t.Fatalf("distinct wavelength routings = %d, want 4", len(seen))
	}
	// Direct per-wavelength control.
	s.SetRoute(0, 1)
	s.SetRoute(1, 0)
	if s.OutputFor(0) != 1 || s.OutputFor(1) != 0 {
		t.Error("SetRoute ignored")
	}
}

func TestGeneralizedStrictlyMorePowerful(t *testing.T) {
	// The defining capability gap: splitting two wavelengths of one input
	// to different outputs is possible for generalized, impossible for
	// elementary.
	gen := NewGeneralizedSwitch(2, 2)
	canSplit := false
	for c := 0; c < gen.Configurations(); c++ {
		gen.SetConfiguration(c)
		if gen.OutputFor(0) != gen.OutputFor(1) {
			canSplit = true
		}
	}
	if !canSplit {
		t.Fatal("generalized switch must be able to split wavelengths")
	}
	ele := NewElementarySwitch(2, 2)
	for c := 0; c < ele.Configurations(); c++ {
		ele.SetConfiguration(c)
		if ele.OutputFor(0) != ele.OutputFor(1) {
			t.Fatal("elementary switch must never split wavelengths")
		}
	}
}

func TestSwitchPanics(t *testing.T) {
	for name, f := range map[string]func(){
		"ele outputs 0":    func() { NewElementarySwitch(0, 1) },
		"ele bandwidth 0":  func() { NewElementarySwitch(2, 0) },
		"ele config range": func() { NewElementarySwitch(2, 1).SetConfiguration(5) },
		"ele wavelength":   func() { NewElementarySwitch(2, 1).OutputFor(3) },
		"gen config range": func() { NewGeneralizedSwitch(2, 2).SetConfiguration(4) },
		"gen route wave":   func() { NewGeneralizedSwitch(2, 2).SetRoute(5, 0) },
		"gen route out":    func() { NewGeneralizedSwitch(2, 2).SetRoute(0, 5) },
		"gen wavelength":   func() { NewGeneralizedSwitch(2, 2).OutputFor(-1) },
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
