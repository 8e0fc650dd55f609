package sim

import (
	"testing"
	"testing/quick"

	"repro/internal/graph"
	"repro/internal/optical"
	"repro/internal/rng"
	"repro/internal/topology"
)

// randomWorms builds a random workload on g with seeded randomness.
func randomWorms(g *graph.Graph, src *rng.Source, count, maxLen, maxDelay, bandwidth int) []Worm {
	n := g.NumNodes()
	var worms []Worm
	ranks := src.Perm(count) // distinct ranks, as the paper requires
	for id := 0; id < count; id++ {
		s := src.Intn(n)
		d := src.Intn(n)
		if s == d {
			continue
		}
		p := g.ShortestPath(s, d, nil)
		if p == nil {
			continue
		}
		worms = append(worms, Worm{
			Route:      route(g, p),
			Length:     1 + src.Intn(maxLen),
			Delay:      src.Intn(maxDelay + 1),
			Wavelength: src.Intn(bandwidth),
			Rank:       ranks[id],
		})
	}
	return worms
}

// TestStressInvariants runs many random rounds with the internal
// consistency checks enabled, across all rule/policy combinations.
func TestStressInvariants(t *testing.T) {
	tor := topology.NewTorus(2, 5)
	g := tor.Graph()
	combos := []struct {
		rule optical.Rule
		pol  WreckagePolicy
		tie  optical.TiePolicy
		ack  int
		conv func(graph.NodeID) bool
	}{
		{optical.ServeFirst, Drain, optical.TieEliminateAll, 0, nil},
		{optical.ServeFirst, Drain, optical.TieArbitraryWinner, 1, nil},
		{optical.ServeFirst, Vanish, optical.TieEliminateAll, 2, nil},
		{optical.Priority, Drain, optical.TieEliminateAll, 1, nil},
		{optical.Priority, Vanish, optical.TieEliminateAll, 0, nil},
		{optical.ServeFirst, Drain, optical.TieEliminateAll, 1, FullConversion},
		{optical.ServeFirst, Vanish, optical.TieArbitraryWinner, 0, FullConversion},
		{optical.Priority, Drain, optical.TieEliminateAll, 2, FullConversion},
	}
	eng := NewEngine() // reused across trials, like the protocol does
	for trial := 0; trial < 96; trial++ {
		src := rng.New(uint64(1000 + trial))
		combo := combos[trial%len(combos)]
		worms := randomWorms(g, src, 30, 4, 8, 2)
		res, err := eng.Run(g, worms, Config{
			Bandwidth:        2,
			Rule:             combo.rule,
			Tie:              combo.tie,
			Wreckage:         combo.pol,
			Conversion:       combo.conv,
			AckLength:        combo.ack,
			RecordCollisions: true,
			CheckInvariants:  true,
		})
		if err != nil {
			t.Fatalf("trial %d (%v/%v): %v", trial, combo.rule, combo.pol, err)
		}
		for i, o := range res.Outcomes {
			if o.Delivered != (o.CutTime == -1) {
				t.Fatalf("trial %d worm %d: delivered=%t cutTime=%d", trial, i, o.Delivered, o.CutTime)
			}
			if o.Acked && !o.Delivered {
				t.Fatalf("trial %d worm %d: acked but not delivered", trial, i)
			}
			if o.Delivered && combo.ack == 0 && !o.Acked {
				t.Fatalf("trial %d worm %d: oracle ack missing", trial, i)
			}
		}
	}
}

// TestDeterminism checks that identical inputs produce identical results.
func TestDeterminism(t *testing.T) {
	h := topology.NewHypercube(4)
	g := h.Graph()
	src1 := rng.New(77)
	src2 := rng.New(77)
	w1 := randomWorms(g, src1, 25, 3, 6, 2)
	w2 := randomWorms(g, src2, 25, 3, 6, 2)
	c := Config{Bandwidth: 2, Rule: optical.Priority, Wreckage: Drain, AckLength: 1, RecordCollisions: true}
	r1, err := NewEngine().Run(g, w1, c)
	if err != nil {
		t.Fatal(err)
	}
	r2, err := NewEngine().Run(g, w2, c)
	if err != nil {
		t.Fatal(err)
	}
	if len(r1.Outcomes) != len(r2.Outcomes) {
		t.Fatal("outcome counts differ")
	}
	for i := range r1.Outcomes {
		if r1.Outcomes[i] != r2.Outcomes[i] {
			t.Fatalf("outcome %d differs: %+v vs %+v", i, r1.Outcomes[i], r2.Outcomes[i])
		}
	}
	if len(r1.Collisions) != len(r2.Collisions) {
		t.Fatal("collision counts differ")
	}
	for i := range r1.Collisions {
		if r1.Collisions[i] != r2.Collisions[i] {
			t.Fatalf("collision %d differs", i)
		}
	}
}

// TestNoContentionAllDelivered: with distinct wavelengths per worm there
// can be no conflicts, so everything is delivered and acked.
func TestNoContentionAllDelivered(t *testing.T) {
	m := topology.NewMesh(2, 4)
	g := m.Graph()
	src := rng.New(5)
	check := func(seed uint16) bool {
		s := rng.New(uint64(seed))
		var worms []Worm
		for id := 0; id < 8; id++ {
			a, b := s.Intn(16), s.Intn(16)
			if a == b {
				continue
			}
			worms = append(worms, Worm{
				Route:  route(g, g.ShortestPath(a, b, nil)),
				Length: 1 + s.Intn(3), Delay: s.Intn(4), Wavelength: id,
			})
		}
		res, err := NewEngine().Run(g, worms, Config{
			Bandwidth: 8, Rule: optical.ServeFirst, AckLength: 1, CheckInvariants: true,
		})
		if err != nil {
			return false
		}
		return res.DeliveredCount == len(worms) && res.AckedCount == len(worms)
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
	_ = src
}

// TestServeFirstIncumbentNeverLoses: under serve-first, a collision's
// blocker must have entered the contested link no later than the loser.
func TestServeFirstIncumbentNeverLoses(t *testing.T) {
	tor := topology.NewTorus(2, 4)
	g := tor.Graph()
	for trial := 0; trial < 20; trial++ {
		src := rng.New(uint64(500 + trial))
		worms := randomWorms(g, src, 24, 3, 6, 1)
		res, err := NewEngine().Run(g, worms, Config{
			Bandwidth: 1, Rule: optical.ServeFirst, Wreckage: Drain,
			RecordCollisions: true, CheckInvariants: true,
		})
		if err != nil {
			t.Fatal(err)
		}
		for _, c := range res.Collisions {
			if c.LoserIsAck {
				continue
			}
			// Entry step of a worm into a specific link of its path:
			// delay + index. The loser enters at c.Time; the blocker must
			// have entered at or before c.Time (it was traversing).
			blocker := worms[c.Blocker]
			idx := indexOfLink(blocker.Route.Links(), c.Link)
			if idx < 0 {
				continue // blocker hit it as an ack or ghost; skip
			}
			if blocker.Delay+idx > c.Time {
				t.Fatalf("trial %d: blocker %d entered link later (%d) than collision time %d",
					trial, c.Blocker, blocker.Delay+idx, c.Time)
			}
		}
	}
}

func indexOfLink(links []int32, id graph.LinkID) int {
	for i, l := range links {
		if int(l) == id {
			return i
		}
	}
	return -1
}

// TestAckContention: two worms delivered at the same time whose acks share
// a reverse link on the same wavelength must lose at least one ack.
func TestAckContention(t *testing.T) {
	// Y-junction: worms travel 0->2->3 and 1->2->3 with their forward
	// occupancies of the shared link 2->3 separated in time, so both are
	// delivered; the acks share the reverse link 3->2 on one wavelength.
	//   A: 0->2->3, delay 0, L=1: holds 2->3 at step 1, delivered at 1;
	//      its ack (length 3) occupies 3->2 during steps [2, 4].
	//   B: 1->2->3, delay 2, L=1: holds 2->3 at step 3, delivered at 3;
	//      its ack enters 3->2 at step 4 -> eliminated by A's ack.
	gb := graph.NewBuilder(4)
	gb.AddEdge(0, 2)
	gb.AddEdge(1, 2)
	gb.AddEdge(2, 3)
	g := gb.Finalize()
	res := mustRun(t, g, []Worm{
		{Route: route(g, graph.Path{0, 2, 3}), Length: 1, Delay: 0, Wavelength: 0},
		{Route: route(g, graph.Path{1, 2, 3}), Length: 1, Delay: 2, Wavelength: 0},
	}, Config{
		Bandwidth: 1, Rule: optical.ServeFirst, Wreckage: Drain,
		AckLength: 3, RecordCollisions: true, CheckInvariants: true,
	})
	if !res.Outcomes[0].Delivered || !res.Outcomes[1].Delivered {
		t.Fatalf("both worms must be delivered: %+v", res.Outcomes)
	}
	if !res.Outcomes[0].Acked {
		t.Error("first ack travels unopposed and must arrive")
	}
	if res.Outcomes[1].Acked {
		t.Error("second ack must be eliminated on link 3->2")
	}
	foundAckCollision := false
	for _, c := range res.Collisions {
		if c.LoserIsAck && c.Loser == 1 {
			foundAckCollision = true
			if c.Band != AckBand {
				t.Error("ack collision must be in the ack band")
			}
		}
	}
	if !foundAckCollision {
		t.Error("ack collision not recorded")
	}
}

// TestAckBandSeparation: an ack and a forward worm on the same physical
// directed link at the same time do not conflict (reserved band).
func TestAckBandSeparation(t *testing.T) {
	g := chain(3)
	// Worm A: 0->1->2, L=1, delay 0: delivered at step 1; ack (length 2)
	// travels 2->1 at step 2, 1->0 at step 3.
	// Worm B: 2->1->0? that uses links 2->1 and 1->0 in the MESSAGE band
	// at steps 2 and 3 with delay 0... choose delay 2: B occupies 2->1 at
	// step 2, exactly when A's ack is on 2->1 in the ack band.
	res := mustRun(t, g, []Worm{
		{Route: route(g, graph.Path{0, 1, 2}), Length: 1, Delay: 0, Wavelength: 0},
		{Route: route(g, graph.Path{2, 1, 0}), Length: 1, Delay: 2, Wavelength: 0},
	}, Config{
		Bandwidth: 1, Rule: optical.ServeFirst, Wreckage: Drain,
		AckLength: 2, RecordCollisions: true, CheckInvariants: true,
	})
	if !res.Outcomes[0].Acked {
		t.Error("ack must not conflict with a message on the same link (reserved band)")
	}
	if !res.Outcomes[1].Delivered || !res.Outcomes[1].Acked {
		t.Error("worm B must be unaffected by the ack band")
	}
}

// TestMakespanMonotone: makespan covers the last ack arrival.
func TestMakespanCoversAcks(t *testing.T) {
	g := chain(4)
	res := mustRun(t, g, []Worm{
		{Route: route(g, graph.Path{0, 1, 2, 3}), Length: 2, Delay: 1, Wavelength: 0},
	}, Config{Bandwidth: 1, Rule: optical.ServeFirst, AckLength: 2, CheckInvariants: true})
	// Delivered at 1+3+2-2 = 4; ack start 5, ack delivered at 5+3+2-2 = 8.
	if res.Outcomes[0].AckedAt != 8 {
		t.Errorf("AckedAt = %d, want 8", res.Outcomes[0].AckedAt)
	}
	if res.Makespan < 8 {
		t.Errorf("makespan %d does not cover ack arrival 8", res.Makespan)
	}
}
