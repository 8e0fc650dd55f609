package sim

import (
	"fmt"
	"testing"

	"repro/internal/faults"
	"repro/internal/graph"
	"repro/internal/optical"
	"repro/internal/rng"
	"repro/internal/topology"
)

// compareResults asserts the engine and reference produced byte-identical
// accounts of a round: outcomes, collision and fault-kill counts, the
// collision log entry by entry (when recorded), makespan and busy-slot
// totals.
func compareResults(t *testing.T, label string, fast, ref *Result) {
	t.Helper()
	if len(fast.Outcomes) != len(ref.Outcomes) {
		t.Fatalf("%s: outcome counts %d vs %d", label, len(fast.Outcomes), len(ref.Outcomes))
	}
	for i := range fast.Outcomes {
		if fast.Outcomes[i] != ref.Outcomes[i] {
			t.Fatalf("%s: worm %d: engine %+v vs reference %+v",
				label, i, fast.Outcomes[i], ref.Outcomes[i])
		}
	}
	if fast.CollisionCount != ref.CollisionCount {
		t.Fatalf("%s: CollisionCount %d vs %d", label, fast.CollisionCount, ref.CollisionCount)
	}
	if fast.FaultKillCount != ref.FaultKillCount {
		t.Fatalf("%s: FaultKillCount %d vs %d", label, fast.FaultKillCount, ref.FaultKillCount)
	}
	if len(fast.Collisions) != len(ref.Collisions) {
		t.Fatalf("%s: collision logs %d vs %d entries", label, len(fast.Collisions), len(ref.Collisions))
	}
	for i := range fast.Collisions {
		if fast.Collisions[i] != ref.Collisions[i] {
			t.Fatalf("%s: collision %d: engine %+v vs reference %+v",
				label, i, fast.Collisions[i], ref.Collisions[i])
		}
	}
	if fast.Makespan != ref.Makespan {
		t.Fatalf("%s: Makespan %d vs %d", label, fast.Makespan, ref.Makespan)
	}
	if fast.MessageBusySlotSteps != ref.MessageBusySlotSteps || fast.AckBusySlotSteps != ref.AckBusySlotSteps {
		t.Fatalf("%s: per-band busy %d/%d vs %d/%d", label,
			fast.MessageBusySlotSteps, fast.AckBusySlotSteps,
			ref.MessageBusySlotSteps, ref.AckBusySlotSteps)
	}
	if fast.DeliveredCount != ref.DeliveredCount || fast.AckedCount != ref.AckedCount {
		t.Fatalf("%s: delivered/acked %d/%d vs %d/%d", label,
			fast.DeliveredCount, fast.AckedCount, ref.DeliveredCount, ref.AckedCount)
	}
}

// conversionModes are the wavelength-conversion settings the differential
// matrices sweep: none, at every router, and at even-numbered routers only.
var conversionModes = []struct {
	name string
	fn   func(graph.NodeID) bool
}{
	{"none", nil},
	{"full", FullConversion},
	{"sparse", func(n graph.NodeID) bool { return n%2 == 0 }},
}

// TestEngineVsReferenceAllCombos: workloads across every rule x tie x
// wreckage x conversion x ack combination must agree with the per-flit
// reference model on the full Result. A single Engine per graph is reused
// across all scenarios, so the test also proves the pooled scratch state
// resets cleanly between rounds. Random worms on a 4x4 torus cover the
// rules; the 32x32 torus has 4,096 directed links, so 8,192 band-links,
// 128 bucket bitmap words and two summary words: the message band fills
// summary word 0 and the ack band word 1. Its dense contending groups with
// 2-flit acks must put deferred buckets in both summary words in one step
// (a step with a collision in each band) under every combination.
func TestEngineVsReferenceAllCombos(t *testing.T) {
	for _, tc := range []struct {
		side      int
		acks      []int
		trials    int    // workloads per combination
		seed      uint64 // each workload draws from the next seed
		worms     func(*graph.Graph, *rng.Source) []Worm
		bothBands bool // require a step with a collision in each band
	}{
		{4, []int{0, 2}, 3, 4000, func(g *graph.Graph, src *rng.Source) []Worm {
			return randomWorms(g, src, 24, 4, 8, 2)
		}, false},
		{32, []int{2}, 2, 5100, func(g *graph.Graph, src *rng.Source) []Worm {
			return denseGroups(g, src, 32, 12, 2)
		}, true},
	} {
		g := topology.NewTorus(2, tc.side).Graph()
		eng := NewEngine()
		// An attached-but-empty fault plan must leave the engine
		// byte-for-byte identical to the fault-free run, across the whole
		// matrix.
		emptyPlan := (&faults.Plan{}).MustCompile(g, 2)
		seed := tc.seed
		for _, rule := range []optical.Rule{optical.ServeFirst, optical.Priority} {
			for _, tie := range []optical.TiePolicy{optical.TieEliminateAll, optical.TieArbitraryWinner} {
				for _, wreck := range []WreckagePolicy{Drain, Vanish} {
					for _, conv := range conversionModes {
						for _, ack := range tc.acks {
							combo := fmt.Sprintf("side=%d/%v/%v/%v/conv=%s/ack=%d", tc.side, rule, tie, wreck, conv.name, ack)
							both := false
							for trial := 0; trial < tc.trials; trial++ {
								seed++
								worms := tc.worms(g, rng.New(seed))
								cfg := Config{
									Bandwidth:        2,
									Rule:             rule,
									Tie:              tie,
									Wreckage:         wreck,
									Conversion:       conv.fn,
									AckLength:        ack,
									RecordCollisions: true,
									CheckInvariants:  true,
								}
								label := fmt.Sprintf("%s/trial=%d", combo, trial)
								fast, errF := eng.Run(g, worms, cfg)
								cfg.CheckInvariants = false
								ref, errR := RunReference(g, worms, cfg)
								if errF != nil || errR != nil {
									t.Fatalf("%s: engine err %v, reference err %v", label, errF, errR)
								}
								compareResults(t, label, fast, ref)
								both = both || collidesInBothBands(fast.Collisions)
								cfg.CheckInvariants = true
								cfg.Faults = emptyPlan
								withEmpty, errE := eng.Run(g, worms, cfg)
								if errE != nil {
									t.Fatalf("%s: empty-plan run: %v", label, errE)
								}
								compareResults(t, label+"/empty-plan", withEmpty, ref)
								if withEmpty.FaultKillCount != 0 {
									t.Fatalf("%s: empty plan killed %d trains", label, withEmpty.FaultKillCount)
								}
							}
							if tc.bothBands && !both {
								t.Errorf("%s: no step had a collision in both bands", combo)
							}
						}
					}
				}
			}
		}
		if want := (2*g.NumLinks() + 4095) / 4096; len(eng.blSum) != want {
			t.Fatalf("side %d: %d summary words, want %d", tc.side, len(eng.blSum), want)
		}
	}
}

// TestPriorityDrainPreemption pins the one interaction the older property
// tests exercised only incidentally: a high-rank entrant preempting a
// mid-link incumbent under Drain, verified against the reference, with the
// incumbent's cut recorded.
func TestPriorityDrainPreemption(t *testing.T) {
	// Chain 0-1-2-3-4. The low-rank worm A occupies link 2->3 while the
	// high-rank worm B arrives at it: B preempts A mid-link.
	g := chain(5)
	worms := []Worm{
		{Route: route(g, graph.Path{0, 1, 2, 3, 4}), Length: 3, Delay: 0, Wavelength: 0, Rank: 1},
		{Route: route(g, graph.Path{1, 2, 3, 4}), Length: 2, Delay: 2, Wavelength: 0, Rank: 9},
	}
	cfg := Config{
		Bandwidth: 1, Rule: optical.Priority, Wreckage: Drain,
		AckLength: 1, RecordCollisions: true, CheckInvariants: true,
	}
	fast, err := NewEngine().Run(g, worms, cfg)
	if err != nil {
		t.Fatal(err)
	}
	ref, err := RunReference(g, worms, cfg)
	if err != nil {
		t.Fatal(err)
	}
	compareResults(t, "priority+drain", fast, ref)
	if fast.Outcomes[0].CutTime < 0 {
		t.Error("low-rank incumbent must be cut")
	}
	if !fast.Outcomes[1].Delivered {
		t.Error("high-rank preemptor must be delivered")
	}
}

// TestConversionVsReference drives wavelength conversion hard: many worms
// on few links with B=3 and conversion at every router, engine vs
// reference, on a reused engine.
func TestConversionVsReference(t *testing.T) {
	tor := topology.NewTorus(2, 3)
	g := tor.Graph()
	eng := NewEngine()
	for trial := 0; trial < 20; trial++ {
		src := rng.New(uint64(9000 + trial))
		worms := randomWorms(g, src, 20, 3, 4, 3)
		cfg := Config{
			Bandwidth:        3,
			Rule:             optical.ServeFirst,
			Wreckage:         Drain,
			Conversion:       FullConversion,
			AckLength:        1,
			RecordCollisions: true,
			CheckInvariants:  true,
		}
		fast, errF := eng.Run(g, worms, cfg)
		ref, errR := RunReference(g, worms, cfg)
		if errF != nil || errR != nil {
			t.Fatalf("trial %d: engine err %v, reference err %v", trial, errF, errR)
		}
		compareResults(t, fmt.Sprintf("conversion trial %d", trial), fast, ref)
	}
}

// TestEngineReuseDeterminism: a reused engine must reproduce exactly what
// a fresh engine computes, over scenarios of varying size and bandwidth
// (exercising the occupancy table resize path).
func TestEngineReuseDeterminism(t *testing.T) {
	eng := NewEngine()
	scenarios := []struct {
		g     *graph.Graph
		seed  uint64
		count int
		band  int
	}{
		{topology.NewTorus(2, 5).Graph(), 11, 30, 2},
		{topology.NewChain(6).Graph(), 12, 8, 1},
		{topology.NewTorus(2, 4).Graph(), 13, 20, 4},
		{topology.NewTorus(2, 5).Graph(), 11, 30, 2}, // repeat of the first
	}
	for si, sc := range scenarios {
		src := rng.New(sc.seed)
		worms := randomWorms(sc.g, src, sc.count, 4, 8, sc.band)
		cfg := Config{
			Bandwidth: sc.band, Rule: optical.Priority, Wreckage: Drain,
			AckLength: 1, RecordCollisions: true, CheckInvariants: true,
		}
		reused, err := eng.Run(sc.g, worms, cfg)
		if err != nil {
			t.Fatalf("scenario %d: %v", si, err)
		}
		fresh, err := NewEngine().Run(sc.g, worms, cfg)
		if err != nil {
			t.Fatalf("scenario %d (fresh): %v", si, err)
		}
		compareResults(t, fmt.Sprintf("scenario %d", si), reused, fresh)
	}
}

// TestAckCutRecorded: a destroyed acknowledgement must be visible in the
// dedicated AckCut fields while leaving the message-only CutLink/CutTime
// untouched (the round used to report "never cut" for such worms).
func TestAckCutRecorded(t *testing.T) {
	// Y-junction as in TestAckContention: both worms deliver; the second
	// ack is eliminated by the first on the shared reverse link 3->2.
	gb := graph.NewBuilder(4)
	gb.AddEdge(0, 2)
	gb.AddEdge(1, 2)
	gb.AddEdge(2, 3)
	g := gb.Finalize()
	worms := []Worm{
		{Route: route(g, graph.Path{0, 2, 3}), Length: 1, Delay: 0, Wavelength: 0},
		{Route: route(g, graph.Path{1, 2, 3}), Length: 1, Delay: 2, Wavelength: 0},
	}
	cfg := Config{
		Bandwidth: 1, Rule: optical.ServeFirst, Wreckage: Drain,
		AckLength: 3, RecordCollisions: true, CheckInvariants: true,
	}
	res, err := NewEngine().Run(g, worms, cfg)
	if err != nil {
		t.Fatal(err)
	}
	o := res.Outcomes[1]
	if !o.Delivered || o.Acked {
		t.Fatalf("scenario broken: %+v", o)
	}
	if o.CutTime != -1 || o.CutLink != -1 {
		t.Errorf("message cut fields must stay -1 for an ack-only loss: %+v", o)
	}
	if o.AckCutTime < 0 || o.AckCutLink < 0 {
		t.Errorf("ack cut not recorded: %+v", o)
	}
	// The first worm's ack travels unopposed.
	if res.Outcomes[0].AckCutTime != -1 {
		t.Errorf("worm 0 ack must be uncut: %+v", res.Outcomes[0])
	}
	// The reference must agree field for field.
	ref, err := RunReference(g, worms, cfg)
	if err != nil {
		t.Fatal(err)
	}
	compareResults(t, "ack cut", res, ref)
}

// TestPackedVsFlatFaultMatrix drives random fault schedules — outages,
// wavelength outages, ack losses, stuck couplers — through the word-packed
// engine and the flat per-flit reference across rule x tie x wreckage x
// conversion x ack length, 48 inputs each. The reference re-derives the
// fault state from the schedule every step and shares no code with the
// engine's counters, dark bits, splits or cuts, so the two must agree on
// the full Result, fault kills and collision log included, or the packed
// dark-slot encoding is wrong. One engine is reused throughout.
func TestPackedVsFlatFaultMatrix(t *testing.T) {
	g := topology.NewTorus(2, 4).Graph()
	eng := NewEngine()
	seed := uint64(777)
	kills := 0
	forEachFaultConfig(func(label string, cfg Config) {
		for trial := 0; trial < 48; trial++ {
			seed++
			worms, plan := randomFaultScenario(g, seed)
			kills += runFaultPair(t, eng, g, worms, plan, cfg, fmt.Sprintf("%s/trial=%d", label, trial))
		}
	})
	if kills == 0 {
		t.Fatal("the fault matrix killed nothing")
	}
}

// forEachFaultConfig calls fn once per rule x tie x wreckage x conversion x
// ack length combination with a bandwidth-2 Config that records collisions,
// and a label naming the combination.
func forEachFaultConfig(fn func(label string, cfg Config)) {
	for _, rule := range []optical.Rule{optical.ServeFirst, optical.Priority} {
		for _, tie := range []optical.TiePolicy{optical.TieEliminateAll, optical.TieArbitraryWinner} {
			for _, wreck := range []WreckagePolicy{Drain, Vanish} {
				for _, conv := range conversionModes {
					for ack := 0; ack <= 2; ack++ {
						fn(fmt.Sprintf("%v/%v/%v/conv=%s/ack=%d", rule, tie, wreck, conv.name, ack), Config{
							Bandwidth:        2,
							Rule:             rule,
							Tie:              tie,
							Wreckage:         wreck,
							Conversion:       conv.fn,
							AckLength:        ack,
							RecordCollisions: true,
						})
					}
				}
			}
		}
	}
}

// runFaultPair runs worms under plan on eng, with invariant checks on, and
// on the reference, asserts the two Results agree and returns the engine's
// fault-kill count.
func runFaultPair(t *testing.T, eng *Engine, g *graph.Graph, worms []Worm, plan *faults.Plan, cfg Config, label string) int {
	t.Helper()
	cfg.Faults = plan.MustCompile(g, cfg.Bandwidth)
	cfg.CheckInvariants = true
	fast, errF := eng.Run(g, worms, cfg)
	cfg.CheckInvariants = false
	ref, errR := RunReference(g, worms, cfg)
	if errF != nil || errR != nil {
		t.Fatalf("%s: engine err %v, reference err %v", label, errF, errR)
	}
	compareResults(t, label, fast, ref)
	return fast.FaultKillCount
}

// randomFaultScenario draws 28 random worms on g at bandwidth 2 and a
// fault plan over their first 20 steps.
func randomFaultScenario(g *graph.Graph, seed uint64) ([]Worm, *faults.Plan) {
	src := rng.New(seed)
	worms := randomWorms(g, src, 28, 4, 6, 2)
	return worms, faults.MustRandom(g, 2, faults.GenConfig{
		Horizon: 20, LinkOutages: 6, WavelengthOutages: 5,
		AckLosses: 3, StuckCouplers: 2,
		MinDuration: 4, MaxDuration: 14,
	}, src.Split())
}

// TestCalendarInconsistencyError: a corrupted spawn agenda (pending
// fragments but none scheduled at or after the cursor) must surface as a
// distinct internal error instead of spinning until the MaxSteps guard.
func TestCalendarInconsistencyError(t *testing.T) {
	var c calendar
	c.add(3, &fragment{})
	if _, err := c.nextSpawnTime(2); err != nil {
		t.Fatalf("spawn at 3 is >= 2: %v", err)
	}
	if s, err := c.nextSpawnTime(3); err != nil || s != 3 {
		t.Fatalf("next = %d, %v; want 3", s, err)
	}
	if _, err := c.nextSpawnTime(4); err == nil {
		t.Fatal("pending spawn strictly before the cursor must be an internal-inconsistency error")
	}
	c.takeInto(3, nil)
	if s, err := c.nextSpawnTime(7); err != nil || s != 7 {
		t.Fatalf("empty calendar: next = %d, %v; want 7 and no error", s, err)
	}
}

// denseGroups draws groups of per worms converging on one destination
// each: every source is a short random walk away from its destination and
// every delay falls in a window of 6 steps, so messages contest the links
// near the destination and their acknowledgements contest the reversed
// links on the way back.
func denseGroups(g *graph.Graph, src *rng.Source, groups, per, bandwidth int) []Worm {
	rows := neighborRows(g)
	var worms []Worm
	ranks := src.Perm(groups * per)
	for gi := 0; gi < groups; gi++ {
		d := src.Intn(g.NumNodes())
		for range per {
			s := d
			for h := 2 + src.Intn(4); h > 0; h-- {
				ns := rows[s]
				s = ns[src.Intn(len(ns))]
			}
			if s == d {
				continue
			}
			id := len(worms)
			worms = append(worms, Worm{
				Route:      route(g, g.ShortestPath(s, d, nil)),
				Length:     1 + src.Intn(3),
				Delay:      src.Intn(6),
				Wavelength: src.Intn(bandwidth),
				Rank:       ranks[id],
			})
		}
	}
	return worms
}

// neighborRows lists each node's neighbors in link-ID order, the order of
// the node's adjacency row.
func neighborRows(g *graph.Graph) [][]graph.NodeID {
	rows := make([][]graph.NodeID, g.NumNodes())
	for id := 0; id < g.NumLinks(); id++ {
		l := g.Link(id)
		rows[l.From] = append(rows[l.From], l.To)
	}
	return rows
}

// collidesInBothBands reports whether some step of a collision log has a
// message-band and an ack-band collision.
func collidesInBothBands(log []Collision) bool {
	bands := map[int]int{} // step -> bit per band
	for _, c := range log {
		bands[c.Time] |= 1 << c.Band
		if bands[c.Time] == 3 {
			return true
		}
	}
	return false
}

// TestDeferredEntrantJoinsReleasedSlot pins the interleaving the in-walk
// claim must get right. At step 2, entrant A reaches link 2->3 while X's
// tail still holds it, so A defers. X comes later in the active list and
// releases the link in the same walk; C, later still, then finds the slot
// free. C must join A's contest rather than claim the slot, because the
// reference sees two entrants onto a free slot, not an incumbent.
func TestDeferredEntrantJoinsReleasedSlot(t *testing.T) {
	gb := graph.NewBuilder(5)
	gb.AddEdge(0, 1)
	gb.AddEdge(1, 2)
	gb.AddEdge(2, 3)
	gb.AddEdge(4, 2)
	g := gb.Finalize()
	worms := []Worm{
		{Route: route(g, graph.Path{0, 1, 2, 3}), Length: 1, Delay: 0, Rank: 2}, // A, active first
		{Route: route(g, graph.Path{2, 3}), Length: 1, Delay: 1, Rank: 1},       // X, on 2->3 at step 1
		{Route: route(g, graph.Path{4, 2, 3}), Length: 1, Delay: 1, Rank: 3},    // C, after X
	}
	for _, rule := range []optical.Rule{optical.ServeFirst, optical.Priority} {
		for _, tie := range []optical.TiePolicy{optical.TieEliminateAll, optical.TieArbitraryWinner} {
			for _, ack := range []int{0, 1} {
				cfg := Config{
					Bandwidth: 1, Rule: rule, Tie: tie, AckLength: ack,
					RecordCollisions: true, CheckInvariants: true,
				}
				label := fmt.Sprintf("%v/%v/ack=%d", rule, tie, ack)
				fast, err := NewEngine().Run(g, worms, cfg)
				if err != nil {
					t.Fatalf("%s: %v", label, err)
				}
				cfg.CheckInvariants = false
				ref, err := RunReference(g, worms, cfg)
				if err != nil {
					t.Fatalf("%s: %v", label, err)
				}
				compareResults(t, label, fast, ref)
				if rule == optical.ServeFirst && tie == optical.TieEliminateAll &&
					(fast.Outcomes[0].CutTime != 2 || fast.Outcomes[2].CutTime != 2) {
					t.Errorf("%s: A and C must both be cut entering 2->3 at step 2: %+v", label, fast.Outcomes)
				}
			}
		}
	}
}
