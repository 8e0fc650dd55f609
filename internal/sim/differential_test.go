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
// accounts of a round: outcomes, collision counts (and the collision log
// when recorded), makespan and busy-slot totals.
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
	if fast.Makespan != ref.Makespan {
		t.Fatalf("%s: Makespan %d vs %d", label, fast.Makespan, ref.Makespan)
	}
	if fast.BusySlotSteps != ref.BusySlotSteps {
		t.Fatalf("%s: BusySlotSteps %d vs %d", label, fast.BusySlotSteps, ref.BusySlotSteps)
	}
	if fast.MessageBusySlotSteps != ref.MessageBusySlotSteps || fast.AckBusySlotSteps != ref.AckBusySlotSteps {
		t.Fatalf("%s: per-band busy %d/%d vs %d/%d", label,
			fast.MessageBusySlotSteps, fast.AckBusySlotSteps,
			ref.MessageBusySlotSteps, ref.AckBusySlotSteps)
	}
	if fast.MessageBusySlotSteps+fast.AckBusySlotSteps != fast.BusySlotSteps {
		t.Fatalf("%s: BusySlotSteps %d is not the band sum %d+%d", label,
			fast.BusySlotSteps, fast.MessageBusySlotSteps, fast.AckBusySlotSteps)
	}
	if fast.DeliveredCount != ref.DeliveredCount || fast.AckedCount != ref.AckedCount {
		t.Fatalf("%s: delivered/acked %d/%d vs %d/%d", label,
			fast.DeliveredCount, fast.AckedCount, ref.DeliveredCount, ref.AckedCount)
	}
}

// TestEngineVsReferenceAllCombos is the migration gate of the flat-table
// engine: random workloads across every rule x tie x wreckage x conversion
// x ack combination must agree with the per-flit reference model on the
// full Result. A single Engine is reused across all scenarios, so the test
// also proves the pooled scratch state resets cleanly between rounds.
func TestEngineVsReferenceAllCombos(t *testing.T) {
	tor := topology.NewTorus(2, 4)
	g := tor.Graph()
	eng := NewEngine()
	// An attached-but-empty fault plan must leave the engine byte-for-byte
	// identical to the fault-free run, across the whole matrix.
	emptyPlan := (&faults.Plan{}).MustCompile(g, 2)

	sparse := func(n graph.NodeID) bool { return n%2 == 0 }
	conversions := []struct {
		name string
		fn   func(graph.NodeID) bool
	}{
		{"none", nil},
		{"full", FullConversion},
		{"sparse", sparse},
	}
	seed := uint64(4000)
	for _, rule := range []optical.Rule{optical.ServeFirst, optical.Priority} {
		for _, tie := range []optical.TiePolicy{optical.TieEliminateAll, optical.TieArbitraryWinner} {
			for _, wreck := range []WreckagePolicy{Drain, Vanish} {
				for _, conv := range conversions {
					for _, ack := range []int{0, 2} {
						for trial := 0; trial < 3; trial++ {
							seed++
							src := rng.New(seed)
							worms := randomWorms(g, src, 24, 4, 8, 2)
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
							label := fmt.Sprintf("%v/%v/%v/conv=%s/ack=%d/trial=%d",
								rule, tie, wreck, conv.name, ack, trial)
							fast, errF := eng.Run(g, worms, cfg)
							cfg.CheckInvariants = false
							ref, errR := RunReference(g, worms, cfg)
							if errF != nil || errR != nil {
								t.Fatalf("%s: engine err %v, reference err %v", label, errF, errR)
							}
							compareResults(t, label, fast, ref)
							if len(fast.Collisions) != len(ref.Collisions) {
								t.Fatalf("%s: collision logs %d vs %d entries",
									label, len(fast.Collisions), len(ref.Collisions))
							}
							// The legacy flat path must stay byte-identical to
							// the packed path on the same reused engine (the
							// engine also proves it switches modes cleanly).
							cfg.CheckInvariants = true
							cfg.ForceFlat = true
							flat, errFl := eng.Run(g, worms, cfg)
							if errFl != nil {
								t.Fatalf("%s: flat run: %v", label, errFl)
							}
							compareResults(t, label+"/flat", flat, ref)
							cfg.ForceFlat = false
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
					}
				}
			}
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
		{ID: 0, Path: graph.Path{0, 1, 2, 3, 4}, Length: 3, Delay: 0, Wavelength: 0, Rank: 1},
		{ID: 1, Path: graph.Path{1, 2, 3, 4}, Length: 2, Delay: 2, Wavelength: 0, Rank: 9},
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
	g := graph.New(4)
	g.AddEdge(0, 2)
	g.AddEdge(1, 2)
	g.AddEdge(2, 3)
	worms := []Worm{
		{ID: 0, Path: graph.Path{0, 2, 3}, Length: 1, Delay: 0, Wavelength: 0},
		{ID: 1, Path: graph.Path{1, 2, 3}, Length: 1, Delay: 2, Wavelength: 0},
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
// wavelength outages, ack losses, stuck couplers — through the packed and
// the flat engine paths across the rule/wreckage/conversion matrix. The
// packed path batches entrants per (band, link) bucket and masks dark
// slots in its word scans; the flat path keeps the global entrant sort.
// Both must produce identical Results, including the fault-kill count, or
// the dark-slot encoding of the packed representation is wrong.
func TestPackedVsFlatFaultMatrix(t *testing.T) {
	g := topology.NewTorus(2, 4).Graph()
	eng := NewEngine()
	flatEng := NewEngine()
	seed := uint64(777)
	for _, rule := range []optical.Rule{optical.ServeFirst, optical.Priority} {
		for _, wreck := range []WreckagePolicy{Drain, Vanish} {
			for _, conv := range []func(graph.NodeID) bool{nil, FullConversion} {
				for trial := 0; trial < 6; trial++ {
					seed++
					src := rng.New(seed)
					worms := randomWorms(g, src, 28, 4, 6, 2)
					plan := faults.MustRandom(g, 2, faults.GenConfig{
						Horizon: 20, LinkOutages: 6, WavelengthOutages: 5,
						AckLosses: 3, StuckCouplers: 2,
						MinDuration: 4, MaxDuration: 14,
					}, src.Split())
					cfg := Config{
						Bandwidth:        2,
						Rule:             rule,
						Wreckage:         wreck,
						Conversion:       conv,
						AckLength:        2,
						RecordCollisions: true,
						CheckInvariants:  true,
						Faults:           plan.MustCompile(g, 2),
					}
					label := fmt.Sprintf("%v/%v/conv=%v/trial=%d", rule, wreck, conv != nil, trial)
					packed, errP := eng.Run(g, worms, cfg)
					if errP != nil {
						t.Fatalf("%s: packed: %v", label, errP)
					}
					cfg.ForceFlat = true
					flat, errF := flatEng.Run(g, worms, cfg)
					if errF != nil {
						t.Fatalf("%s: flat: %v", label, errF)
					}
					compareResults(t, label, packed, flat)
					if packed.FaultKillCount != flat.FaultKillCount {
						t.Fatalf("%s: FaultKillCount %d (packed) vs %d (flat)",
							label, packed.FaultKillCount, flat.FaultKillCount)
					}
					if len(packed.Collisions) != len(flat.Collisions) {
						t.Fatalf("%s: collision logs %d vs %d entries",
							label, len(packed.Collisions), len(flat.Collisions))
					}
				}
			}
		}
	}
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
