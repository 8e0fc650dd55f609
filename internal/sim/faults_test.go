package sim

import (
	"reflect"
	"testing"

	"repro/internal/faults"
	"repro/internal/graph"
	"repro/internal/optical"
	"repro/internal/rng"
	"repro/internal/telemetry"
	"repro/internal/topology"
)

// sched compiles a plan for g and b, failing the test on error.
func sched(t *testing.T, g *graph.Graph, b int, fs ...faults.Fault) *faults.Schedule {
	t.Helper()
	s, err := (&faults.Plan{Faults: fs}).Compile(g, b)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// On the chain graph, the k-th edge {k, k+1} yields link 2k for k->k+1
// and 2k+1 for k+1->k, so a forward path {0..n} uses links 0, 2, 4, ...

func TestLinkOutageBlocksEntrantAndRepairs(t *testing.T) {
	g := chain(5)
	worms := []Worm{{ID: 0, Path: graph.Path{0, 1, 2, 3, 4}, Length: 3, Delay: 2, Wavelength: 0}}
	// The head enters link index 2 (link ID 4, node 2 -> 3) at step 4.
	c := cfg(1)
	c.Faults = sched(t, g, 1, faults.Fault{Kind: faults.LinkOutage, Link: 4, Start: 0, End: 100})
	res := mustRun(t, g, worms, c)
	o := res.Outcomes[0]
	if o.Delivered || o.Acked {
		t.Fatalf("worm crossed a dark link: %+v", o)
	}
	if res.FaultKillCount != 1 {
		t.Errorf("FaultKillCount = %d, want 1", res.FaultKillCount)
	}
	// Fault kills are not collisions and do not set the cut fields.
	if res.CollisionCount != 0 || len(res.Collisions) != 0 {
		t.Errorf("fault kill leaked into collision accounting: count=%d list=%v",
			res.CollisionCount, res.Collisions)
	}
	if o.CutLink != -1 || o.CutTime != -1 {
		t.Errorf("fault kill set contention cut fields: %+v", o)
	}

	// Repair exactly at the entry step: repairs apply before entries, so
	// the worm passes and the run matches the fault-free one.
	c.Faults = sched(t, g, 1, faults.Fault{Kind: faults.LinkOutage, Link: 4, Start: 0, End: 4})
	res = mustRun(t, g, worms, c)
	if !res.Outcomes[0].Delivered || res.FaultKillCount != 0 {
		t.Fatalf("repaired link still blocked: %+v kills=%d", res.Outcomes[0], res.FaultKillCount)
	}
}

func TestLinkOutageKillsOccupant(t *testing.T) {
	g := chain(5)
	worms := []Worm{{ID: 0, Path: graph.Path{0, 1, 2, 3, 4}, Length: 3, Delay: 0, Wavelength: 0}}
	// At step 3 the worm (L=3, delay 0) occupies link indices 1 and 2; an
	// outage on link ID 2 (index 1) activating then kills it mid-body.
	c := cfg(1)
	c.Faults = sched(t, g, 1, faults.Fault{Kind: faults.LinkOutage, Link: 2, Start: 3, End: 0})
	res := mustRun(t, g, worms, c)
	if res.Outcomes[0].Delivered {
		t.Fatal("worm delivered despite mid-body kill")
	}
	if res.FaultKillCount != 1 || res.CollisionCount != 0 {
		t.Errorf("kills/collisions = %d/%d, want 1/0", res.FaultKillCount, res.CollisionCount)
	}
}

func TestWavelengthOutageKillsOnlyThatWavelength(t *testing.T) {
	g := chain(4)
	worms := []Worm{
		{ID: 0, Path: graph.Path{0, 1, 2, 3}, Length: 2, Delay: 0, Wavelength: 0},
		{ID: 1, Path: graph.Path{0, 1, 2, 3}, Length: 2, Delay: 0, Wavelength: 1},
	}
	c := cfg(2)
	c.Faults = sched(t, g, 2, faults.Fault{
		Kind: faults.WavelengthOutage, Link: 2, Band: 0, Wavelength: 0, Start: 0, End: 0,
	})
	res := mustRun(t, g, worms, c)
	if res.Outcomes[0].Delivered {
		t.Error("worm on the dark wavelength delivered")
	}
	if !res.Outcomes[1].Delivered {
		t.Error("worm on the healthy wavelength lost")
	}
	if res.FaultKillCount != 1 {
		t.Errorf("FaultKillCount = %d, want 1", res.FaultKillCount)
	}
}

func TestAckLossKillsOnlyAcks(t *testing.T) {
	g := chain(4)
	worms := []Worm{{ID: 0, Path: graph.Path{0, 1, 2, 3}, Length: 2, Delay: 0, Wavelength: 0}}
	c := cfg(1)
	c.AckLength = 1
	// The ack travels the reversed links 5, 3, 1. An AckLoss on link 3
	// (2 -> 1) swallows it; AckLoss on the forward link 2 must not touch
	// the message.
	c.Faults = sched(t, g, 1,
		faults.Fault{Kind: faults.AckLoss, Link: 3, Start: 0, End: 0},
		faults.Fault{Kind: faults.AckLoss, Link: 2, Start: 0, End: 0},
	)
	res := mustRun(t, g, worms, c)
	o := res.Outcomes[0]
	if !o.Delivered {
		t.Fatal("ack-loss fault affected message traffic")
	}
	if o.Acked {
		t.Fatal("ack crossed an ack-loss link")
	}
	if res.FaultKillCount != 1 {
		t.Errorf("FaultKillCount = %d, want 1", res.FaultKillCount)
	}
	if o.AckCutTime != -1 || o.AckCutLink != -1 {
		t.Errorf("fault kill set ack contention cut fields: %+v", o)
	}
}

func TestStuckCouplerKeepsIncumbentUnderPriority(t *testing.T) {
	g := chain(4)
	worms := []Worm{
		{ID: 0, Path: graph.Path{0, 1, 2, 3}, Length: 3, Delay: 0, Wavelength: 0, Rank: 1},
		{ID: 1, Path: graph.Path{1, 2, 3}, Length: 2, Delay: 2, Wavelength: 0, Rank: 10},
	}
	c := cfg(1)
	c.Rule = optical.Priority
	// Baseline: the higher-ranked entrant preempts worm 0 on link 2.
	base := mustRun(t, g, worms, c)
	if base.Outcomes[0].Delivered || !base.Outcomes[1].Delivered {
		t.Fatalf("baseline preemption did not happen: %+v", base.Outcomes)
	}
	// Stuck coupler at node 1 (link 2 leaves it): the incumbent holds and
	// the entrant is cut — as a contention collision, not a fault kill.
	c.Faults = sched(t, g, 1, faults.Fault{Kind: faults.StuckCoupler, Node: 1, Start: 0, End: 0})
	res := mustRun(t, g, worms, c)
	if !res.Outcomes[0].Delivered || res.Outcomes[1].Delivered {
		t.Fatalf("stuck coupler did not freeze arbitration: %+v", res.Outcomes)
	}
	if res.CollisionCount != 1 || res.FaultKillCount != 0 {
		t.Errorf("collisions/kills = %d/%d, want 1/0", res.CollisionCount, res.FaultKillCount)
	}
}

func TestStuckCouplerForcesTieWinner(t *testing.T) {
	g := chain(4)
	worms := []Worm{
		{ID: 3, Path: graph.Path{1, 2, 3}, Length: 2, Delay: 0, Wavelength: 0},
		{ID: 7, Path: graph.Path{1, 2, 3}, Length: 2, Delay: 0, Wavelength: 0},
	}
	c := cfg(1) // serve-first, TieEliminateAll
	base := mustRun(t, g, worms, c)
	if base.Outcomes[0].Delivered || base.Outcomes[1].Delivered {
		// expected: simultaneous arrivals eliminate each other
	} else if base.CollisionCount != 2 {
		t.Fatalf("baseline tie: collisions = %d, want 2", base.CollisionCount)
	}
	c.Faults = sched(t, g, 1, faults.Fault{Kind: faults.StuckCoupler, Node: 1, Start: 0, End: 0})
	res := mustRun(t, g, worms, c)
	if !res.Outcomes[0].Delivered {
		t.Error("stuck coupler should admit the lowest-ID entrant")
	}
	if res.Outcomes[1].Delivered {
		t.Error("stuck coupler admitted both entrants")
	}
	if res.CollisionCount != 1 || res.FaultKillCount != 0 {
		t.Errorf("collisions/kills = %d/%d, want 1/0", res.CollisionCount, res.FaultKillCount)
	}
}

func TestConversionSkipsDarkWavelength(t *testing.T) {
	g := chain(4)
	worms := []Worm{
		{ID: 0, Path: graph.Path{0, 1, 2, 3}, Length: 2, Delay: 0, Wavelength: 0},
		{ID: 1, Path: graph.Path{0, 1, 2, 3}, Length: 2, Delay: 1, Wavelength: 0},
	}
	c := cfg(2)
	c.Conversion = FullConversion
	// Baseline: worm 1 loses the conflict on link 0 but converts to the
	// free wavelength 1 and both deliver.
	base := mustRun(t, g, worms, c)
	if !base.Outcomes[0].Delivered || !base.Outcomes[1].Delivered {
		t.Fatalf("baseline conversion rescue failed: %+v", base.Outcomes)
	}
	// With wavelength 1 of link 0 dark, the rescue slot is unusable and
	// worm 1 is cut by contention (the fault only removed its escape).
	c.Faults = sched(t, g, 2, faults.Fault{
		Kind: faults.WavelengthOutage, Link: 0, Band: 0, Wavelength: 1, Start: 0, End: 0,
	})
	res := mustRun(t, g, worms, c)
	if !res.Outcomes[0].Delivered || res.Outcomes[1].Delivered {
		t.Fatalf("dark-slot conversion outcome wrong: %+v", res.Outcomes)
	}
	if res.CollisionCount != 1 || res.FaultKillCount != 0 {
		t.Errorf("collisions/kills = %d/%d, want 1/0", res.CollisionCount, res.FaultKillCount)
	}
}

// TestFaultRunDeterministicReplay pins exact reproducibility: the same
// seed generates the same plan and the same worm set, and two engines
// produce identical results and identical telemetry snapshots.
func TestFaultRunDeterministicReplay(t *testing.T) {
	g := topology.NewTorus(2, 4).Graph()
	run := func() (*Result, *telemetry.Snapshot) {
		src := rng.New(9001)
		var worms []Worm
		for i := 0; i < 32; i++ {
			u, v := src.Intn(g.NumNodes()), src.Intn(g.NumNodes())
			for v == u {
				v = src.Intn(g.NumNodes())
			}
			worms = append(worms, Worm{
				ID: i, Path: g.ShortestPath(u, v), Length: 2 + src.Intn(3),
				Delay: src.Intn(6), Wavelength: src.Intn(2), Rank: src.Intn(100),
			})
		}
		plan := faults.MustRandom(g, 2, faults.GenConfig{
			Horizon: 16, LinkOutages: 8, WavelengthOutages: 4, AckLosses: 4,
			StuckCouplers: 1, MinDuration: 6, MaxDuration: 16,
		}, src.Split())
		col := telemetry.NewCollector()
		c := cfg(2)
		c.Rule = optical.Priority
		c.AckLength = 1
		c.Probe = col
		c.Faults = plan.MustCompile(g, 2)
		res, err := NewEngine().Run(g, worms, c)
		if err != nil {
			t.Fatal(err)
		}
		return res, col.Snapshot()
	}
	r1, s1 := run()
	r2, s2 := run()
	if !reflect.DeepEqual(r1, r2) {
		t.Fatalf("faulty runs with one seed diverged:\n%+v\n%+v", r1, r2)
	}
	if !reflect.DeepEqual(s1, s2) {
		t.Fatal("telemetry snapshots of identical faulty runs differ")
	}
	if r1.FaultKillCount == 0 {
		t.Error("replay scenario exercised no fault kills; weaken nothing, pick a busier seed")
	}
}

func TestDynamicFaultRelaunch(t *testing.T) {
	g := chain(4)
	reqs := []Request{{ID: 0, Path: graph.Path{0, 1, 2, 3}, Length: 2, Arrival: 0}}
	c := DynamicConfig{Sim: cfg(1), Retry: FixedBackoff{Range: 4}}
	c.Sim.AckLength = 1
	// Link 2 is dark for the first 40 steps: early attempts die to the
	// fault, the exact ack deadline passes, and the source relaunches
	// with backoff until an attempt crosses the repaired link.
	c.Sim.Faults = sched(t, g, 1, faults.Fault{Kind: faults.LinkOutage, Link: 2, Start: 0, End: 40})
	res, err := NewEngine().RunDynamic(g, reqs, c, rng.New(5))
	if err != nil {
		t.Fatal(err)
	}
	o := res.Outcomes[0]
	if !o.Delivered || o.GaveUp {
		t.Fatalf("request not delivered after repair: %+v", o)
	}
	if o.Attempts < 2 {
		t.Errorf("expected retries, got %d attempts", o.Attempts)
	}
	if res.FaultKills < 1 {
		t.Errorf("FaultKills = %d, want >= 1", res.FaultKills)
	}
	if o.DeliveredAt < 40 {
		t.Errorf("delivered at %d, before the repair at 40", o.DeliveredAt)
	}
}

func TestFaultScheduleGeometryMismatch(t *testing.T) {
	g4, g5 := chain(4), chain(5)
	s := sched(t, g4, 1, faults.Fault{Kind: faults.LinkOutage, Link: 0, Start: 0, End: 0})
	worms := []Worm{{ID: 0, Path: graph.Path{0, 1}, Length: 1, Wavelength: 0}}
	c := cfg(1)
	c.Faults = s
	if _, err := NewEngine().Run(g5, worms, c); err == nil {
		t.Error("Run accepted a schedule compiled for a different graph")
	}
	c2 := cfg(2)
	c2.Faults = s
	worms[0].Wavelength = 1
	if _, err := NewEngine().Run(g4, worms, c2); err == nil {
		t.Error("Run accepted a schedule compiled for a different bandwidth")
	}
	if _, err := NewEngine().RunDynamic(g5, []Request{{ID: 0, Path: graph.Path{0, 1}, Length: 1}},
		DynamicConfig{Sim: c}, rng.New(1)); err == nil {
		t.Error("RunDynamic accepted a mismatched schedule")
	}
	if _, err := RunReference(g4, []Worm{{ID: 0, Path: graph.Path{0, 1}, Length: 1}}, c); err == nil {
		t.Error("RunReference accepted a non-empty fault schedule")
	}
}

// TestFaultSoak runs a randomized faulty scenario per wreckage policy and
// rule with invariant checking on: whatever the fault mix does to the
// occupancy table, the fragment-window invariants must hold every step.
func TestFaultSoak(t *testing.T) {
	g := topology.NewTorus(2, 4).Graph()
	for _, rule := range []optical.Rule{optical.ServeFirst, optical.Priority} {
		for _, wreck := range []WreckagePolicy{Drain, Vanish} {
			src := rng.New(uint64(77 + int(rule)*2 + int(wreck)))
			var worms []Worm
			for i := 0; i < 32; i++ {
				u, v := src.Intn(g.NumNodes()), src.Intn(g.NumNodes())
				for v == u {
					v = src.Intn(g.NumNodes())
				}
				worms = append(worms, Worm{
					ID: i, Path: g.ShortestPath(u, v), Length: 1 + src.Intn(4),
					Delay: src.Intn(10), Wavelength: src.Intn(2), Rank: src.Intn(64),
				})
			}
			plan := faults.MustRandom(g, 2, faults.GenConfig{
				Horizon: 32, LinkOutages: 5, WavelengthOutages: 3, AckLosses: 3,
				StuckCouplers: 2, MinDuration: 1, MaxDuration: 16,
			}, src.Split())
			c := cfg(2)
			c.Rule = rule
			c.Wreckage = wreck
			c.AckLength = 2
			c.Conversion = FullConversion
			c.Faults = plan.MustCompile(g, 2)
			if _, err := NewEngine().Run(g, worms, c); err != nil {
				t.Errorf("rule=%v wreckage=%v: %v", rule, wreck, err)
			}
		}
	}
}
