package sim

import (
	"reflect"
	"strings"
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
	worms := []Worm{{Route: route(g, graph.Path{0, 1, 2, 3, 4}), Length: 3, Delay: 2, Wavelength: 0}}
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
	worms := []Worm{{Route: route(g, graph.Path{0, 1, 2, 3, 4}), Length: 3, Delay: 0, Wavelength: 0}}
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
		{Route: route(g, graph.Path{0, 1, 2, 3}), Length: 2, Delay: 0, Wavelength: 0},
		{Route: route(g, graph.Path{0, 1, 2, 3}), Length: 2, Delay: 0, Wavelength: 1},
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
	worms := []Worm{{Route: route(g, graph.Path{0, 1, 2, 3}), Length: 2, Delay: 0, Wavelength: 0}}
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

// TestAckLossSparesAckOnLink pins an ack already on an ack-loss link when
// an outage further down its path splits it. The 3-flit ack of a 1-flit
// worm crosses links 5, 3, 1 over steps 3-7; the ack loss on link 3 starts
// at step 5, after the ack's head entered it, and the outage on link 1 at
// step 6 kills the middle flit there. The flit behind it is still on
// link 3 and must drain there, not die a second time as a fresh entrant:
// one fault kill, and ack-band busy slots 1+2+3+1 over steps 3-6.
func TestAckLossSparesAckOnLink(t *testing.T) {
	g := chain(4)
	worms := []Worm{{Route: route(g, graph.Path{0, 1, 2, 3}), Length: 1, Delay: 0, Wavelength: 0}}
	c := cfg(1)
	c.AckLength = 3
	c.Faults = sched(t, g, 1,
		faults.Fault{Kind: faults.AckLoss, Link: 3, Start: 5},
		faults.Fault{Kind: faults.LinkOutage, Link: 1, Start: 6},
	)
	res := mustRun(t, g, worms, c)
	if res.FaultKillCount != 1 || res.AckBusySlotSteps != 7 {
		t.Errorf("fault kills %d, ack busy slot-steps %d; want 1 and 7", res.FaultKillCount, res.AckBusySlotSteps)
	}
	if o := res.Outcomes[0]; !o.Delivered || o.Acked {
		t.Errorf("outcome %+v: want delivered and not acked", o)
	}
	ref, err := RunReference(g, worms, c)
	if err != nil {
		t.Fatal(err)
	}
	compareResults(t, "ack loss", res, ref)
}

func TestStuckCouplerKeepsIncumbentUnderPriority(t *testing.T) {
	g := chain(4)
	worms := []Worm{
		{Route: route(g, graph.Path{0, 1, 2, 3}), Length: 3, Delay: 0, Wavelength: 0, Rank: 1},
		{Route: route(g, graph.Path{1, 2, 3}), Length: 2, Delay: 2, Wavelength: 0, Rank: 10},
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
		{Route: route(g, graph.Path{1, 2, 3}), Length: 2, Delay: 0, Wavelength: 0},
		{Route: route(g, graph.Path{1, 2, 3}), Length: 2, Delay: 0, Wavelength: 0},
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
		t.Error("stuck coupler should admit the lowest-index entrant")
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
		{Route: route(g, graph.Path{0, 1, 2, 3}), Length: 2, Delay: 0, Wavelength: 0},
		{Route: route(g, graph.Path{0, 1, 2, 3}), Length: 2, Delay: 1, Wavelength: 0},
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
				Route: route(g, g.ShortestPath(u, v, nil)), Length: 2 + src.Intn(3),
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
	reqs := []Request{{Route: route(g, graph.Path{0, 1, 2, 3}), Length: 2, Arrival: 0}}
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
	worms := []Worm{{Route: route(g4, graph.Path{0, 1}), Length: 1, Wavelength: 0}}
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
	if _, err := NewEngine().RunDynamic(g5, []Request{{Route: route(g5, graph.Path{0, 1}), Length: 1}},
		DynamicConfig{Sim: c}, rng.New(1)); err == nil {
		t.Error("RunDynamic accepted a mismatched schedule")
	}
	one := []Worm{{Route: route(g4, graph.Path{0, 1}), Length: 1}}
	if _, err := RunReference(g5, one, c); err == nil || !strings.Contains(err.Error(), "fault schedule") {
		t.Errorf("RunReference accepted a schedule compiled for a different graph (err %v)", err)
	}
	if _, err := RunReference(g4, one, c); err != nil {
		t.Errorf("RunReference rejected a matching schedule: %v", err)
	}
}

// TestFaultSoak replays a dense fault scenario — short and long fault
// windows, longer delays — per rule and wreckage policy under every tie,
// conversion and ack-length setting of the fault matrix, with the engine's
// invariant checks on: whatever the fault mix does to the occupancy table,
// the fragment-window invariants must hold every step, and the Result must
// match the reference's.
func TestFaultSoak(t *testing.T) {
	g := topology.NewTorus(2, 4).Graph()
	eng := NewEngine()
	kills := 0
	forEachFaultConfig(func(label string, cfg Config) {
		worms, plan := soakScenario(g, uint64(77+int(cfg.Rule)*2+int(cfg.Wreckage)))
		kills += runFaultPair(t, eng, g, worms, plan, cfg, label)
	})
	if kills == 0 {
		t.Fatal("the soak killed nothing")
	}
}

// soakScenario draws 32 shortest-path worms of length 1..4 with delays up
// to 9 on g, and a mix of short and long fault windows over their first
// 32 steps.
func soakScenario(g *graph.Graph, seed uint64) ([]Worm, *faults.Plan) {
	src := rng.New(seed)
	var worms []Worm
	for i := 0; i < 32; i++ {
		u, v := src.Intn(g.NumNodes()), src.Intn(g.NumNodes())
		for v == u {
			v = src.Intn(g.NumNodes())
		}
		worms = append(worms, Worm{
			Route: route(g, g.ShortestPath(u, v, nil)), Length: 1 + src.Intn(4),
			Delay: src.Intn(10), Wavelength: src.Intn(2), Rank: src.Intn(64),
		})
	}
	return worms, faults.MustRandom(g, 2, faults.GenConfig{
		Horizon: 32, LinkOutages: 5, WavelengthOutages: 3, AckLosses: 3,
		StuckCouplers: 2, MinDuration: 1, MaxDuration: 16,
	}, src.Split())
}
