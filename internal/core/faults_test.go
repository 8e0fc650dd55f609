package core

import (
	"reflect"
	"testing"

	"repro/internal/faults"
	"repro/internal/graph"
	"repro/internal/optical"
	"repro/internal/paths"
	"repro/internal/rng"
	"repro/internal/telemetry"
	"repro/internal/topology"
)

func TestDegradedRunDeliversDespiteOutages(t *testing.T) {
	c := torusPermCollection(t, 5, 3)
	g := c.Graph()
	// Down a handful of links for the whole early protocol; repairs land
	// well within the round budget, so everything still delivers.
	plan := &faults.Plan{Faults: []faults.Fault{
		{Kind: faults.LinkOutage, Link: 0, Start: 0, End: 200},
		{Kind: faults.LinkOutage, Link: 7, Start: 0, End: 200},
		{Kind: faults.AckLoss, Link: 3, Start: 0, End: 150},
	}}
	res, err := Run(c, Config{
		Bandwidth:       2,
		Length:          3,
		Rule:            optical.ServeFirst,
		AckLength:       1,
		CheckInvariants: true,
		Faults:          plan,
	}, rng.New(42))
	if err != nil {
		t.Fatal(err)
	}
	if !res.AllDelivered {
		t.Fatalf("degraded run failed to deliver; still active: %v", res.StillActive)
	}
	if res.TotalRerouted == 0 {
		t.Error("no worm was rerouted although links 0 and 7 were down at round start")
	}
	sumKills, sumRerouted := 0, 0
	for _, r := range res.Rounds {
		sumKills += r.FaultKills
		sumRerouted += r.Rerouted
	}
	if sumKills != res.TotalFaultKills || sumRerouted != res.TotalRerouted {
		t.Errorf("totals %d/%d do not match round sums %d/%d",
			res.TotalFaultKills, res.TotalRerouted, sumKills, sumRerouted)
	}
	// The first round starts with both outages active: every path through
	// link 0 or 7 either reroutes or dies at the dark link, never crosses.
	_ = g
}

func TestDegradedRunValidatesPlan(t *testing.T) {
	c := torusPermCollection(t, 4, 1)
	bad := &faults.Plan{Faults: []faults.Fault{
		{Kind: faults.LinkOutage, Link: 10_000, Start: 0, End: 0},
	}}
	if _, err := Run(c, Config{Bandwidth: 1, Length: 2, Faults: bad}, rng.New(1)); err == nil {
		t.Fatal("accepted a plan referencing a nonexistent link")
	}
}

func TestDegradedRerouteAvoidsDownLink(t *testing.T) {
	// Ring of 4 with one worm routed 0->1->2; downing 0->1 forever forces
	// the deterministic detour 0->3->2 in round 1 and delivery anyway.
	gb := graph.NewBuilder(4)
	gb.AddEdge(0, 1)
	gb.AddEdge(1, 2)
	gb.AddEdge(2, 3)
	gb.AddEdge(3, 0)
	g := gb.Finalize()
	c := paths.MustCollection(g, []graph.Path{{0, 1, 2}})
	l01, _ := g.LinkBetween(0, 1)
	plan := &faults.Plan{Faults: []faults.Fault{
		{Kind: faults.LinkOutage, Link: l01, Start: 0, End: 0},
	}}
	res, err := Run(c, Config{Bandwidth: 1, Length: 2, Faults: plan}, rng.New(7))
	if err != nil {
		t.Fatal(err)
	}
	if !res.AllDelivered {
		t.Fatalf("worm not delivered around a permanent outage: %+v", res)
	}
	if res.TotalRerouted < 1 {
		t.Error("delivery without a recorded reroute")
	}
	if res.TotalFaultKills != 0 {
		t.Errorf("rerouted worm still hit the fault %d times", res.TotalFaultKills)
	}
}

func TestDegradedUnreachableRetriesUntilRepair(t *testing.T) {
	// Chain 0-1-2: both directions of edge {1,2} down for the first
	// rounds cut node 2 off entirely. The worm keeps its path, dies at the
	// outage, and delivers after the repair.
	gb := graph.NewBuilder(3)
	gb.AddEdge(0, 1)
	gb.AddEdge(1, 2)
	g := gb.Finalize()
	c := paths.MustCollection(g, []graph.Path{{0, 1, 2}})
	l12, _ := g.LinkBetween(1, 2)
	l21, _ := g.LinkBetween(2, 1)
	plan := &faults.Plan{Faults: []faults.Fault{
		{Kind: faults.LinkOutage, Link: l12, Start: 0, End: 40},
		{Kind: faults.LinkOutage, Link: l21, Start: 0, End: 40},
	}}
	res, err := Run(c, Config{Bandwidth: 1, Length: 2, AckLength: 1, Faults: plan}, rng.New(3))
	if err != nil {
		t.Fatal(err)
	}
	if !res.AllDelivered {
		t.Fatalf("worm never delivered after repair: %+v", res)
	}
	if res.TotalFaultKills == 0 {
		t.Error("expected early attempts to die at the outage")
	}
	if res.TotalRerouted != 0 {
		t.Errorf("rerouted %d times although no alternative route exists", res.TotalRerouted)
	}
	if res.TotalRounds < 2 {
		t.Errorf("delivered in %d rounds; the outage should cost at least one retry", res.TotalRounds)
	}
}

// TestDegradedReplayDeterminism is the replay satellite: one seed and one
// generated plan reproduce identical results AND identical telemetry
// snapshots across independent runs (the CI race job runs this under
// -race as well).
func TestDegradedReplayDeterminism(t *testing.T) {
	run := func() (*Result, *telemetry.Snapshot) {
		tor := topology.NewTorus(2, 5)
		src := rng.New(1234)
		prs := paths.RandomPermutation(tor.Graph().NumNodes(), src)
		c, err := paths.Build(tor.Graph(), prs, paths.DimOrderTorus(tor))
		if err != nil {
			t.Fatal(err)
		}
		plan := faults.MustRandom(c.Graph(), 2, faults.GenConfig{
			Horizon: 120, LinkOutages: 6, WavelengthOutages: 3, AckLosses: 3,
			StuckCouplers: 2, MinDuration: 10, MaxDuration: 60,
		}, src.Split())
		col := telemetry.NewCollector()
		res, err := Run(c, Config{
			Bandwidth:       2,
			Length:          3,
			Rule:            optical.Priority,
			AckLength:       1,
			CheckInvariants: true,
			Faults:          plan,
			Probe:           col,
		}, src)
		if err != nil {
			t.Fatal(err)
		}
		return res, col.Snapshot()
	}
	r1, s1 := run()
	r2, s2 := run()
	if !reflect.DeepEqual(r1, r2) {
		t.Fatal("degraded protocol runs with one seed diverged")
	}
	if !reflect.DeepEqual(s1, s2) {
		t.Fatalf("telemetry snapshots diverged:\n%+v\n%+v", s1, s2)
	}
	if !r1.AllDelivered {
		t.Errorf("replay scenario did not deliver; still active: %v", r1.StillActive)
	}
}
