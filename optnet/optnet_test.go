package optnet

import (
	"testing"

	"repro/internal/core"
	"repro/internal/paths"
	"repro/internal/sim"
	"repro/internal/topology"
)

func TestRouteTorusPermutation(t *testing.T) {
	net := Torus(2, 6)
	wl := Permutation(net, 1)
	res, err := Route(net, wl, Params{Bandwidth: 2, WormLength: 4, Seed: 2, AckLength: 1})
	if err != nil {
		t.Fatal(err)
	}
	if !res.AllDelivered {
		t.Fatalf("incomplete: %d rounds, %d still active", res.TotalRounds, len(res.StillActive))
	}
	if res.TotalTime <= 0 {
		t.Error("no time accounted")
	}
}

func TestRouteHypercubePriority(t *testing.T) {
	net := Hypercube(5)
	wl := RandomFunction(net, 3)
	res, err := Route(net, wl, Params{
		Bandwidth: 1, WormLength: 2, Rule: Priority, Seed: 4,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !res.AllDelivered {
		t.Fatal("incomplete")
	}
}

func TestRouteButterflyQFunction(t *testing.T) {
	net := Butterfly(4)
	wl := ButterflyQFunction(net, 2, 5)
	res, err := Route(net, wl, Params{Bandwidth: 2, WormLength: 4, Seed: 6})
	if err != nil {
		t.Fatal(err)
	}
	if !res.AllDelivered {
		t.Fatal("incomplete")
	}
	stats, err := Analyze(net, wl)
	if err != nil {
		t.Fatal(err)
	}
	if !stats.Leveled {
		t.Error("butterfly collection must be leveled")
	}
	if !stats.ShortCutFree {
		t.Error("butterfly collection must be short-cut free")
	}
}

func TestButterflyQFunctionPanicsOnWrongNetwork(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic for non-butterfly network")
		}
	}()
	ButterflyQFunction(Torus(2, 4), 1, 1)
}

func TestNetworkConstructors(t *testing.T) {
	cases := []struct {
		net   *Network
		nodes int
	}{
		{Torus(2, 5), 25},
		{Mesh(2, 4), 16},
		{Hypercube(3), 8},
		{Butterfly(3), 32},
		{Ring(7), 7},
		{Circulant(10, []int{1, 2}), 10},
	}
	for _, c := range cases {
		if c.net.Graph().NumNodes() != c.nodes {
			t.Errorf("%s: %d nodes, want %d", c.net.Name(), c.net.Graph().NumNodes(), c.nodes)
		}
		if c.net.Name() == "" || c.net.Selector() == nil || c.net.Topology() == nil {
			t.Errorf("%s: incomplete accessors", c.net.Name())
		}
	}
}

func TestCustomNetwork(t *testing.T) {
	tor := topology.NewTorus(2, 4)
	net := Custom(tor, paths.BFSSelector(tor.Graph()), "")
	if net.Name() != tor.Name() {
		t.Errorf("default name = %q", net.Name())
	}
	net2 := Custom(tor, paths.BFSSelector(tor.Graph()), "mine")
	if net2.Name() != "mine" {
		t.Error("custom name ignored")
	}
	res, err := Route(net, RandomFunction(net, 8), Params{Bandwidth: 2, WormLength: 2, Seed: 9})
	if err != nil || !res.AllDelivered {
		t.Fatalf("custom network route failed: %v", err)
	}
}

func TestWorkloads(t *testing.T) {
	net := Torus(2, 4)
	if len(Permutation(net, 1).Pairs) != 16 {
		t.Error("permutation size")
	}
	if len(RandomFunction(net, 1).Pairs) != 16 {
		t.Error("function size")
	}
	if len(QFunction(net, 3, 1).Pairs) != 48 {
		t.Error("q-function size")
	}
	w := Pairs([]paths.Pair{{Src: 0, Dst: 5}}, "one")
	if w.Name != "one" || len(w.Pairs) != 1 {
		t.Error("pairs wrapper")
	}
}

func TestAdvancedOverrides(t *testing.T) {
	net := Torus(2, 5)
	wl := RandomFunction(net, 2)
	res, err := Route(net, wl, Params{
		Bandwidth: 1, WormLength: 2, Rule: ServeFirst, Seed: 3,
		Advanced: &Advanced{
			Schedule:         core.FixedSchedule{Factor: 2},
			Wreckage:         sim.Vanish,
			MaxRounds:        50,
			RecordCollisions: true,
			TrackCongestion:  true,
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.ScheduleName != "fixed" {
		t.Errorf("schedule = %q", res.ScheduleName)
	}
	if len(res.RoundTraces) != res.TotalRounds {
		t.Error("collision traces missing")
	}
	if res.Rounds[0].ResidualCongestion < 0 {
		t.Error("congestion not tracked")
	}
}

func TestRouteErrors(t *testing.T) {
	net := Torus(2, 4)
	wl := RandomFunction(net, 1)
	if _, err := Route(net, wl, Params{Bandwidth: 0, WormLength: 1}); err == nil {
		t.Error("bandwidth 0 accepted")
	}
	if _, err := Route(net, wl, Params{Bandwidth: 1, WormLength: 0}); err == nil {
		t.Error("length 0 accepted")
	}
}

func TestBuildCollection(t *testing.T) {
	net := Mesh(2, 4)
	col, err := BuildCollection(net, Permutation(net, 7))
	if err != nil {
		t.Fatal(err)
	}
	if col.Size() == 0 || col.Dilation() == 0 {
		t.Error("empty collection")
	}
	res, err := RouteCollection(col, Params{Bandwidth: 2, WormLength: 2, Seed: 1})
	if err != nil || !res.AllDelivered {
		t.Fatalf("RouteCollection failed: %v", err)
	}
}

func TestAnalyzeTorus(t *testing.T) {
	net := Torus(2, 5)
	stats, err := Analyze(net, Permutation(net, 4))
	if err != nil {
		t.Fatal(err)
	}
	if !stats.ShortCutFree {
		t.Error("dimension-order torus paths must be short-cut free")
	}
	if stats.Dilation > 4 {
		t.Errorf("dilation %d exceeds torus diameter 4", stats.Dilation)
	}
}

func TestRouteDynamic(t *testing.T) {
	net := Torus(2, 5)
	arrivals := []Arrival{
		{Src: 0, Dst: 12, Step: 0},
		{Src: 3, Dst: 20, Step: 2},
		{Src: 7, Dst: 7, Step: 4}, // skipped (src == dst)
		{Src: 9, Dst: 1, Step: 5},
	}
	res, err := RouteDynamic(net, arrivals, DynamicParams{
		Bandwidth: 2, WormLength: 3, AckLength: 1, Seed: 6,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Outcomes) != 3 {
		t.Fatalf("outcomes = %d, want 3 (self-request skipped)", len(res.Outcomes))
	}
	for i, o := range res.Outcomes {
		if !o.Delivered {
			t.Errorf("request %d undelivered: %+v", i, o)
		}
		if o.Latency < 0 {
			t.Errorf("request %d latency %d", i, o.Latency)
		}
	}
	if _, err := RouteDynamic(net, arrivals, DynamicParams{WormLength: 1}); err == nil {
		t.Error("bandwidth 0 accepted")
	}
}

func TestRouteMultiHop(t *testing.T) {
	net := Torus(2, 6)
	wl := RandomFunction(net, 5)
	p := Params{Bandwidth: 2, WormLength: 4, AckLength: 1, Seed: 8}
	mh, err := RouteMultiHop(net, wl, 3, p)
	if err != nil {
		t.Fatal(err)
	}
	if !mh.AllDelivered || len(mh.Stages) != 3 {
		t.Fatalf("multihop: delivered=%t stages=%d", mh.AllDelivered, len(mh.Stages))
	}

	// Every stage runs the Advanced fields Route runs.
	p.Advanced = &Advanced{
		Schedule:         core.FixedSchedule{Factor: 2},
		RecordCollisions: true,
		TrackCongestion:  true,
	}
	adv, err := RouteMultiHop(net, wl, 3, p)
	if err != nil {
		t.Fatal(err)
	}
	if adv.TotalTime == mh.TotalTime {
		t.Errorf("the fixed schedule left the total time at %d", mh.TotalTime)
	}
	for i, st := range adv.Stages {
		if st.ScheduleName != "fixed" {
			t.Errorf("stage %d: schedule %q", i, st.ScheduleName)
		}
		if len(st.RoundTraces) != st.TotalRounds {
			t.Errorf("stage %d: %d round traces for %d rounds", i, len(st.RoundTraces), st.TotalRounds)
		}
		for _, rs := range st.Rounds {
			if rs.ResidualCongestion < 0 {
				t.Errorf("stage %d round %d: residual congestion not tracked", i, rs.Round)
			}
		}
	}
}

func TestRouteStoreAndForward(t *testing.T) {
	net := Torus(2, 5)
	wl := Permutation(net, 2)
	res, err := RouteStoreAndForward(net, wl, Params{Bandwidth: 2, WormLength: 4})
	if err != nil {
		t.Fatal(err)
	}
	for i, o := range res.Outcomes {
		if o.DeliveredAt < 0 {
			t.Fatalf("message %d never delivered", i)
		}
	}
	if res.Makespan <= 0 {
		t.Error("no makespan")
	}
}

func TestStarGraphAndCCCNetworks(t *testing.T) {
	for _, net := range []*Network{StarGraph(4), CCC(3)} {
		res, err := Route(net, RandomFunction(net, 3), Params{
			Bandwidth: 2, WormLength: 3, Rule: Priority, Seed: 4,
		})
		if err != nil {
			t.Fatalf("%s: %v", net.Name(), err)
		}
		if !res.AllDelivered {
			t.Errorf("%s: incomplete", net.Name())
		}
	}
}
