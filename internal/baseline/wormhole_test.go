package baseline

import (
	"testing"

	"repro/internal/graph"
	"repro/internal/paths"
	"repro/internal/rng"
	"repro/internal/topology"
)

func TestWormholeSingleWorm(t *testing.T) {
	g := topology.NewChain(5).Graph()
	res, err := RunWormhole(paths.MustCollection(g, []graph.Path{{0, 1, 2, 3, 4}}), 3, 1)
	if err != nil {
		t.Fatal(err)
	}
	// Pipelined: k + L - 1 = 6 advances, first at step 0: delivered at
	// step 6 - 1 = 5.
	if got := res.Outcomes[0].DeliveredAt; got != 5 {
		t.Errorf("DeliveredAt = %d, want 5", got)
	}
	if len(res.Deadlocked) != 0 {
		t.Error("unexpected deadlock")
	}
}

func TestWormholePipeliningBeatsStoreAndForward(t *testing.T) {
	// Wormhole pipelines: delivered at k+L-2 = 14; store-and-forward
	// serializes per hop: k*L = 64.
	g := topology.NewChain(9).Graph()
	p := make(graph.Path, 9)
	for i := range p {
		p[i] = i
	}
	c := paths.MustCollection(g, []graph.Path{p})
	wh, err := RunWormhole(c, 8, 1)
	if err != nil {
		t.Fatal(err)
	}
	saf, err := Run(c, 8, 1)
	if err != nil {
		t.Fatal(err)
	}
	if wh.Makespan >= saf.Makespan {
		t.Errorf("wormhole %d should beat store-and-forward %d", wh.Makespan, saf.Makespan)
	}
	if wh.Makespan != 14 {
		t.Errorf("wormhole makespan = %d, want 14", wh.Makespan)
	}
}

func TestWormholeStallInsteadOfLoss(t *testing.T) {
	// Two worms over one shared link, B=1: the second stalls and follows;
	// both are delivered (unlike the optical serve-first elimination).
	g := topology.NewChain(4).Graph()
	res, err := RunWormhole(paths.MustCollection(g, []graph.Path{{0, 1, 2, 3}, {0, 1, 2, 3}}), 3, 1)
	if err != nil {
		t.Fatal(err)
	}
	for i, o := range res.Outcomes {
		if o.DeliveredAt < 0 {
			t.Fatalf("worm %d not delivered", i)
		}
	}
	if res.Outcomes[1].DeliveredAt <= res.Outcomes[0].DeliveredAt {
		t.Error("second worm should finish after the first")
	}
}

func TestWormholeMeshNoDeadlock(t *testing.T) {
	// Dimension-order routing on a mesh has acyclic channel dependencies:
	// never deadlocks.
	m := topology.NewMesh(2, 5)
	src := rng.New(9)
	prs := paths.RandomQFunction(2, m.Graph().NumNodes(), src)
	c, err := paths.Build(m.Graph(), prs, paths.DimOrderMesh(m))
	if err != nil {
		t.Fatal(err)
	}
	res, err := RunWormhole(c, 4, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Deadlocked) != 0 {
		t.Fatalf("mesh dimension-order deadlocked: %v", res.Deadlocked)
	}
	for i, o := range res.Outcomes {
		if o.DeliveredAt < 0 {
			t.Fatalf("worm %d not delivered", i)
		}
	}
}

func TestWormholeDeadlockDetected(t *testing.T) {
	// A classic cyclic wait on a ring: four long worms each holding links
	// the next one needs. Worm i goes two hops clockwise starting at i;
	// with L >= 2 and B = 1 all four stall on each other forever.
	g := topology.NewRing(4).Graph()
	var ps []graph.Path
	for i := 0; i < 4; i++ {
		ps = append(ps, graph.Path{i, (i + 1) % 4, (i + 2) % 4})
	}
	res, err := RunWormhole(paths.MustCollection(g, ps), 3, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Deadlocked) == 0 {
		t.Fatal("cyclic wait not detected as deadlock")
	}
}

func TestWormholeValidation(t *testing.T) {
	c := paths.MustCollection(topology.NewChain(3).Graph(), []graph.Path{{0, 1}})
	if _, err := RunWormhole(c, 1, 0); err == nil {
		t.Error("bandwidth 0 accepted")
	}
	if _, err := RunWormhole(c, 0, 1); err == nil {
		t.Error("zero len accepted")
	}
}

func TestWormholeDeterministic(t *testing.T) {
	m := topology.NewMesh(2, 4)
	src := rng.New(3)
	prs := paths.RandomFunction(m.Graph().NumNodes(), src)
	c, err := paths.Build(m.Graph(), prs, paths.DimOrderMesh(m))
	if err != nil {
		t.Fatal(err)
	}
	a, _ := RunWormhole(c, 3, 1)
	b, _ := RunWormhole(c, 3, 1)
	for i := range a.Outcomes {
		if a.Outcomes[i] != b.Outcomes[i] {
			t.Fatal("nondeterministic wormhole run")
		}
	}
}
