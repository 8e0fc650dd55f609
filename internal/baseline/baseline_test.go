package baseline

import (
	"testing"

	"repro/internal/graph"
	"repro/internal/paths"
	"repro/internal/rng"
	"repro/internal/topology"
)

func TestSingleMessage(t *testing.T) {
	g := topology.NewChain(5).Graph()
	res, err := Run(paths.MustCollection(g, []graph.Path{{0, 1, 2, 3, 4}}), 3, 1)
	if err != nil {
		t.Fatal(err)
	}
	// Store-and-forward: 4 hops * 3 steps each, starting at step 0.
	if got := res.Outcomes[0].DeliveredAt; got != 4*3 {
		t.Errorf("DeliveredAt = %d, want 12", got)
	}
	if res.Makespan != 12 {
		t.Errorf("makespan = %d", res.Makespan)
	}
}

func TestSerializationOnSharedLink(t *testing.T) {
	// Two messages over one link with B=1: the second waits L steps.
	c := paths.MustCollection(topology.NewChain(2).Graph(), []graph.Path{{0, 1}, {0, 1}})
	res, err := Run(c, 4, 1)
	if err != nil {
		t.Fatal(err)
	}
	if res.Outcomes[0].DeliveredAt != 4 {
		t.Errorf("first message at %d, want 4", res.Outcomes[0].DeliveredAt)
	}
	if res.Outcomes[1].DeliveredAt != 8 {
		t.Errorf("second message at %d, want 8 (queued behind)", res.Outcomes[1].DeliveredAt)
	}
	if res.PeakQueue != 2 {
		t.Errorf("peak queue = %d, want 2", res.PeakQueue)
	}
	// With B=2 both run in parallel.
	res, err = Run(c, 4, 2)
	if err != nil {
		t.Fatal(err)
	}
	if res.Outcomes[1].DeliveredAt != 4 {
		t.Errorf("parallel channels: second at %d, want 4", res.Outcomes[1].DeliveredAt)
	}
}

func TestAllDeliveredEventually(t *testing.T) {
	tor := topology.NewTorus(2, 6)
	src := rng.New(3)
	prs := paths.RandomQFunction(3, tor.Graph().NumNodes(), src)
	c, err := paths.Build(tor.Graph(), prs, paths.DimOrderTorus(tor))
	if err != nil {
		t.Fatal(err)
	}
	res, err := Run(c, 4, 2)
	if err != nil {
		t.Fatal(err)
	}
	for i, o := range res.Outcomes {
		if o.DeliveredAt < 0 {
			t.Fatalf("message %d never delivered", i)
		}
		// Lower bound: hops * L.
		if min := c.Path(i).Len() * 4; o.DeliveredAt < min {
			t.Fatalf("message %d delivered at %d, below serialization floor %d",
				i, o.DeliveredAt, min)
		}
	}
}

func TestDeterministic(t *testing.T) {
	tor := topology.NewTorus(2, 5)
	src := rng.New(9)
	prs := paths.RandomFunction(tor.Graph().NumNodes(), src)
	c, err := paths.Build(tor.Graph(), prs, paths.DimOrderTorus(tor))
	if err != nil {
		t.Fatal(err)
	}
	a, err := Run(c, 3, 1)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(c, 3, 1)
	if err != nil {
		t.Fatal(err)
	}
	for i := range a.Outcomes {
		if a.Outcomes[i] != b.Outcomes[i] {
			t.Fatalf("outcome %d differs between identical runs", i)
		}
	}
}

func TestValidation(t *testing.T) {
	c := paths.MustCollection(topology.NewChain(3).Graph(), []graph.Path{{0, 1}})
	if _, err := Run(c, 0, 1); err == nil {
		t.Error("zero len accepted")
	}
	if _, err := Run(c, 1, 0); err == nil {
		t.Error("bandwidth 0 accepted")
	}
}

func TestConvoyThroughNode(t *testing.T) {
	// A convoy on a Y graph: three senders into one sink link, B=1, L=2.
	gb := graph.NewBuilder(5)
	gb.AddEdge(0, 3)
	gb.AddEdge(1, 3)
	gb.AddEdge(2, 3)
	gb.AddEdge(3, 4)
	g := gb.Finalize()
	res, err := Run(paths.MustCollection(g, []graph.Path{{0, 3, 4}, {1, 3, 4}, {2, 3, 4}}), 2, 1)
	if err != nil {
		t.Fatal(err)
	}
	// All reach node 3 at step 2, then serialize over 3->4: deliveries at
	// 4, 6, 8 in FIFO (path index) order.
	want := []int{4, 6, 8}
	for i, o := range res.Outcomes {
		if o.DeliveredAt != want[i] {
			t.Errorf("message %d delivered at %d, want %d", i, o.DeliveredAt, want[i])
		}
	}
}
