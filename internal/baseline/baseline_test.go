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
	res, err := Run(g, []Message{
		{ID: 0, Path: graph.Path{0, 1, 2, 3, 4}, Length: 3, Release: 2},
	}, Config{Bandwidth: 1})
	if err != nil {
		t.Fatal(err)
	}
	// Store-and-forward: 4 hops * 3 steps each, starting at release 2.
	if got := res.Outcomes[0].DeliveredAt; got != 2+4*3 {
		t.Errorf("DeliveredAt = %d, want 14", got)
	}
	if res.Makespan != 14 {
		t.Errorf("makespan = %d", res.Makespan)
	}
}

func TestSerializationOnSharedLink(t *testing.T) {
	// Two messages over one link with B=1: the second waits L steps.
	g := topology.NewChain(2).Graph()
	res, err := Run(g, []Message{
		{ID: 0, Path: graph.Path{0, 1}, Length: 4},
		{ID: 1, Path: graph.Path{0, 1}, Length: 4},
	}, Config{Bandwidth: 1})
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
	res, err = Run(g, []Message{
		{ID: 0, Path: graph.Path{0, 1}, Length: 4},
		{ID: 1, Path: graph.Path{0, 1}, Length: 4},
	}, Config{Bandwidth: 2})
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
	res, err := RunCollection(c, 4, 2)
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
	a, err := RunCollection(c, 3, 1)
	if err != nil {
		t.Fatal(err)
	}
	b, err := RunCollection(c, 3, 1)
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
	g := topology.NewChain(3).Graph()
	cases := map[string][]Message{
		"dup id":      {{ID: 0, Path: graph.Path{0, 1}, Length: 1}, {ID: 0, Path: graph.Path{1, 2}, Length: 1}},
		"bad path":    {{ID: 0, Path: graph.Path{0, 2}, Length: 1}},
		"zero len":    {{ID: 0, Path: graph.Path{0, 1}, Length: 0}},
		"neg release": {{ID: 0, Path: graph.Path{0, 1}, Length: 1, Release: -1}},
	}
	for name, msgs := range cases {
		if _, err := Run(g, msgs, Config{Bandwidth: 1}); err == nil {
			t.Errorf("%s accepted", name)
		}
	}
	if _, err := Run(g, nil, Config{Bandwidth: 0}); err == nil {
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
	res, err := Run(g, []Message{
		{ID: 0, Path: graph.Path{0, 3, 4}, Length: 2},
		{ID: 1, Path: graph.Path{1, 3, 4}, Length: 2},
		{ID: 2, Path: graph.Path{2, 3, 4}, Length: 2},
	}, Config{Bandwidth: 1})
	if err != nil {
		t.Fatal(err)
	}
	// All reach node 3 at step 2, then serialize over 3->4: deliveries at
	// 4, 6, 8 in FIFO (ID) order.
	want := []int{4, 6, 8}
	for i, o := range res.Outcomes {
		if o.DeliveredAt != want[i] {
			t.Errorf("message %d delivered at %d, want %d", i, o.DeliveredAt, want[i])
		}
	}
}
