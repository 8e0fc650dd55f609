package sim_test

import (
	"fmt"
	"os"

	"repro/internal/graph"
	"repro/internal/optical"
	"repro/internal/rng"
	"repro/internal/sim"
	"repro/internal/topology"
)

// A single round on a chain: one worm sails through, a later one is
// eliminated on the shared link under the serve-first rule.
func ExampleEngine_Run() {
	g := topology.NewChain(4).Graph()
	routes, err := g.Routes([]graph.Path{{0, 1, 2, 3}, {0, 1, 2}})
	if err != nil {
		panic(err)
	}
	worms := []sim.Worm{
		{Route: routes[0], Length: 2, Delay: 0, Wavelength: 0},
		{Route: routes[1], Length: 2, Delay: 1, Wavelength: 0},
	}
	res, err := sim.NewEngine().Run(g, worms, sim.Config{
		Bandwidth: 1,
		Rule:      optical.ServeFirst,
	})
	if err != nil {
		panic(err)
	}
	fmt.Println("worm 0 delivered:", res.Outcomes[0].Delivered)
	fmt.Println("worm 1 delivered:", res.Outcomes[1].Delivered)
	fmt.Println("worm 1 cut at link:", res.Outcomes[1].CutLink)
	// Output:
	// worm 0 delivered: true
	// worm 1 delivered: false
	// worm 1 cut at link: 0
}

// Trace renders the space-time diagram of a round.
func ExampleTrace() {
	g := topology.NewChain(4).Graph()
	r, _, err := g.AppendRoute(nil, graph.Path{0, 1, 2, 3})
	if err != nil {
		panic(err)
	}
	worms := []sim.Worm{
		{Route: r, Length: 2, Delay: 0, Wavelength: 0},
	}
	_, tl, err := sim.Trace(g, worms, sim.Config{Bandwidth: 1, Rule: optical.ServeFirst})
	if err != nil {
		panic(err)
	}
	tl.Render(os.Stdout, sim.MessageBand)
	// Output:
	// space-time diagram (messages), 4 steps
	//   0->1   w0 |00..|
	//   1->2   w0 |.00.|
	//   2->3   w0 |..00|
}

// RunDynamic drives continuous operation with retries.
func ExampleEngine_RunDynamic() {
	g := topology.NewChain(4).Graph()
	r, _, err := g.AppendRoute(nil, graph.Path{0, 1, 2, 3})
	if err != nil {
		panic(err)
	}
	reqs := []sim.Request{
		{Route: r, Length: 2, Arrival: 0},
	}
	res, err := sim.NewEngine().RunDynamic(g, reqs, sim.DynamicConfig{
		Sim: sim.Config{Bandwidth: 1, Rule: optical.ServeFirst},
	}, rng.New(1))
	if err != nil {
		panic(err)
	}
	fmt.Println("delivered:", res.Outcomes[0].Delivered, "attempts:", res.Outcomes[0].Attempts)
	// Output: delivered: true attempts: 1
}
