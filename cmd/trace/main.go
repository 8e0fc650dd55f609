// Command trace renders an ASCII space-time diagram of one simulated
// round on a small network: which worm occupies which directed link on
// which wavelength at every step, with the per-worm outcomes underneath.
// It is the executable version of the paper's worm-kinematics pictures.
//
// Usage:
//
//	trace -topo ring -size 8 -worms 5 -L 3 -B 1 -delta 6
//	trace -topo hypercube -size 4 -worms 6 -L 2 -B 2
package main

import (
	"flag"
	"fmt"
	"os"

	"repro/internal/graph"
	"repro/internal/optical"
	"repro/internal/rng"
	"repro/internal/sim"
	"repro/internal/topology"
)

func main() {
	var (
		topo   = flag.String("topo", "ring", "topology: ring|chain|torus|hypercube|butterfly")
		size   = flag.Int("size", 8, "nodes (ring/chain), side (torus) or dimension (hypercube/butterfly)")
		nworms = flag.Int("worms", 5, "number of worms")
		length = flag.Int("L", 3, "worm length (flits)")
		bandw  = flag.Int("B", 1, "bandwidth (wavelengths)")
		delta  = flag.Int("delta", 6, "startup delay range")
		rule   = flag.String("rule", "serve-first", "rule: serve-first|priority")
		acks   = flag.Int("ack", 0, "ack length (0 = oracle)")
		seed   = flag.Uint64("seed", 1, "random seed")
	)
	flag.Parse()

	r, err := optical.ParseRule(*rule)
	if err != nil {
		fmt.Fprintln(os.Stderr, "trace:", err)
		os.Exit(1)
	}
	var g *graph.Graph
	switch *topo {
	case "ring":
		g = topology.NewRing(*size).Graph()
	case "chain":
		g = topology.NewChain(*size).Graph()
	case "torus":
		g = topology.NewTorus(2, *size).Graph()
	case "hypercube":
		g = topology.NewHypercube(*size).Graph()
	case "butterfly":
		g = topology.NewButterfly(*size).Graph()
	default:
		fmt.Fprintf(os.Stderr, "trace: unknown topology %q\n", *topo)
		os.Exit(1)
	}

	src := rng.New(*seed)
	ranks := src.Perm(*nworms)
	var worms []sim.Worm
	var table []int32
	for id := 0; id < *nworms; id++ {
		s := src.Intn(g.NumNodes())
		d := src.Intn(g.NumNodes())
		if s == d {
			continue
		}
		r, next, err := g.AppendRoute(table, g.ShortestPath(s, d, nil))
		if err != nil {
			fmt.Fprintln(os.Stderr, "trace:", err)
			os.Exit(1)
		}
		table = next
		worms = append(worms, sim.Worm{
			Route:      r,
			Length:     *length,
			Delay:      src.Intn(*delta),
			Wavelength: src.Intn(*bandw),
			Rank:       ranks[id],
		})
	}
	res, tl, err := sim.Trace(g, worms, sim.Config{
		Bandwidth: *bandw,
		Rule:      r,
		AckLength: *acks,
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, "trace:", err)
		os.Exit(1)
	}
	tl.Render(os.Stdout, sim.MessageBand)
	if *acks > 0 {
		fmt.Println()
		tl.Render(os.Stdout, sim.AckBand)
	}
	fmt.Println()
	for i := range worms {
		fmt.Println(tl.WormEvents(i))
	}
	fmt.Printf("\ndelivered %d/%d worms in %d steps\n",
		res.DeliveredCount, len(worms), res.Makespan+1)
}
