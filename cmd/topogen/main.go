// Command topogen inspects topologies and path collections: node/link
// counts, diameter, degree, workload statistics (dilation, congestion,
// leveled / short-cut free classification), and optional DOT output.
//
// Usage:
//
//	topogen -topo butterfly -dim 4
//	topogen -topo torus -side 8 -workload perm -seed 3
//	topogen -topo hypercube -dim 3 -dot
package main

import (
	"flag"
	"fmt"
	"os"

	"repro/internal/jobs"
	"repro/optnet"
)

func main() {
	var (
		topo     = flag.String("topo", "torus", "topology: torus|mesh|hypercube|butterfly|ring|circulant|ccc|star")
		dims     = flag.Int("dims", 2, "dimensions (torus/mesh)")
		side     = flag.Int("side", 8, "side length (torus/mesh) or size (ring/circulant)")
		dim      = flag.Int("dim", 4, "dimension (hypercube/butterfly/ccc/star)")
		workload = flag.String("workload", "", "optional workload to analyze: perm|func|qfunc")
		q        = flag.Int("q", 2, "messages per node for qfunc")
		seed     = flag.Uint64("seed", 1, "workload seed")
		dot      = flag.Bool("dot", false, "emit the graph in DOT format")
	)
	flag.Parse()

	// Offsets are read only for a circulant.
	top, sel, err := jobs.NetworkSpec{Kind: *topo, Dims: *dims, Side: *side, Dim: *dim,
		Size: *side, Offsets: []int{1, 1 + *side/4}}.Build()
	if err != nil {
		fatal(err)
	}
	net := optnet.Custom(top, sel, "")
	g := net.Graph()
	fmt.Printf("network:  %s\n", net.Name())
	fmt.Printf("routers:  %d\n", g.NumNodes())
	fmt.Printf("links:    %d directed (%d undirected edges)\n", g.NumLinks(), g.NumEdges())
	fmt.Printf("degree:   max %d\n", g.MaxDegree())
	if g.NumNodes() <= 4096 {
		fmt.Printf("diameter: %d\n", g.Diameter())
	}

	if *workload != "" {
		var wl optnet.Workload
		switch *workload {
		case "perm":
			wl = optnet.Permutation(net, *seed)
		case "func":
			wl = optnet.RandomFunction(net, *seed)
		case "qfunc":
			if *q < 1 {
				fatal(fmt.Errorf("-q %d < 1", *q))
			}
			if *topo == "butterfly" {
				wl = optnet.ButterflyQFunction(net, *q, *seed)
			} else {
				wl = optnet.QFunction(net, *q, *seed)
			}
		default:
			fatal(fmt.Errorf("unknown workload %q", *workload))
		}
		stats, err := optnet.Analyze(net, wl)
		if err != nil {
			fatal(err)
		}
		fmt.Printf("workload: %s\n", wl.Name)
		fmt.Printf("paths:    %s\n", stats)
	}

	if *dot {
		fmt.Println()
		g.WriteDot(os.Stdout, net.Name())
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "topogen:", err)
	os.Exit(1)
}
