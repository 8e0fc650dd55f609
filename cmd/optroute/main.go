// Command optroute runs the Trial-and-Failure protocol on a chosen
// topology and workload and prints a per-round report.
//
// Usage:
//
//	optroute -topo torus -dims 2 -side 16 -workload perm -B 4 -L 8 -rule priority
//
// Topologies: torus, mesh, hypercube, butterfly, ring, circulant, ccc, star.
// Workloads: perm, func, qfunc (use -q).
package main

import (
	"flag"
	"fmt"
	"os"

	"repro/internal/core"
	"repro/internal/jobs"
	"repro/internal/optical"
	"repro/internal/sim"
	"repro/internal/witness"
	"repro/optnet"
)

func main() {
	var (
		topo     = flag.String("topo", "torus", "topology: torus|mesh|hypercube|butterfly|ring|circulant|ccc|star")
		dims     = flag.Int("dims", 2, "dimensions (torus/mesh)")
		side     = flag.Int("side", 8, "side length (torus/mesh) or size (ring/circulant)")
		dim      = flag.Int("dim", 6, "dimension (hypercube/butterfly/ccc/star)")
		workload = flag.String("workload", "perm", "workload: perm|func|qfunc")
		q        = flag.Int("q", 2, "messages per node for qfunc")
		bandw    = flag.Int("B", 2, "bandwidth (wavelengths)")
		length   = flag.Int("L", 4, "worm length (flits)")
		rule     = flag.String("rule", "serve-first", "rule: serve-first|priority")
		seed     = flag.Uint64("seed", 1, "random seed")
		ackLen   = flag.Int("ack", 1, "ack length in flits (0 = oracle)")
		schedule = flag.String("schedule", "halving", "delay schedule: halving|paper|fixed|doubling")
		wreckage = flag.String("wreckage", "drain", "wreckage policy: drain|vanish")
		convert  = flag.Bool("convert", false, "enable wavelength conversion at every router")
		hops     = flag.Int("hops", 1, "optical hops per worm (electrical buffering between)")
		verbose  = flag.Bool("v", false, "print per-round details")
		witnessF = flag.Bool("witness", false, "analyze blocking graphs (Claim 2.6) from traces")
	)
	flag.Parse()

	// Offsets are read only for a circulant.
	top, sel, err := jobs.NetworkSpec{Kind: *topo, Dims: *dims, Side: *side, Dim: *dim,
		Size: *side, Offsets: []int{1, 1 + *side/4}}.Build()
	if err != nil {
		fatal(err)
	}
	net := optnet.Custom(top, sel, "")
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
	if *topo == "butterfly" && *workload != "qfunc" {
		fatal(fmt.Errorf("the butterfly routes input-to-output workloads; use -workload qfunc"))
	}

	r, err := optical.ParseRule(*rule)
	if err != nil {
		fatal(err)
	}
	adv := &optnet.Advanced{TrackCongestion: *verbose, RecordCollisions: *witnessF}
	switch *schedule {
	case "halving":
	case "paper":
		adv.Schedule = core.PaperExact()
	case "fixed":
		adv.Schedule = core.FixedSchedule{}
	case "doubling":
		adv.Schedule = core.DoublingSchedule{}
	default:
		fatal(fmt.Errorf("unknown schedule %q", *schedule))
	}
	if adv.Wreckage, err = sim.ParseWreckage(*wreckage); err != nil {
		fatal(err)
	}
	if *convert {
		adv.Conversion = sim.FullConversion
	}

	stats, err := optnet.Analyze(net, wl)
	if err != nil {
		fatal(err)
	}
	fmt.Printf("network:   %s (%d routers, %d links)\n",
		net.Name(), net.Graph().NumNodes(), net.Graph().NumLinks())
	fmt.Printf("workload:  %s -> %s\n", wl.Name, stats)
	fmt.Printf("protocol:  B=%d L=%d rule=%s schedule=%s ack=%d wreckage=%s\n",
		*bandw, *length, r, *schedule, *ackLen, adv.Wreckage)

	params := optnet.Params{
		Bandwidth:  *bandw,
		WormLength: *length,
		Rule:       r,
		Seed:       *seed,
		AckLength:  *ackLen,
		Advanced:   adv,
	}
	if *hops != 1 {
		runMultiHop(net, wl, *hops, params)
		return
	}
	res, err := optnet.Route(net, wl, params)
	if err != nil {
		fatal(err)
	}

	fmt.Printf("\nrounds:    %d (all delivered: %t)\n", res.TotalRounds, res.AllDelivered)
	fmt.Printf("time:      %d steps accounted (paper), %d measured\n", res.TotalTime, res.MeasuredTime)
	if res.DuplicateAcks > 0 {
		fmt.Printf("dup acks:  %d deliveries retried because the ack was lost\n", res.DuplicateAcks)
	}
	if *witnessF {
		a := witness.Analyze(res.RoundTraces)
		tie := a.TotalCycles() - a.TotalProperCycles()
		fmt.Printf("witness:   %d tie cycles, %d proper blocking cycles, Claim 2.6 holds: %t\n",
			tie, a.TotalProperCycles(), a.SatisfiesClaim26())
	}
	if *verbose {
		fmt.Println("\nround  delta  active  delivered  acked  collisions  residualC  makespan")
		for _, rs := range res.Rounds {
			fmt.Printf("%5d  %5d  %6d  %9d  %5d  %10d  %9d  %8d\n",
				rs.Round, rs.DelayRange, rs.ActiveBefore, rs.Delivered, rs.Acked,
				rs.Collisions, rs.ResidualCongestion, rs.Makespan)
		}
	}
	if !res.AllDelivered {
		fmt.Printf("\nWARNING: %d worms still active after the round cap\n", len(res.StillActive))
		os.Exit(2)
	}
}

// runMultiHop routes the workload in several optical stages with
// electrical buffering between them (the Section 4 extension).
func runMultiHop(net *optnet.Network, wl optnet.Workload, hops int, p optnet.Params) {
	mh, err := optnet.RouteMultiHop(net, wl, hops, p)
	if err != nil {
		fatal(err)
	}
	fmt.Printf("\nhops:      %d stages (max segment dilation %d)\n", len(mh.Stages), mh.SegmentDilation)
	for i, st := range mh.Stages {
		fmt.Printf("  stage %d: %d rounds, %d steps, delivered=%t\n",
			i+1, st.TotalRounds, st.TotalTime, st.AllDelivered)
	}
	fmt.Printf("total:     %d rounds, %d steps, all delivered: %t\n",
		mh.TotalRounds, mh.TotalTime, mh.AllDelivered)
	if !mh.AllDelivered {
		os.Exit(2)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "optroute:", err)
	os.Exit(1)
}
