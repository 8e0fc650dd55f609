// Command lowerbound runs the paper's adversarial gadget collections
// (Figures 5 and 6, and the type-2 identical-path structures) directly,
// printing the per-round survivor counts that drive the lower-bound
// experiments E2/E4/E5/E6.
//
// Usage:
//
//	lowerbound -kind cyclic -structures 256 -L 4 -rule serve-first
//	lowerbound -kind staggered -structures 64 -per 5
//	lowerbound -kind identical -congestion 128
package main

import (
	"flag"
	"fmt"
	"os"

	"repro/internal/core"
	"repro/internal/lowerbound"
	"repro/internal/optical"
	"repro/internal/rng"
)

func main() {
	var (
		kind       = flag.String("kind", "cyclic", "gadget: staggered|cyclic|identical")
		structures = flag.Int("structures", 64, "number of structures")
		per        = flag.Int("per", 4, "paths per staggered structure")
		congestion = flag.Int("congestion", 64, "paths per identical structure")
		dpth       = flag.Int("D", 0, "path length (0 = derive from L)")
		length     = flag.Int("L", 4, "worm length")
		bandw      = flag.Int("B", 1, "bandwidth")
		rule       = flag.String("rule", "serve-first", "rule: serve-first|priority")
		adversary  = flag.Bool("adversary", false, "use the adversarial rank assignment (staggered)")
		delta      = flag.Int("delta", 0, "fixed delay range (0 = paper halving schedule)")
		seed       = flag.Uint64("seed", 1, "random seed")
	)
	flag.Parse()

	r, err := optical.ParseRule(*rule)
	if err != nil {
		fatal(err)
	}
	var b *lowerbound.Build
	switch *kind {
	case "staggered":
		d := (*length-1)/2 + 1
		D := *dpth
		if D == 0 {
			D = *per*d + 4
		}
		b = lowerbound.Staggered(*structures, *per, D, *length)
	case "cyclic":
		D := *dpth
		if D == 0 {
			D = *length/2 + 4
		}
		b = lowerbound.Cyclic(*structures, D, *length)
	case "identical":
		D := *dpth
		if D == 0 {
			D = 6
		}
		b = lowerbound.Identical(*structures, *congestion, D)
	default:
		fatal(fmt.Errorf("unknown gadget kind %q", *kind))
	}

	cfg := core.Config{
		Bandwidth:       *bandw,
		Length:          *length,
		Rule:            r,
		MaxRounds:       2000,
		TrackCongestion: *kind == "identical",
	}
	if r == optical.Priority {
		if *adversary {
			cfg.Priorities = core.ExplicitRanks{Ranks: b.Ranks}
		} else {
			cfg.Priorities = core.RandomRanks{}
		}
	}
	if *delta > 0 {
		cfg.Schedule = core.ConstantSchedule{Delta: *delta}
	}

	c := b.Collection
	fmt.Printf("gadget:   %s x%d (n=%d paths, D=%d, C~=%d)\n",
		*kind, *structures, c.Size(), c.Dilation(), c.PathCongestion())
	fmt.Printf("protocol: B=%d L=%d rule=%s delta=%s\n",
		*bandw, *length, cfg.Rule, deltaStr(*delta))

	res, err := core.Run(c, cfg, rng.New(*seed))
	if err != nil {
		fatal(err)
	}
	fmt.Println("\nround  delta  active  acked  residualC")
	for _, r := range res.Rounds {
		fmt.Printf("%5d  %5d  %6d  %5d  %9d\n",
			r.Round, r.DelayRange, r.ActiveBefore, r.Acked, r.ResidualCongestion)
	}
	fmt.Printf("\nrounds: %d, all delivered: %t, accounted time: %d\n",
		res.TotalRounds, res.AllDelivered, res.TotalTime)
	if !res.AllDelivered {
		os.Exit(2)
	}
}

func deltaStr(d int) string {
	if d == 0 {
		return "halving schedule"
	}
	return fmt.Sprintf("%d (fixed)", d)
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "lowerbound:", err)
	os.Exit(1)
}
