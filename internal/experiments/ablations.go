package experiments

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/lowerbound"
	"repro/internal/optical"
	"repro/internal/paths"
	"repro/internal/rng"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/topology"
	"repro/internal/witness"
)

// ablationWorkload builds the shared workload of the A-series ablations:
// a random function on a 2-D torus with dimension-order paths.
func ablationWorkload(o Options, seed uint64) (*paths.Collection, *rng.Source, error) {
	side := 12
	if o.Quick {
		side = 5
	}
	src := rng.New(seed)
	tor := topology.NewTorus(2, side)
	prs := paths.RandomFunction(tor.Graph().NumNodes(), src.Split())
	c, err := paths.Build(tor.Graph(), prs, paths.DimOrderTorus(tor))
	return c, src, err
}

// A1Schedules compares delay schedules on one workload: the paper's
// halving schedule against a fixed range and doubling backoff. The
// halving schedule's total time should win once C is large, because
// Sum Delta_t telescopes to O(L*C/B) instead of T*L*C/B.
func A1Schedules(o Options) (*Table, error) {
	t := &Table{
		ID:      "A1",
		Title:   "Ablation: delay schedules (halving vs fixed vs doubling)",
		Columns: []string{"schedule", "rounds", "time", "measured", "ok"},
	}
	c, src, err := ablationWorkload(o, o.Seed^0xA1)
	if err != nil {
		return nil, err
	}
	scheds := []core.DelaySchedule{
		core.HalvingSchedule{},
		core.PaperExact(),
		core.FixedSchedule{Factor: 2},
		core.DoublingSchedule{},
	}
	names := []string{"halving", "paper-exact", "fixed", "doubling"}
	for i, s := range scheds {
		ts, err := runTrials(c, core.Config{
			Bandwidth: 2, Length: 4, Rule: optical.ServeFirst,
			Schedule: s, AckLength: 1,
		}, o.trials(5), src)
		if err != nil {
			return nil, err
		}
		t.AddRow(names[i], ts.meanRounds(), ts.meanTime(), stats.Mean(ts.Measured), ts.completedStr())
	}
	return t, nil
}

// A2Wreckage compares the Drain (physical wreckage) and Vanish (analysis)
// policies: the round counts should agree within noise, validating that
// the paper's clean pairwise model predicts the physical one.
func A2Wreckage(o Options) (*Table, error) {
	t := &Table{
		ID:      "A2",
		Title:   "Ablation: wreckage policy (drain vs vanish)",
		Columns: []string{"policy", "rule", "rounds", "time", "ok"},
	}
	c, src, err := ablationWorkload(o, o.Seed^0xA2)
	if err != nil {
		return nil, err
	}
	for _, rule := range []optical.Rule{optical.ServeFirst, optical.Priority} {
		for _, pol := range []sim.WreckagePolicy{sim.Drain, sim.Vanish} {
			ts, err := runTrials(c, core.Config{
				Bandwidth: 2, Length: 4, Rule: rule,
				Priorities: core.RandomRanks{},
				Wreckage:   pol, AckLength: 1,
			}, o.trials(5), src)
			if err != nil {
				return nil, err
			}
			t.AddRow(pol.String(), rule.String(), ts.meanRounds(), ts.meanTime(), ts.completedStr())
		}
	}
	return t, nil
}

// A3Acks compares acknowledgement models: oracle (instant), single-flit
// ack worms, and full-length ack worms in the reserved band. Real acks
// cost duplicate deliveries but must not change the round-count shape
// (the paper doubles C to account for them).
func A3Acks(o Options) (*Table, error) {
	t := &Table{
		ID:      "A3",
		Title:   "Ablation: acknowledgement model (oracle vs 1-flit vs L-flit acks)",
		Columns: []string{"ackLen", "rounds", "time", "duplicates", "ok"},
	}
	c, src, err := ablationWorkload(o, o.Seed^0xA3)
	if err != nil {
		return nil, err
	}
	const L = 4
	for _, ack := range []int{0, 1, L} {
		rounds, times, dups, completed := 0.0, 0.0, 0, 0
		n := o.trials(5)
		for i := 0; i < n; i++ {
			res, err := core.Run(c, core.Config{
				Bandwidth: 2, Length: L, Rule: optical.ServeFirst, AckLength: ack,
			}, src.Split())
			if err != nil {
				return nil, err
			}
			rounds += float64(res.TotalRounds)
			times += float64(res.TotalTime)
			dups += res.DuplicateAcks
			if res.AllDelivered {
				completed++
			}
		}
		t.AddRow(ack, rounds/float64(n), times/float64(n), dups, completed)
	}
	return t, nil
}

// A4TiePolicy compares the simultaneous-arrival policies of the
// serve-first coupler: eliminating all contenders versus letting an
// arbitrary one win. The shape must be insensitive to this modelling
// freedom.
func A4TiePolicy(o Options) (*Table, error) {
	t := &Table{
		ID:      "A4",
		Title:   "Ablation: serve-first tie policy on simultaneous arrivals",
		Columns: []string{"tie", "rounds", "time", "ok"},
	}
	c, src, err := ablationWorkload(o, o.Seed^0xA4)
	if err != nil {
		return nil, err
	}
	names := map[optical.TiePolicy]string{
		optical.TieEliminateAll:    "eliminate-all",
		optical.TieArbitraryWinner: "arbitrary-winner",
	}
	for _, tie := range []optical.TiePolicy{optical.TieEliminateAll, optical.TieArbitraryWinner} {
		ts, err := runTrials(c, core.Config{
			Bandwidth: 2, Length: 4, Rule: optical.ServeFirst,
			Tie: tie, AckLength: 1,
		}, o.trials(5), src)
		if err != nil {
			return nil, err
		}
		t.AddRow(names[tie], ts.meanRounds(), ts.meanTime(), ts.completedStr())
	}
	return t, nil
}

// F4Witness reproduces Figure 4 / Claim 2.6 empirically: per-round
// blocking graphs are forests for leveled serve-first and short-cut free
// priority routing, while cyclic gadgets under serve-first exhibit
// directed blocking cycles.
func F4Witness(o Options) (*Table, error) {
	t := &Table{
		ID:      "F4",
		Title:   "Claim 2.6: blocking graphs from traces (forest property and cycles)",
		Columns: []string{"scenario", "rounds", "tieCycles", "properCycles", "claim2.6", "maxDepth"},
	}
	src := rng.New(o.Seed ^ 0xF4)
	k := 5
	structs := 64
	if o.Quick {
		k = 3
		structs = 8
	}

	// Scenario 1: leveled butterfly, serve-first.
	b := topology.NewButterfly(k)
	prs := paths.ButterflyRandomQFunction(b, 2, src.Split())
	c1, err := paths.Build(b.Graph(), prs, paths.ButterflySelector(b))
	if err != nil {
		return nil, err
	}
	if err := f4Row(t, "leveled butterfly / serve-first", c1, core.Config{
		Bandwidth: 1, Length: 4, Rule: optical.ServeFirst, RecordCollisions: true,
	}, src); err != nil {
		return nil, err
	}

	// Scenario 2: short-cut free torus, priority.
	tor := topology.NewTorus(2, 2*k)
	prs2 := paths.RandomPermutation(tor.Graph().NumNodes(), src.Split())
	c2, err := paths.Build(tor.Graph(), prs2, paths.DimOrderTorus(tor))
	if err != nil {
		return nil, err
	}
	if err := f4Row(t, "shortcut-free torus / priority", c2, core.Config{
		Bandwidth: 1, Length: 4, Rule: optical.Priority,
		Priorities: core.RandomRanks{}, RecordCollisions: true,
	}, src); err != nil {
		return nil, err
	}

	// Scenario 3: cyclic gadget, serve-first: cycles expected.
	lb := lowerbound.Cyclic(structs, 6, 4)
	if err := f4Row(t, "cyclic gadget / serve-first", lb.Collection, core.Config{
		Bandwidth: 1, Length: 4, Rule: optical.ServeFirst,
		Schedule: core.ConstantSchedule{Delta: 4}, MaxRounds: 500,
		RecordCollisions: true,
	}, src); err != nil {
		return nil, err
	}
	return t, nil
}

func f4Row(t *Table, name string, c *paths.Collection, cfg core.Config, src *rng.Source) error {
	res, err := core.Run(c, cfg, src.Split())
	if err != nil {
		return err
	}
	a := witness.Analyze(res.RoundTraces)
	maxDepth := 0
	for i := 0; i < c.Size(); i++ {
		if d := a.WitnessDepth(i); d > maxDepth {
			maxDepth = d
		}
	}
	t.AddRow(name, res.TotalRounds, a.TotalCycles()-a.TotalProperCycles(),
		a.TotalProperCycles(), a.SatisfiesClaim26(), maxDepth)
	return nil
}

// A6WavelengthChoice compares the paper's uniformly random wavelength
// draws against a conflict-aware static choice (greedy RWA coloring
// reduced mod B). With B at least the coloring size the first round is
// collision-free; below it the coloring still separates most conflicting
// pairs, trading a global precomputation for fewer retry rounds — the
// paper's random choice needs no coordination at all, which is its point.
func A6WavelengthChoice(o Options) (*Table, error) {
	t := &Table{
		ID:      "A6",
		Title:   "Ablation: wavelength choice (random vs RWA-colored mod B)",
		Columns: []string{"B", "policy", "rounds", "time", "round1 collisions", "ok"},
	}
	c, src, err := ablationWorkload(o, o.Seed^0xA6)
	if err != nil {
		return nil, err
	}
	_, needed := c.GreedyWavelengthAssignment()
	t.Notes = append(t.Notes, fmt.Sprintf("greedy RWA coloring of this workload uses %d wavelengths", needed))
	for _, B := range []int{2, 4, needed} {
		for _, pol := range []core.WavelengthPolicy{core.RandomWavelengths{}, &core.ColoredWavelengths{}} {
			trials := o.trials(5)
			rounds, times, coll1, completed := 0.0, 0.0, 0.0, 0
			for i := 0; i < trials; i++ {
				res, err := core.Run(c, core.Config{
					Bandwidth: B, Length: 4, Rule: optical.ServeFirst,
					Wavelengths: pol, AckLength: 1,
				}, src.Split())
				if err != nil {
					return nil, err
				}
				rounds += float64(res.TotalRounds)
				times += float64(res.TotalTime)
				coll1 += float64(res.Rounds[0].Collisions)
				if res.AllDelivered {
					completed++
				}
			}
			ft := float64(trials)
			t.AddRow(B, pol.Name(), rounds/ft, times/ft, coll1/ft,
				fmt.Sprintf("%d/%d", completed, trials))
		}
	}
	return t, nil
}

// F5WitnessDepths measures the paper's central proof object directly: the
// distribution of witness-tree depths (how many consecutive rounds each
// worm kept failing) on a congested workload. The upper-bound argument
// shows Pr[depth >= t] decays so fast that T = sqrt(log_a n) + loglog_b n
// bounds the maximum w.h.p.; empirically the histogram collapses
// geometrically or faster.
func F5WitnessDepths(o Options) (*Table, error) {
	t := &Table{
		ID:    "F5",
		Title: "Witness-tree depth distribution (Sec. 2.1's proof object, measured)",
		Notes: []string{
			"count(depth >= t) should collapse at least geometrically in t",
		},
		Columns: []string{"depth", "worms", "fraction"},
	}
	side := 16
	if o.Quick {
		side = 6
	}
	src := rng.New(o.Seed ^ 0xF5)
	tor := topology.NewTorus(2, side)
	// A congested workload: a random 4-function at B=1.
	prs := paths.RandomQFunction(4, tor.Graph().NumNodes(), src.Split())
	c, err := paths.Build(tor.Graph(), prs, paths.DimOrderTorus(tor))
	if err != nil {
		return nil, err
	}
	res, err := core.Run(c, core.Config{
		Bandwidth: 1, Length: 4, Rule: optical.ServeFirst,
		RecordCollisions: true,
	}, src.Split())
	if err != nil {
		return nil, err
	}
	a := witness.Analyze(res.RoundTraces)
	counts := map[int]int{}
	maxDepth := 0
	for i := 0; i < c.Size(); i++ {
		d := a.WitnessDepth(i)
		counts[d]++
		if d > maxDepth {
			maxDepth = d
		}
	}
	n := float64(c.Size())
	for d := 0; d <= maxDepth; d++ {
		t.AddRow(d, counts[d], float64(counts[d])/n)
	}
	t.Notes = append(t.Notes,
		fmt.Sprintf("n=%d worms, C~=%d, %d rounds to clear", c.Size(),
			res.Params.PathCongestion, res.TotalRounds))
	return t, nil
}
