package experiments

import (
	"fmt"

	"repro/internal/baseline"
	"repro/internal/core"
	"repro/internal/optical"
	"repro/internal/paths"
	"repro/internal/rng"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/topology"
)

// E16ElectronicBaseline compares the paper's bufferless all-optical
// protocol with the electronic store-and-forward router its introduction
// argues against. In raw step counts the electronic router wins at these
// network sizes: it buffers at every hop and never retries, and its
// per-hop serialization (hops*L) is cheap when D is small. But a step of
// electronic routing is slower than a step of optical transmission — the
// paper cites ~50 Gbit/s electronic modulation against ~25 THz fiber
// bandwidth, a gap of two to three orders of magnitude. The break-even
// column reports how much slower the electronic clock may be before the
// optical protocol wins outright: a single-digit factor, far below the
// technology gap.
func E16ElectronicBaseline(o Options) (*Table, error) {
	t := &Table{
		ID:    "E16",
		Title: "Intro contrast: all-optical trial-and-failure vs electronic store-and-forward",
		Notes: []string{
			"optical = measured makespan incl. retries; SaF = store-and-forward;",
			"wormhole = buffered stalling wormhole (the strongest electronic router)",
			"break-even = optical/wormhole: the electronic clock slowdown at which",
			"optical wins (the paper cites a ~500x optics-vs-electronics gap)",
		},
		Columns: []string{"workload", "L", "B", "optical steps", "SaF steps", "wormhole steps", "break-even vs WH", "ok"},
	}
	side := 12
	if o.Quick {
		side = 5
	}
	src := rng.New(o.Seed ^ 0x16)
	// A mesh, not a torus: dimension-order channel dependencies are
	// acyclic on meshes, so the buffered wormhole baseline cannot
	// deadlock (on tori its wrap-around cycles do deadlock — the
	// wormhole tests demonstrate that separately).
	msh := topology.NewMesh(2, side)
	n := msh.Graph().NumNodes()

	type wlSpec struct {
		name string
		prs  []paths.Pair
	}
	workloads := []wlSpec{
		{"permutation", paths.RandomPermutation(n, src.Split())},
		{"random function", paths.RandomFunction(n, src.Split())},
		{"4-function", paths.RandomQFunction(4, n, src.Split())},
	}
	const B = 2
	for _, wl := range workloads {
		c, err := paths.Build(msh.Graph(), wl.prs, paths.DimOrderMesh(msh))
		if err != nil {
			return nil, err
		}
		for _, L := range []int{4, 16} {
			opt, err := runTrials(c, core.Config{
				Bandwidth: B, Length: L, Rule: optical.ServeFirst, AckLength: 1,
			}, o.trials(5), src)
			if err != nil {
				return nil, err
			}
			saf, err := baseline.RunCollection(c, L, B)
			if err != nil {
				return nil, err
			}
			wh, err := baseline.RunWormholeCollection(c, L, B)
			if err != nil {
				return nil, err
			}
			whStr := fmt.Sprintf("%d", wh.Makespan)
			if len(wh.Deadlocked) > 0 {
				whStr += " (deadlock)"
			}
			measured := mean(opt.Measured)
			t.AddRow(wl.name, L, B, measured, saf.Makespan, whStr,
				measured/float64(wh.Makespan), opt.completedStr())
		}
	}
	return t, nil
}

// A7Synchronization asks whether the paper's synchronized rounds matter:
// the same batch routed (a) by the trial-and-failure protocol with its
// global round structure and (b) by fully unsynchronized per-source
// retries with exponential backoff (the dynamic machinery with all
// arrivals at step 0). Unsynchronized retries avoid waiting for the round
// horizon, so they finish earlier in wall-clock makespan — the round
// structure buys analyzability, not speed.
func A7Synchronization(o Options) (*Table, error) {
	t := &Table{
		ID:    "A7",
		Title: "Ablation: synchronized rounds vs unsynchronized per-source retries",
		Notes: []string{
			"same batch, same link model; 'sync' uses the protocol's accounted time,",
			"'async' the measured makespan of free-running retries",
		},
		Columns: []string{"B", "sync rounds", "sync time", "async attempts/worm", "async makespan", "async p95 latency", "ok"},
	}
	c, src, err := ablationWorkload(o, o.Seed^0xA7)
	if err != nil {
		return nil, err
	}
	const L = 4
	for _, B := range []int{1, 2, 4} {
		syncRes, err := runTrials(c, core.Config{
			Bandwidth: B, Length: L, Rule: optical.ServeFirst, AckLength: 1,
		}, o.trials(5), src)
		if err != nil {
			return nil, err
		}
		reqs := make([]sim.Request, c.Size())
		for i := range reqs {
			reqs[i] = sim.Request{ID: i, Path: c.Path(i), Length: L}
		}
		async, err := sim.NewEngine().RunDynamic(c.Graph(), reqs, sim.DynamicConfig{
			Sim:   sim.Config{Bandwidth: B, Rule: optical.ServeFirst, AckLength: 1},
			Retry: sim.ExponentialBackoff{Base: 2 * L},
		}, src.Split())
		if err != nil {
			return nil, err
		}
		var lats []float64
		delivered := 0
		for _, oc := range async.Outcomes {
			if oc.Delivered {
				delivered++
				lats = append(lats, float64(oc.Latency))
			}
		}
		p95 := 0.0
		if len(lats) > 0 {
			p95 = stats.Quantile(lats, 0.95)
		}
		t.AddRow(B, syncRes.meanRounds(), syncRes.meanTime(),
			float64(async.TotalAttempts)/float64(len(reqs)),
			async.Makespan, p95,
			delivered == len(reqs))
	}
	return t, nil
}
