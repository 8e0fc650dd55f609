package main

import (
	"fmt"
	"time"

	"repro/internal/canon"
	"repro/internal/core"
	"repro/internal/optical"
	"repro/internal/paths"
	"repro/internal/rng"
	"repro/internal/sim"
	"repro/internal/telemetry"
	"repro/internal/topology"
)

// kernelSize fixes the kernel-sparse problem: a side x side torus carrying
// pairs seed-drawn dimension-order routes, measured in batches of trials.
type kernelSize struct{ side, pairs, batch int }

// kernelSizeFor returns the full or smoke size.
func kernelSizeFor(smoke bool) kernelSize {
	if smoke {
		return kernelSize{side: 64, pairs: 128, batch: 2}
	}
	return kernelSize{side: 256, pairs: 2048, batch: 8}
}

// kernelProblem is a built kernel-sparse input.
type kernelProblem struct {
	size kernelSize
	seed uint64
	col  *paths.Collection
	cfg  core.Config
	// Setup phase times: torus construction, path collection, congestion.
	topoT, pathsT, congT time.Duration
}

// buildKernel constructs the torus and the route collection for an input
// seed. B=4, L=8, one-flit acknowledgements, serve-first, no probe.
func buildKernel(size kernelSize, seed uint64) (*kernelProblem, error) {
	p := &kernelProblem{size: size, seed: seed}
	t0 := time.Now()
	tor := topology.NewTorus(2, size.side)
	g := tor.Graph()
	p.topoT = time.Since(t0)

	t0 = time.Now()
	src := kernelSources(seed, size.batch)[0]
	n := g.NumNodes()
	prs := make([]paths.Pair, 0, size.pairs)
	for len(prs) < size.pairs {
		s, d := src.Intn(n), src.Intn(n)
		if s != d {
			prs = append(prs, paths.Pair{Src: s, Dst: d})
		}
	}
	col, err := paths.Build(g, prs, paths.DimOrderTorus(tor))
	if err != nil {
		return nil, err
	}
	p.col = col
	p.pathsT = time.Since(t0)

	t0 = time.Now()
	_ = col.PathCongestion()
	p.congT = time.Since(t0)
	p.cfg = core.Config{Bandwidth: 4, Length: 8, AckLength: 1, Rule: optical.ServeFirst}
	return p, nil
}

// kernelSources derives the pair stream (index 0) and one stream per
// trial of a batch from the input seed. Every batch re-derives them, so
// every batch runs the same trials.
func kernelSources(seed uint64, batch int) []*rng.Source {
	return rng.New(seed).SplitN(batch + 1)
}

// trialOut is one protocol trial's outcome.
type trialOut struct {
	dur       time.Duration
	steps     int
	delivered bool
}

// runKernelBatch runs the batch's trials on eng with cfg.
func runKernelBatch(p *kernelProblem, cfg core.Config, eng core.Simulator) ([]trialOut, error) {
	srcs := kernelSources(p.seed, p.size.batch)[1:]
	outs := make([]trialOut, len(srcs))
	for i, src := range srcs {
		t0 := time.Now()
		res, err := core.RunWithSimulator(p.col, cfg, src, eng)
		if err != nil {
			return nil, fmt.Errorf("kernel trial %d: %w", i, err)
		}
		outs[i] = trialOut{dur: time.Since(t0), steps: res.MeasuredTime, delivered: res.AllDelivered}
	}
	return outs, nil
}

// setupKernel builds the problem and warms a fresh engine with one trial.
func setupKernel(cfg runConfig) (*kernelProblem, *sim.Engine, error) {
	p, err := buildKernel(kernelSizeFor(cfg.smoke), inputSeed(cfg.seed))
	if err != nil {
		return nil, nil, err
	}
	eng := sim.NewEngine()
	src := kernelSources(p.seed, p.size.batch)[1]
	if _, err := core.RunWithSimulator(p.col, p.cfg, src, eng); err != nil {
		return nil, nil, err
	}
	return p, eng, nil
}

// checkKernelBatch counts the batch's trials and fails undelivered ones
// and a step total that differs from the recorded one (or, at smoke size,
// from the first batch).
func checkKernelBatch(r *report, p *kernelProblem, outs []trialOut, want int) int {
	steps := 0
	for i, o := range outs {
		r.attempted++
		steps += o.steps
		if !o.delivered {
			r.fail("kernel trial %d left worms undelivered", i)
		}
	}
	if want > 0 && steps != want {
		r.fail("kernel batch simulated %d steps, recorded %d for input seed %d", steps, want, p.seed)
	}
	return steps
}

// expectedKernelSteps is the recorded step total of one batch, or 0 at
// smoke size where nothing is recorded.
func expectedKernelSteps(cfg runConfig, seed uint64) int {
	if cfg.smoke {
		return 0
	}
	return expected.KernelSteps[fmt.Sprint(seed)]
}

// timedKernel is the kernel-sparse timed run: batches of trials on one
// reused engine until the measuring time is used up.
func timedKernel(cfg runConfig, r *report) error {
	var p *kernelProblem
	var eng *sim.Engine
	err := repeatSetup(r, func() error {
		p, eng = nil, nil // let the previous build be collected first
		var err error
		p, eng, err = setupKernel(cfg)
		return err
	})
	if err != nil {
		return err
	}
	want := expectedKernelSteps(cfg, p.seed)
	var batches, trials samples
	steps := 0
	start := time.Now()
	for another(start, cfg.seconds, batches) {
		t0 := time.Now()
		outs, err := runKernelBatch(p, p.cfg, eng)
		if err != nil {
			return err
		}
		batches.add(time.Since(t0))
		for _, o := range outs {
			trials.add(o.dur)
		}
		s := checkKernelBatch(r, p, outs, want)
		if want == 0 {
			want = s
		}
		steps += s
	}
	elapsed := time.Since(start).Seconds()
	r.set("run_s", median(batches), "s", len(batches))
	r.set("ops_per_s", float64(len(trials))/elapsed, "1/s", len(trials))
	r.set("op_p50_s", median(trials), "s", len(trials))
	r.set("cold_p50_s", median(trials), "s", len(trials))
	r.line("trials_per_s %.6g 1/s (n=%d)", float64(len(trials))/elapsed, len(trials))
	r.line("sim_steps_per_s %.6g 1/s (%d steps per batch of %d trials)", float64(steps)/elapsed, want, p.size.batch)
	return nil
}

// tracedKernel measures the kernel-sparse layers: the setup phases, then
// each trial of a batch three times back to back, so a drift in host
// speed falls on all three alike: untraced, with a span per protocol
// trial and per engine run, and with a telemetry Collector attached.
func tracedKernel(cfg runConfig, tr *tracer, r *report) (map[string]float64, error) {
	size := kernelSizeFor(cfg.smoke)
	seed := inputSeed(cfg.seed)
	sp := tr.begin("kernel.setup", "kernel", -1)
	p, err := buildKernel(size, seed)
	tr.end(sp)
	if err != nil {
		return nil, err
	}
	eng := sim.NewEngine()
	want := expectedKernelSteps(cfg, seed)
	warm, err := runKernelBatch(p, p.cfg, eng) // also warms the engine
	if err != nil {
		return nil, err
	}
	checkKernelBatch(r, p, warm, want)

	ts := &timedSim{eng: eng, tr: tr}
	col := telemetry.NewCollector()
	probed := p.cfg
	probed.Probe = col
	var plainT, tracedT, probeT, snapT, simT, selfT samples
	var traced []trialOut
	rounds, acked, active, snapBytes := 0, 0, 0, 0
	run := func(cfg core.Config, src *rng.Source, eng core.Simulator) (*core.Result, time.Duration, error) {
		t0 := time.Now()
		res, err := core.RunWithSimulator(p.col, cfg, src, eng)
		return res, time.Since(t0), err
	}
	plainSrcs := kernelSources(p.seed, p.size.batch)[1:]
	tracedSrcs := kernelSources(p.seed, p.size.batch)[1:]
	probedSrcs := kernelSources(p.seed, p.size.batch)[1:]
	for i := range plainSrcs {
		_, d, err := run(p.cfg, plainSrcs[i], eng)
		if err != nil {
			return nil, err
		}
		plainT.add(d)

		ts.id = fmt.Sprintf("kernel-trial-%d", i)
		ts.parent = tr.begin("core.trial", ts.id, -1)
		res, d, err := run(p.cfg, tracedSrcs[i], ts)
		tr.end(ts.parent)
		if err != nil {
			return nil, err
		}
		tracedT.add(d)
		children, self := childTime(tr, ts.parent)
		simT = append(simT, children)
		selfT = append(selfT, self)
		traced = append(traced, trialOut{dur: d, steps: res.MeasuredTime, delivered: res.AllDelivered})
		rounds += res.TotalRounds
		for _, rs := range res.Rounds {
			acked += rs.Acked
			active += rs.ActiveBefore
		}

		if _, d, err = run(probed, probedSrcs[i], eng); err != nil {
			return nil, err
		}
		probeT.add(d)
		t0 := time.Now()
		snap := col.Snapshot()
		snapT.add(time.Since(t0))
		b, err := canon.Marshal(snap)
		if err != nil {
			return nil, err
		}
		snapBytes = len(b)
		col.Reset()
	}
	checkKernelBatch(r, p, traced, want)

	n := float64(len(traced))
	c := ts.counts
	simBusy, coreBusy, coreSelf := sum(simT), sum(tracedT), sum(selfT)
	untraced := median(plainT)
	attributed := (simBusy + coreSelf) / n
	m := map[string]float64{
		"topology.build_s":         p.topoT.Seconds(),
		"paths.build_s":            p.pathsT.Seconds(),
		"paths.congestion_s":       p.congT.Seconds(),
		"sim.run_calls":            float64(c.calls),
		"sim.busy_s":               simBusy,
		"sim.worms":                float64(c.worms),
		"sim.steps":                float64(c.steps),
		"sim.ns_per_step":          simBusy * 1e9 / float64(max(c.steps, 1)),
		"sim.collisions":           float64(c.collisions),
		"sim.deliver_ratio":        float64(c.delivered) / float64(max(c.worms, 1)),
		"core.trials":              n,
		"core.rounds":              float64(rounds),
		"core.busy_s":              coreBusy,
		"core.self_s":              coreSelf,
		"core.ack_ratio":           float64(acked) / float64(max(active, 1)),
		"telemetry.probe_s":        median(probeT) - untraced,
		"telemetry.snapshot_s":     median(snapT),
		"telemetry.snapshot_bytes": float64(snapBytes),
		"trace.trial_overhead_s":   median(tracedT) - untraced,
		"trace.trial_coverage":     (simBusy + coreSelf) / sum(plainT),
	}
	if !cfg.smoke {
		r.line("where the time goes, kernel-sparse trial (mean of %d traced trials; untraced median %.4g s):", len(traced), untraced)
		r.line("  sim engine (sim.run spans)      %.4g s  %5.1f%%", simBusy/n, 100*simBusy/n/untraced)
		r.line("  core round loop (self time)     %.4g s  %5.1f%%", coreSelf/n, 100*coreSelf/n/untraced)
		r.line("  attributed                      %.4g s  %5.1f%% of the untraced trial", attributed, 100*attributed/untraced)
		r.line("  tracing overhead (traced - untraced median) %.4g s", median(tracedT)-untraced)
	}
	return m, nil
}
