package experiments

import (
	"fmt"

	"repro/internal/faults"
	"repro/internal/graph"
	"repro/internal/optical"
	"repro/internal/paths"
	"repro/internal/rng"
	"repro/internal/sim"
	"repro/internal/telemetry"
	"repro/internal/topology"
	"repro/internal/workload"
)

// The dynamic family runs the trial-and-failure discipline in continuous
// operation (the setting of Ramaswami & Sivarajan [34], which the paper
// cites as the other regime): open-loop request arrivals, each source
// retrying independently with exponential backoff. All traffic comes
// from internal/workload — seeded arrival processes materialized into
// replayable traces — so every table row is regenerable from a spec and
// shareable as a content-addressed optnetd job input.

// dynamicProtocol is the protocol configuration shared by the dynamic
// tables: the paper's L=4, B=2 operating point with acknowledgements.
const (
	dynL           = 4
	dynB           = 2
	dynMaxAttempts = 40
)

// runDynamicRow replays one trace against a routed network and folds the
// delivered latencies into a telemetry histogram. The returned snapshot
// feeds the percentile columns; fault kills count attempts destroyed by
// the optional compiled schedule.
func runDynamicRow(g *graph.Graph, sel paths.Selector, tr *workload.Trace, sched *faults.Schedule, src *rng.Source) (reqs []sim.Request, res *sim.DynamicResult, delivered int, snap telemetry.HistogramSnapshot, err error) {
	reqs = tr.Requests(sel, dynL)
	res, err = sim.NewEngine().RunDynamic(g, reqs, sim.DynamicConfig{
		Sim:         sim.Config{Bandwidth: dynB, Rule: optical.ServeFirst, AckLength: 1, Faults: sched},
		Retry:       sim.ExponentialBackoff{Base: 2 * dynL},
		MaxAttempts: dynMaxAttempts,
	}, src)
	if err != nil {
		return nil, nil, 0, telemetry.HistogramSnapshot{}, err
	}
	h := telemetry.NewHistogram(telemetry.ExpBuckets(1, 2, 22))
	for _, oc := range res.Outcomes {
		if oc.Delivered {
			delivered++
			h.Observe(oc.Latency)
		}
	}
	return reqs, res, delivered, h.Snapshot(), nil
}

// E15DynamicLoad sweeps offered load on a torus with Poisson arrivals:
// as the load approaches the network's capacity the latency and the
// attempt count blow up — the classic saturation knee. The traffic is a
// one-cohort internal/workload spec per load level, so each row's trace
// is reproducible and content-addressed.
func E15DynamicLoad(o Options) (*Table, error) {
	t := &Table{
		ID:    "E15",
		Title: "Dynamic operation: Poisson arrivals, independent retries with backoff",
		Notes: []string{
			"latency and attempts/request rise sharply at the saturation knee",
			"traffic generated by internal/workload (poisson cohort per load level)",
		},
		Columns: []string{"load(req/step)", "requests", "delivered", "attempts/req", "lat(mean)", "lat(p95)"},
	}
	side := 8
	horizon := 2000
	if o.Quick {
		side = 5
		horizon = 300
	}
	tor := topology.NewTorus(2, side)
	g := tor.Graph()
	for _, load := range []float64{0.05, 0.5, 2, 8, 32} {
		spec := workload.Spec{
			Nodes:   g.NumNodes(),
			Horizon: horizon,
			Seed:    o.Seed ^ 0x15,
			Cohorts: []workload.Cohort{{
				Name:     "poisson",
				Arrivals: workload.ArrivalSpec{Kind: workload.KindPoisson, Rate: load},
			}},
		}
		tr, err := spec.Generate()
		if err != nil {
			return nil, err
		}
		src := rng.New(o.Seed ^ 0x15)
		reqs, res, delivered, snap, err := runDynamicRow(g, g.ShortestPath, tr, nil, src)
		if err != nil {
			return nil, err
		}
		if len(reqs) == 0 {
			continue
		}
		t.AddRow(load, len(reqs),
			fmt.Sprintf("%d/%d", delivered, len(reqs)),
			float64(res.TotalAttempts)/float64(len(reqs)),
			snap.Mean(), snap.Quantile(0.95))
	}
	return t, nil
}

// W1Saturation is the workload-subsystem saturation table: offered load
// swept across two arrival processes (homogeneous Poisson and bursty
// on/off) on two topologies (torus with dimension-order routes,
// hypercube with bit-fixing routes), reporting delivered throughput and
// p50/p95/p99 ack latency estimated from telemetry histograms. A final
// row replays the torus Poisson trace at the middle load with link
// outages active across the middle half of the horizon — arrivals
// landing inside the fault window retry through it, and comparing the
// row against its fault-free twin shows what the outages cost in
// throughput and tail latency.
func W1Saturation(o Options) (*Table, error) {
	t := &Table{
		ID:    "W1",
		Title: "Workload saturation: arrival processes vs. topologies, latency tails",
		Notes: []string{
			"offered load is the cohort's mean rate (on/off duty cycle compensated)",
			"percentiles interpolated from exponential-bucket telemetry histograms",
			"outage rows replay the same poisson trace with LinkOutages over the middle half",
		},
		Columns: []string{
			"topology", "process", "load(req/step)", "requests", "delivered",
			"tput(req/step)", "lat(p50)", "lat(p95)", "lat(p99)", "fault-kills",
		},
	}
	torSide, hcubeDim, horizon := 8, 5, 1200
	loads := []float64{0.25, 1, 4}
	if o.Quick {
		torSide, hcubeDim, horizon = 4, 3, 200
		loads = []float64{0.25, 1}
	}
	tor := topology.NewTorus(2, torSide)
	hc := topology.NewHypercube(hcubeDim)
	topos := []struct {
		name string
		g    *graph.Graph
		sel  paths.Selector
	}{
		{fmt.Sprintf("torus-2x%d", torSide), tor.Graph(), paths.DimOrderTorus(tor)},
		{fmt.Sprintf("hcube-%d", hcubeDim), hc.Graph(), paths.BitFixing(hc)},
	}
	// Each process maps an offered load to a one-cohort arrival spec with
	// that mean rate: the on/off source emits at 4x during its 25% duty
	// cycle, so both processes offer the same long-run load.
	procs := []struct {
		name string
		spec func(load float64) workload.ArrivalSpec
	}{
		{"poisson", func(load float64) workload.ArrivalSpec {
			return workload.ArrivalSpec{Kind: workload.KindPoisson, Rate: load}
		}},
		{"onoff", func(load float64) workload.ArrivalSpec {
			return workload.ArrivalSpec{Kind: workload.KindOnOff, Rate: 4 * load, OnSteps: 16, OffSteps: 48}
		}},
	}
	addRow := func(topoName, procName string, load float64, g *graph.Graph, sel paths.Selector, tr *workload.Trace, sched *faults.Schedule, src *rng.Source) error {
		reqs, res, delivered, snap, err := runDynamicRow(g, sel, tr, sched, src)
		if err != nil {
			return err
		}
		t.AddRow(topoName, procName, load, len(reqs),
			fmt.Sprintf("%d/%d", delivered, len(reqs)),
			float64(delivered)/float64(horizon),
			snap.Quantile(0.5), snap.Quantile(0.95), snap.Quantile(0.99),
			res.FaultKills)
		return nil
	}
	trace := func(g *graph.Graph, a workload.ArrivalSpec, seed uint64) (*workload.Trace, error) {
		spec := workload.Spec{
			Nodes:   g.NumNodes(),
			Horizon: horizon,
			Seed:    seed,
			Cohorts: []workload.Cohort{{Name: "w1", Arrivals: a}},
		}
		return spec.Generate()
	}
	// w1Seed decorrelates the per-row workload seeds without depending on
	// row order, so adding a load level never reshuffles earlier traces.
	w1Seed := func(ti, pi, li int) uint64 {
		return uint64(ti+1)<<16 | uint64(pi+1)<<8 | uint64(li+1)
	}
	for ti, topo := range topos {
		for pi, proc := range procs {
			for li, load := range loads {
				seed := o.Seed ^ w1Seed(ti, pi, li)
				tr, err := trace(topo.g, proc.spec(load), seed)
				if err != nil {
					return nil, err
				}
				if err := addRow(topo.name, proc.name, load, topo.g, topo.sel, tr, nil, rng.New(seed^0xd1)); err != nil {
					return nil, err
				}
			}
		}
	}
	// Arrivals during fault windows: replay the torus Poisson trace at the
	// middle load (its fault-free twin is already in the sweep) with four
	// spread link outages dark across [horizon/4, 3*horizon/4).
	midLoad := loads[len(loads)/2]
	seed := o.Seed ^ w1Seed(0, 0, len(loads)/2)
	tr, err := trace(topos[0].g, procs[0].spec(midLoad), seed)
	if err != nil {
		return nil, err
	}
	plan := &faults.Plan{}
	nl := topos[0].g.NumLinks()
	for i := 0; i < 4; i++ {
		plan.Faults = append(plan.Faults, faults.Fault{
			Kind:  faults.LinkOutage,
			Link:  graph.LinkID(i * nl / 4),
			Start: horizon / 4,
			End:   3 * horizon / 4,
		})
	}
	sched, err := plan.Compile(topos[0].g, dynB)
	if err != nil {
		return nil, err
	}
	if err := addRow(topos[0].name, "poisson+outage", midLoad, topos[0].g, topos[0].sel, tr, sched, rng.New(seed^0xd1)); err != nil {
		return nil, err
	}
	return t, nil
}
