package repro

// The benchmark harness: one benchmark per experiment of the paper
// reproduction (the tables of EXPERIMENTS.md), plus micro-benchmarks of
// the simulator and protocol kernels. Experiment benchmarks run the
// reduced (Quick) ladders so `go test -bench=.` completes in seconds; the
// full tables are produced by `go run ./cmd/experiments -all`.

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"testing"

	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/graph"
	"repro/internal/optical"
	"repro/internal/paths"
	"repro/internal/rng"
	"repro/internal/sim"
	"repro/internal/topology"
	"repro/optnet"
)

func benchExperiment(b *testing.B, id string) {
	b.Helper()
	for i := 0; i < b.N; i++ {
		tbl, err := experiments.Run(id, experiments.Options{Seed: 1, Quick: true, Trials: 2})
		if err != nil {
			b.Fatal(err)
		}
		tbl.Fprint(io.Discard)
	}
}

// One benchmark per experiment table (see DESIGN.md section 4).

func BenchmarkE1_LeveledUpperBound(b *testing.B)    { benchExperiment(b, "E1") }
func BenchmarkE2_StaggeredLowerBound(b *testing.B)  { benchExperiment(b, "E2") }
func BenchmarkE3_ShortcutFreeUpper(b *testing.B)    { benchExperiment(b, "E3") }
func BenchmarkE4_CyclicLowerBound(b *testing.B)     { benchExperiment(b, "E4") }
func BenchmarkE5_PriorityVsServeFirst(b *testing.B) { benchExperiment(b, "E5") }
func BenchmarkE6_CongestionDecay(b *testing.B)      { benchExperiment(b, "E6") }
func BenchmarkE7_NodeSymmetric(b *testing.B)        { benchExperiment(b, "E7") }
func BenchmarkE8_Meshes(b *testing.B)               { benchExperiment(b, "E8") }
func BenchmarkE9_ButterflyQ(b *testing.B)           { benchExperiment(b, "E9") }
func BenchmarkE10_Conversion(b *testing.B)          { benchExperiment(b, "E10") }
func BenchmarkE11_SparseConversion(b *testing.B)    { benchExperiment(b, "E11") }
func BenchmarkE12_MultiHop(b *testing.B)            { benchExperiment(b, "E12") }
func BenchmarkE13_RWAContrast(b *testing.B)         { benchExperiment(b, "E13") }
func BenchmarkE14_Lemma210(b *testing.B)            { benchExperiment(b, "E14") }
func BenchmarkE15_DynamicLoad(b *testing.B)         { benchExperiment(b, "E15") }
func BenchmarkE16_ElectronicBaseline(b *testing.B)  { benchExperiment(b, "E16") }
func BenchmarkE17_Adversarial(b *testing.B)         { benchExperiment(b, "E17") }
func BenchmarkA1_Schedules(b *testing.B)            { benchExperiment(b, "A1") }
func BenchmarkA2_Wreckage(b *testing.B)             { benchExperiment(b, "A2") }
func BenchmarkA3_Acks(b *testing.B)                 { benchExperiment(b, "A3") }
func BenchmarkA4_TiePolicy(b *testing.B)            { benchExperiment(b, "A4") }
func BenchmarkA5_Constants(b *testing.B)            { benchExperiment(b, "A5") }
func BenchmarkA6_WavelengthChoice(b *testing.B)     { benchExperiment(b, "A6") }
func BenchmarkA7_Synchronization(b *testing.B)      { benchExperiment(b, "A7") }
func BenchmarkF4_WitnessTrees(b *testing.B)         { benchExperiment(b, "F4") }
func BenchmarkF5_WitnessDepths(b *testing.B)        { benchExperiment(b, "F5") }
func BenchmarkS1_Scorecard(b *testing.B)            { benchExperiment(b, "S1") }

// Micro-benchmarks of the kernels.

// simRoundWorkload builds the standard kernel workload: 256 worms of a
// random permutation on a 16x16 torus, bandwidth 4 (the protocol's inner
// loop at its usual operating point).
func simRoundWorkload(tb testing.TB, side int) (*graph.Graph, []sim.Worm, sim.Config) {
	tor := topology.NewTorus(2, side)
	g := tor.Graph()
	src := rng.New(7)
	prs := paths.RandomPermutation(g.NumNodes(), src)
	col, err := paths.Build(g, prs, paths.DimOrderTorus(tor))
	if err != nil {
		tb.Fatal(err)
	}
	worms := make([]sim.Worm, col.Size())
	for i := range worms {
		worms[i] = sim.Worm{
			ID: i, Path: col.Path(i), Length: 8,
			Delay: src.Intn(64), Wavelength: src.Intn(4),
		}
	}
	return g, worms, sim.Config{Bandwidth: 4, Rule: optical.ServeFirst, AckLength: 1}
}

// steadyRounds times b.N rounds of one workload on a reused Engine,
// warmed by one untimed round so the timed loop sees the steady state.
func steadyRounds(b *testing.B, g *graph.Graph, worms []sim.Worm, cfg sim.Config) {
	eng := sim.NewEngine()
	if _, err := eng.Run(g, worms, cfg); err != nil { // warm the pools
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := eng.Run(g, worms, cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkEngineSteadyState measures the same round on a reused Engine —
// the protocol's steady state, where buffers are warm and the hot path
// should allocate nothing. The probe=off variant is the baseline (and must
// stay at 0 allocs/op, see TestSteadyStateAllocFree); probe=on runs the
// same workload with a warmed telemetry Collector attached, bounding the
// full observability overhead. Compare against BenchmarkEngineFresh with
//
//	go test -bench BenchmarkEngine -benchmem .
func BenchmarkEngineSteadyState(b *testing.B) {
	for _, side := range []int{16, 24} {
		for _, probe := range []string{"off", "on"} {
			name := fmt.Sprintf("torus_side=%d/worms=%d/probe=%s", side, side*side, probe)
			b.Run(name, func(b *testing.B) {
				g, worms, cfg := simRoundWorkload(b, side)
				if probe == "on" {
					cfg.Probe = optnet.NewCollector()
				}
				steadyRounds(b, g, worms, cfg)
			})
		}
	}
}

// TestSteadyStateAllocFree pins the zero-overhead contract of the probe
// and fault seams: a warm engine with no probe attached performs zero
// allocations per round, attaching a warmed Collector keeps it that way
// (the enabled path only adds counter arithmetic), and so does attaching
// a compiled empty fault plan (the fault path is one nil branch).
func TestSteadyStateAllocFree(t *testing.T) {
	for _, tc := range []struct {
		name   string
		probe  *optnet.Collector
		faults bool
	}{
		{"probe=off", nil, false},
		{"probe=on", optnet.NewCollector(), false},
		{"faults=empty", nil, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			g, worms, cfg := simRoundWorkload(t, 8)
			if tc.probe != nil {
				cfg.Probe = tc.probe
			}
			if tc.faults {
				cfg.Faults = (&optnet.FaultPlan{}).MustCompile(g, cfg.Bandwidth)
			}
			eng := sim.NewEngine()
			if _, err := eng.Run(g, worms, cfg); err != nil {
				t.Fatal(err)
			}
			avg := testing.AllocsPerRun(10, func() {
				if _, err := eng.Run(g, worms, cfg); err != nil {
					t.Fatal(err)
				}
			})
			if avg != 0 {
				t.Errorf("steady-state round allocates %v allocs/op, want 0", avg)
			}
		})
	}
}

// sparseWorkload builds the large sparse kernel workload: `worms` random
// dimension-order routes on a side x side torus. Worm count is
// deliberately far below the node count so the active set, not the
// occupancy tables, is the hot state.
func sparseWorkload(tb testing.TB, side, worms int) (*graph.Graph, []sim.Worm, sim.Config) {
	tb.Helper()
	tor := topology.NewTorus(2, side)
	g := tor.Graph()
	sel := paths.DimOrderTorus(tor)
	src := rng.New(29)
	n := g.NumNodes()
	ws := make([]sim.Worm, 0, worms)
	for id := 0; len(ws) < worms; id++ {
		s, d := src.Intn(n), src.Intn(n)
		if s == d {
			continue
		}
		ws = append(ws, sim.Worm{
			ID: len(ws), Path: sel(s, d), Length: 8,
			Delay: src.Intn(256), Wavelength: src.Intn(4),
		})
	}
	return g, ws, sim.Config{Bandwidth: 4, Rule: optical.ServeFirst, AckLength: 1}
}

// BenchmarkEngineSparse measures one round of 2048 worms on a 512x512
// torus on a reused Engine: a network far larger than its traffic, the
// case where a step should cost what the active worms cost, not what the
// network's size costs.
func BenchmarkEngineSparse(b *testing.B) {
	g, worms, cfg := sparseWorkload(b, 512, 2048)
	steadyRounds(b, g, worms, cfg)
}

// BenchmarkEngineFresh measures the same round with a cold Engine per
// iteration, isolating the cost of first-run buffer growth.
func BenchmarkEngineFresh(b *testing.B) {
	g, worms, cfg := simRoundWorkload(b, 16)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := sim.NewEngine().Run(g, worms, cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// TestEmitBenchTrajectory writes BENCH_sim.json with the simulator kernel
// numbers across a ladder of torus sizes. Gated on an env var so plain
// `go test` stays fast; emit with
//
//	BENCH_SIM_JSON=BENCH_sim.json go test -run TestEmitBenchTrajectory .
func TestEmitBenchTrajectory(t *testing.T) {
	path := os.Getenv("BENCH_SIM_JSON")
	if path == "" {
		t.Skip("set BENCH_SIM_JSON=<file> to emit the benchmark trajectory")
	}
	type point struct {
		Bench     string `json:"bench"`
		TorusSide int    `json:"torus_side"`
		Worms     int    `json:"worms"`
		NsPerOp   int64  `json:"ns_per_op"`
		AllocsOp  int64  `json:"allocs_per_op"`
		BytesOp   int64  `json:"bytes_per_op"`
	}
	var points []point
	for _, side := range []int{8, 16, 24} {
		for _, mode := range []string{"steady", "fresh", "steady-probe"} {
			side, mode := side, mode
			r := testing.Benchmark(func(b *testing.B) {
				g, worms, cfg := simRoundWorkload(b, side)
				if mode == "steady-probe" {
					cfg.Probe = optnet.NewCollector()
				}
				if mode != "fresh" {
					steadyRounds(b, g, worms, cfg)
					return
				}
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					if _, err := sim.NewEngine().Run(g, worms, cfg); err != nil {
						b.Fatal(err)
					}
				}
			})
			points = append(points, point{
				Bench:     "BenchmarkEngine/" + mode,
				TorusSide: side,
				Worms:     side * side,
				NsPerOp:   r.NsPerOp(),
				AllocsOp:  r.AllocsPerOp(),
				BytesOp:   r.AllocedBytesPerOp(),
			})
		}
	}
	r := testing.Benchmark(BenchmarkEngineSparse)
	points = append(points, point{
		Bench:     "BenchmarkEngineSparse",
		TorusSide: 512,
		Worms:     2048,
		NsPerOp:   r.NsPerOp(),
		AllocsOp:  r.AllocsPerOp(),
		BytesOp:   r.AllocedBytesPerOp(),
	})
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	enc := json.NewEncoder(f)
	enc.SetIndent("", "  ")
	if err := enc.Encode(points); err != nil {
		t.Fatal(err)
	}
	t.Logf("wrote %d points to %s", len(points), path)
}

// TestBenchRegressionGuard re-measures the steady-state kernel points of
// the checked-in BENCH_sim.json baseline and fails if any regresses more
// than its ns/op slack, or allocates when the baseline did not: 15% for
// the 16x16 and 24x24 rounds, 25% for the sparse 512x512 round, whose
// working set spills the shared cache and so wobbles more from run to
// run. It then re-measures the serving hot paths against
// BENCH_serve.json with a looser 50% slack (they are store-I/O and JSON
// bound, so they wobble more than the pure kernel), and the distributed
// hot paths against BENCH_cluster.json with the loosest slack of all
// (real HTTP, thief timing). Each point takes the best of three runs to
// damp scheduler noise. Gated on an env var so plain `go test` stays
// fast; run with
//
//	BENCH_GUARD=1 go test -run TestBenchRegressionGuard .
func TestBenchRegressionGuard(t *testing.T) {
	if os.Getenv("BENCH_GUARD") == "" {
		t.Skip("set BENCH_GUARD=1 to run the benchmark regression guard")
	}
	data, err := os.ReadFile("BENCH_sim.json")
	if err != nil {
		t.Fatalf("reading baseline: %v", err)
	}
	var points []struct {
		Bench     string `json:"bench"`
		TorusSide int    `json:"torus_side"`
		Worms     int    `json:"worms"`
		NsPerOp   int64  `json:"ns_per_op"`
		AllocsOp  int64  `json:"allocs_per_op"`
	}
	if err := json.Unmarshal(data, &points); err != nil {
		t.Fatalf("parsing baseline: %v", err)
	}
	for _, p := range points {
		var fn func(*testing.B)
		var slackPct int64
		switch p.Bench {
		case "BenchmarkEngine/steady":
			side := p.TorusSide
			fn = func(b *testing.B) {
				g, worms, cfg := simRoundWorkload(b, side)
				steadyRounds(b, g, worms, cfg)
			}
			slackPct = 15
		case "BenchmarkEngineSparse":
			fn, slackPct = BenchmarkEngineSparse, 25
		default:
			continue // fresh and probe modes are informational, not contracts
		}
		bestNs, bestAllocs := bestOfThree(fn)
		limit := p.NsPerOp * (100 + slackPct) / 100
		t.Logf("%s torus_side=%d: %d ns/op (baseline %d, limit %d)", p.Bench, p.TorusSide, bestNs, p.NsPerOp, limit)
		if bestNs > limit {
			t.Errorf("%s torus_side=%d regressed: %d ns/op exceeds baseline %d by more than %d%%",
				p.Bench, p.TorusSide, bestNs, p.NsPerOp, slackPct)
		}
		if bestAllocs > p.AllocsOp {
			t.Errorf("%s torus_side=%d allocates %d allocs/op, baseline %d", p.Bench, p.TorusSide, bestAllocs, p.AllocsOp)
		}
	}

	// Serving hot paths: wider ns slack (store I/O, JSON), and allocs may
	// drift a little with encoding details — guard at +10%.
	serveData, err := os.ReadFile("BENCH_serve.json")
	if err != nil {
		t.Fatalf("reading serving baseline: %v", err)
	}
	var servePoints []struct {
		Bench    string `json:"bench"`
		NsPerOp  int64  `json:"ns_per_op"`
		AllocsOp int64  `json:"allocs_per_op"`
	}
	if err := json.Unmarshal(serveData, &servePoints); err != nil {
		t.Fatalf("parsing serving baseline: %v", err)
	}
	serveBenches := map[string]func(*testing.B){
		"BenchmarkServeCacheHit":      BenchmarkServeCacheHit,
		"BenchmarkServeSubmit":        BenchmarkServeSubmit,
		"BenchmarkServeDynamicSubmit": BenchmarkServeDynamicSubmit,
	}
	const serveSlackPct, serveAllocSlackPct = 50, 10
	for _, p := range servePoints {
		fn, ok := serveBenches[p.Bench]
		if !ok {
			t.Errorf("serving baseline names unknown benchmark %q", p.Bench)
			continue
		}
		bestNs, bestAllocs := bestOfThree(fn)
		limit := p.NsPerOp * (100 + serveSlackPct) / 100
		t.Logf("%s: %d ns/op (baseline %d, limit %d), %d allocs/op (baseline %d)",
			p.Bench, bestNs, p.NsPerOp, limit, bestAllocs, p.AllocsOp)
		if bestNs > limit {
			t.Errorf("%s regressed: %d ns/op exceeds baseline %d by more than %d%%",
				p.Bench, bestNs, p.NsPerOp, serveSlackPct)
		}
		if allocLimit := p.AllocsOp * (100 + serveAllocSlackPct) / 100; bestAllocs > allocLimit {
			t.Errorf("%s allocates %d allocs/op, baseline %d (+%d%% limit %d)",
				p.Bench, bestAllocs, p.AllocsOp, serveAllocSlackPct, allocLimit)
		}
	}

	// Distributed hot paths: the widest slack of all (+75% ns, +25%
	// allocs) — these cross real HTTP connections, thief poll timing, and
	// the replication queue, so they wobble far more than anything
	// in-process.
	clusterData, err := os.ReadFile("BENCH_cluster.json")
	if err != nil {
		t.Fatalf("reading cluster baseline: %v", err)
	}
	var clusterPoints []struct {
		Bench    string `json:"bench"`
		NsPerOp  int64  `json:"ns_per_op"`
		AllocsOp int64  `json:"allocs_per_op"`
	}
	if err := json.Unmarshal(clusterData, &clusterPoints); err != nil {
		t.Fatalf("parsing cluster baseline: %v", err)
	}
	clusterBenches := map[string]func(*testing.B){
		"BenchmarkForwardedSubmit":        BenchmarkForwardedSubmit,
		"BenchmarkClusterStealThroughput": BenchmarkClusterStealThroughput,
	}
	const clusterSlackPct, clusterAllocSlackPct = 75, 25
	for _, p := range clusterPoints {
		fn, ok := clusterBenches[p.Bench]
		if !ok {
			t.Errorf("cluster baseline names unknown benchmark %q", p.Bench)
			continue
		}
		bestNs, bestAllocs := bestOfThree(fn)
		limit := p.NsPerOp * (100 + clusterSlackPct) / 100
		t.Logf("%s: %d ns/op (baseline %d, limit %d), %d allocs/op (baseline %d)",
			p.Bench, bestNs, p.NsPerOp, limit, bestAllocs, p.AllocsOp)
		if bestNs > limit {
			t.Errorf("%s regressed: %d ns/op exceeds baseline %d by more than %d%%",
				p.Bench, bestNs, p.NsPerOp, clusterSlackPct)
		}
		if allocLimit := p.AllocsOp * (100 + clusterAllocSlackPct) / 100; bestAllocs > allocLimit {
			t.Errorf("%s allocates %d allocs/op, baseline %d (+%d%% limit %d)",
				p.Bench, bestAllocs, p.AllocsOp, clusterAllocSlackPct, allocLimit)
		}
	}
}

// bestOfThree runs a benchmark three times and returns its lowest ns/op
// and lowest allocs/op.
func bestOfThree(fn func(*testing.B)) (ns, allocs int64) {
	ns, allocs = math.MaxInt64, math.MaxInt64
	for run := 0; run < 3; run++ {
		r := testing.Benchmark(fn)
		ns, allocs = min(ns, r.NsPerOp()), min(allocs, r.AllocsPerOp())
	}
	return ns, allocs
}

// BenchmarkProtocolTorus measures a complete protocol run end to end.
func BenchmarkProtocolTorus(b *testing.B) {
	net := optnet.Torus(2, 16)
	wl := optnet.Permutation(net, 3)
	col, err := optnet.BuildCollection(net, wl)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := optnet.RouteCollection(col, optnet.Params{
			Bandwidth: 4, WormLength: 8, Seed: uint64(i), AckLength: 1,
		})
		if err != nil {
			b.Fatal(err)
		}
		if !res.AllDelivered {
			b.Fatal("incomplete")
		}
	}
}

// BenchmarkPathSelection measures dimension-order selection throughput.
func BenchmarkPathSelection(b *testing.B) {
	tor := topology.NewTorus(2, 32)
	sel := paths.DimOrderTorus(tor)
	n := tor.Graph().NumNodes()
	src := rng.New(5)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s, d := src.Intn(n), src.Intn(n)
		if s != d {
			_ = sel(s, d)
		}
	}
}

// BenchmarkPathCongestion measures the C-tilde computation.
func BenchmarkPathCongestion(b *testing.B) {
	tor := topology.NewTorus(2, 16)
	src := rng.New(9)
	prs := paths.RandomFunction(tor.Graph().NumNodes(), src)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		col, err := paths.Build(tor.Graph(), prs, paths.DimOrderTorus(tor))
		if err != nil {
			b.Fatal(err)
		}
		_ = col.PathCongestion()
	}
}

// BenchmarkShortcutFreeCheck measures the exact classification predicate.
func BenchmarkShortcutFreeCheck(b *testing.B) {
	tor := topology.NewTorus(2, 8)
	src := rng.New(11)
	prs := paths.RandomPermutation(tor.Graph().NumNodes(), src)
	col, err := paths.Build(tor.Graph(), prs, paths.DimOrderTorus(tor))
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if !col.IsShortCutFree() {
			b.Fatal("unexpected shortcut")
		}
	}
}

// BenchmarkHalvingSchedule measures the delay-schedule computation.
func BenchmarkHalvingSchedule(b *testing.B) {
	p := core.Params{N: 4096, Dilation: 32, PathCongestion: 512, Length: 8, Bandwidth: 4}
	s := core.HalvingSchedule{}
	for i := 0; i < b.N; i++ {
		_ = s.Range(1+i%16, p)
	}
}
