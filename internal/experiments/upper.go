package experiments

import (
	"math"

	"repro/internal/core"
	"repro/internal/optical"
	"repro/internal/paths"
	"repro/internal/rng"
	"repro/internal/topology"
)

// E1LeveledUpper reproduces Main Theorem 1.1's upper bound: routing random
// q-functions along the leveled unique paths of butterflies with
// serve-first routers. The measured time divided by the theorem's bound
// L*C/B + (sqrt(log_a n)+loglog_b n)(D+L+L log n/B) should stay roughly
// constant across the size ladder.
func E1LeveledUpper(o Options) (*Table, error) {
	t := &Table{
		ID:    "E1",
		Title: "Main Thm 1.1 upper bound (leveled, serve-first): butterfly random q-functions",
		Notes: []string{
			"bound = L*C/B + (sqrt(log_a n)+loglog_b n)*(D+L+L*log n/B); time/bound should be ~flat",
		},
		Columns: []string{"k", "n", "D", "C~", "rounds", "Tbound", "time", "bound", "time/bound", "ok"},
	}
	ks := []int{4, 5, 6, 7, 8, 9, 10}
	if o.Quick {
		ks = []int{3, 4}
	}
	src := rng.New(o.Seed ^ 0xE1)
	const q, L, B = 2, 4, 2
	for _, k := range ks {
		b := topology.NewButterfly(k)
		prs := paths.ButterflyRandomQFunction(b, q, src.Split())
		c, err := paths.Build(b.Graph(), prs, paths.ButterflySelector(b))
		if err != nil {
			return nil, err
		}
		ts, err := runTrials(c, core.Config{
			Bandwidth: B, Length: L, Rule: optical.ServeFirst, AckLength: 1,
		}, o.trials(5), src)
		if err != nil {
			return nil, err
		}
		p := ts.Params
		t.AddRow(k, p.N, p.Dilation, p.PathCongestion,
			ts.meanRounds(), roundBound11(p), ts.meanTime(), timeBound11(p),
			ts.meanTime()/timeBound11(p), ts.completedStr())
	}
	return t, nil
}

// E3ShortcutFreeUpper reproduces Main Theorem 1.2's upper bound: routing
// random functions along dimension-order torus paths (short-cut free, not
// leveled) with serve-first routers.
func E3ShortcutFreeUpper(o Options) (*Table, error) {
	t := &Table{
		ID:    "E3",
		Title: "Main Thm 1.2 upper bound (short-cut free, serve-first): torus random functions",
		Notes: []string{
			"bound = L*C/B + (log_a n+loglog_b n)*(D+L+L*log^1.5 n/B)",
		},
		Columns: []string{"side", "n", "D", "C~", "rounds", "Tbound", "time", "bound", "time/bound", "ok"},
	}
	sides := []int{6, 8, 12, 16, 24, 32}
	if o.Quick {
		sides = []int{5, 6}
	}
	src := rng.New(o.Seed ^ 0xE3)
	const L, B = 4, 2
	for _, side := range sides {
		tor := topology.NewTorus(2, side)
		prs := paths.RandomFunction(tor.Graph().NumNodes(), src.Split())
		c, err := paths.Build(tor.Graph(), prs, paths.DimOrderTorus(tor))
		if err != nil {
			return nil, err
		}
		ts, err := runTrials(c, core.Config{
			Bandwidth: B, Length: L, Rule: optical.ServeFirst, AckLength: 1,
		}, o.trials(5), src)
		if err != nil {
			return nil, err
		}
		p := ts.Params
		t.AddRow(side, p.N, p.Dilation, p.PathCongestion,
			ts.meanRounds(), roundBound12(p), ts.meanTime(), timeBound12(p),
			ts.meanTime()/timeBound12(p), ts.completedStr())
	}
	return t, nil
}

// E7NodeSymmetric reproduces Theorem 1.5: routing a random function on
// bounded-degree node-symmetric networks with priority routers over a
// translation-invariant shortest-path system. The path congestion should
// be O(D^2 + log n) and the time O(L*D^2/B + (sqrt(log_D n)+loglog n)(D+L)).
func E7NodeSymmetric(o Options) (*Table, error) {
	t := &Table{
		ID:    "E7",
		Title: "Thm 1.5 (node-symmetric, priority): random functions on translation path systems",
		Notes: []string{
			"check C~ = O(D^2 + log n) and time = O(L*D^2/B + (sqrt(log_D n)+loglog n)*(D+L))",
		},
		Columns: []string{"network", "n", "D", "C~", "D^2+logn", "rounds", "Tpred", "time", "bound", "time/bound", "ok"},
	}
	type spec struct {
		name string
		vt   topology.VertexTransitive
	}
	var specs []spec
	if o.Quick {
		specs = []spec{
			{"torus(2,5)", topology.NewTorus(2, 5)},
			{"hypercube(4)", topology.NewHypercube(4)},
		}
	} else {
		specs = []spec{
			{"torus(2,8)", topology.NewTorus(2, 8)},
			{"torus(2,12)", topology.NewTorus(2, 12)},
			{"torus(3,6)", topology.NewTorus(3, 6)},
			{"hypercube(7)", topology.NewHypercube(7)},
			{"circulant(128,{1,8,27})", topology.NewCirculant(128, []int{1, 8, 27})},
			{"wrapped-butterfly(4)", topology.NewWrappedButterfly(4)},
			{"ccc(5)", topology.NewCCC(5)},
			{"star-graph(5)", topology.NewStarGraph(5)},
		}
	}
	src := rng.New(o.Seed ^ 0xE7)
	const L, B = 4, 2
	for _, sp := range specs {
		g := sp.vt.Graph()
		prs := paths.RandomFunction(g.NumNodes(), src.Split())
		sel := paths.TranslationSystem(sp.vt)
		c, err := paths.Build(g, prs, sel)
		if err != nil {
			return nil, err
		}
		ts, err := runTrials(c, core.Config{
			Bandwidth: B, Length: L, Rule: optical.Priority,
			Priorities: core.RandomRanks{}, AckLength: 1,
		}, o.trials(5), src)
		if err != nil {
			return nil, err
		}
		p := ts.Params
		diam := g.Eccentricity(0) // = diameter for vertex-transitive graphs
		d2 := float64(diam*diam) + log2(float64(g.NumNodes()))
		tpred := math.Sqrt(logBase(float64(max(diam, 2)), float64(p.N))) +
			math.Log2(math.Max(log2(float64(p.N)), 2))
		bound := float64(L)*float64(diam*diam)/float64(B) +
			tpred*float64(diam+L)
		t.AddRow(sp.name, g.NumNodes(), diam, p.PathCongestion, d2,
			ts.meanRounds(), tpred, ts.meanTime(), bound,
			ts.meanTime()/math.Max(bound, 1), ts.completedStr())
	}
	return t, nil
}

// E8Meshes reproduces Theorem 1.6: random functions on d-dimensional
// meshes with serve-first routers and dimension-order paths. The round
// count should stay O(sqrt(d) + loglog n) — in particular essentially flat
// in n for fixed d (the paper's exponential improvement over the O(log n)
// rounds of Cypher et al.).
func E8Meshes(o Options) (*Table, error) {
	t := &Table{
		ID:    "E8",
		Title: "Thm 1.6 (meshes, serve-first): random functions, dimension-order paths",
		Notes: []string{
			"rounds should track sqrt(d)+loglog n: near-flat growth in n for fixed d",
		},
		Columns: []string{"d", "side", "n", "D", "C~", "rounds", "sqrt(d)+loglog n", "time", "ok"},
	}
	type cfg struct{ d, side int }
	var cfgs []cfg
	if o.Quick {
		cfgs = []cfg{{1, 16}, {2, 5}}
	} else {
		cfgs = []cfg{
			{1, 32}, {1, 128}, {1, 512}, {1, 2048},
			{2, 8}, {2, 16}, {2, 24}, {2, 32},
			{3, 6}, {3, 8},
		}
	}
	src := rng.New(o.Seed ^ 0xE8)
	const L, B = 4, 2
	for _, cf := range cfgs {
		m := topology.NewMesh(cf.d, cf.side)
		n := m.Graph().NumNodes()
		prs := paths.RandomFunction(n, src.Split())
		c, err := paths.Build(m.Graph(), prs, paths.DimOrderMesh(m))
		if err != nil {
			return nil, err
		}
		ts, err := runTrials(c, core.Config{
			Bandwidth: B, Length: L, Rule: optical.ServeFirst, AckLength: 1,
		}, o.trials(5), src)
		if err != nil {
			return nil, err
		}
		p := ts.Params
		pred := math.Sqrt(float64(cf.d)) + math.Log2(math.Max(log2(float64(n)), 2))
		t.AddRow(cf.d, cf.side, n, p.Dilation, p.PathCongestion,
			ts.meanRounds(), pred, ts.meanTime(), ts.completedStr())
	}
	return t, nil
}

// E9ButterflyQ reproduces Theorem 1.7: random q-functions from the inputs
// to the outputs of a butterfly for growing q. The L*q*log n/B term makes
// total time grow ~linearly in q, while the round count shrinks like
// sqrt(log n / log(q log n)).
func E9ButterflyQ(o Options) (*Table, error) {
	t := &Table{
		ID:    "E9",
		Title: "Thm 1.7 (butterfly, serve-first): random q-functions, q ladder",
		Notes: []string{
			"bound = L*q*log n/B + sqrt(log n/log(q log n))*(L + log n + L*log n/B)",
		},
		Columns: []string{"q", "n", "D", "C~", "rounds", "Tpred", "time", "bound", "time/bound", "ok"},
	}
	k := 7
	qs := []int{1, 2, 4, 8}
	if o.Quick {
		k = 4
		qs = []int{1, 2}
	}
	src := rng.New(o.Seed ^ 0xE9)
	const L, B = 4, 2
	b := topology.NewButterfly(k)
	for _, q := range qs {
		prs := paths.ButterflyRandomQFunction(b, q, src.Split())
		c, err := paths.Build(b.Graph(), prs, paths.ButterflySelector(b))
		if err != nil {
			return nil, err
		}
		ts, err := runTrials(c, core.Config{
			Bandwidth: B, Length: L, Rule: optical.ServeFirst, AckLength: 1,
		}, o.trials(5), src)
		if err != nil {
			return nil, err
		}
		p := ts.Params
		logn := float64(k) // the theorem's log n is the butterfly dimension
		tpred := math.Sqrt(logn / math.Max(math.Log2(float64(q)*logn), 1))
		bound := float64(L*q)*logn/float64(B) +
			tpred*(float64(L)+logn+float64(L)*logn/float64(B))
		t.AddRow(q, p.N, p.Dilation, p.PathCongestion,
			ts.meanRounds(), tpred, ts.meanTime(), bound,
			ts.meanTime()/math.Max(bound, 1), ts.completedStr())
	}
	return t, nil
}
