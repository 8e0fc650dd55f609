package sim

import (
	"fmt"
	"testing"

	"repro/internal/graph"
	"repro/internal/optical"
	"repro/internal/rng"
	"repro/internal/topology"
)

// compareEngines runs both simulators and asserts identical outcomes.
func compareEngines(t *testing.T, g *graph.Graph, worms []Worm, cfg Config, label string) {
	t.Helper()
	cfg.CheckInvariants = true
	fast, err := NewEngine().Run(g, worms, cfg)
	if err != nil {
		t.Fatalf("%s: engine: %v", label, err)
	}
	cfg.CheckInvariants = false
	ref, err := RunReference(g, worms, cfg)
	if err != nil {
		t.Fatalf("%s: reference: %v", label, err)
	}
	for i := range worms {
		a, b := fast.Outcomes[i], ref.Outcomes[i]
		if a.Delivered != b.Delivered || a.DeliveredAt != b.DeliveredAt {
			t.Fatalf("%s: worm %d delivery differs: engine %+v vs reference %+v\nworm: %+v",
				label, worms[i].ID, a, b, worms[i])
		}
		if a.Acked != b.Acked || a.AckedAt != b.AckedAt {
			t.Fatalf("%s: worm %d ack differs: engine %+v vs reference %+v",
				label, worms[i].ID, a, b)
		}
		if a.CutTime != b.CutTime || a.CutLink != b.CutLink {
			t.Fatalf("%s: worm %d cut differs: engine cut@(%d,%d) vs reference cut@(%d,%d)",
				label, worms[i].ID, a.CutLink, a.CutTime, b.CutLink, b.CutTime)
		}
	}
	if fast.DeliveredCount != ref.DeliveredCount || fast.AckedCount != ref.AckedCount {
		t.Fatalf("%s: counters differ: engine %d/%d vs reference %d/%d",
			label, fast.DeliveredCount, fast.AckedCount, ref.DeliveredCount, ref.AckedCount)
	}
}

// TestReferenceEquivalenceHandcrafted re-runs the handcrafted scenarios of
// sim_test.go through both engines.
func TestReferenceEquivalenceHandcrafted(t *testing.T) {
	g := chain(5)
	scenarios := []struct {
		name  string
		worms []Worm
		cfg   Config
	}{
		{"single", []Worm{
			{ID: 0, Path: graph.Path{0, 1, 2, 3, 4}, Length: 3, Delay: 2, Wavelength: 0},
		}, cfg(1)},
		{"entrant-loses", []Worm{
			{ID: 0, Path: graph.Path{0, 1, 2, 3}, Length: 2, Delay: 0, Wavelength: 0},
			{ID: 1, Path: graph.Path{0, 1, 2}, Length: 2, Delay: 1, Wavelength: 0},
		}, cfg(1)},
		{"separated", []Worm{
			{ID: 0, Path: graph.Path{0, 1, 2, 3}, Length: 2, Delay: 0, Wavelength: 0},
			{ID: 1, Path: graph.Path{0, 1, 2, 3}, Length: 2, Delay: 2, Wavelength: 0},
		}, cfg(1)},
	}
	for _, sc := range scenarios {
		compareEngines(t, g, sc.worms, sc.cfg, sc.name)
	}
}

// TestReferenceEquivalenceRandom fuzzes both engines across rules,
// policies, tie handling and ack models on several topologies.
func TestReferenceEquivalenceRandom(t *testing.T) {
	graphs := []*graph.Graph{
		topology.NewChain(8).Graph(),
		topology.NewTorus(2, 4).Graph(),
		topology.NewHypercube(3).Graph(),
		topology.NewButterfly(3).Graph(),
	}
	combos := []Config{
		{Bandwidth: 1, Rule: optical.ServeFirst, Wreckage: Drain},
		{Bandwidth: 1, Rule: optical.ServeFirst, Wreckage: Vanish},
		{Bandwidth: 2, Rule: optical.ServeFirst, Wreckage: Drain, Tie: optical.TieArbitraryWinner},
		{Bandwidth: 1, Rule: optical.Priority, Wreckage: Drain},
		{Bandwidth: 1, Rule: optical.Priority, Wreckage: Vanish},
		{Bandwidth: 2, Rule: optical.ServeFirst, Wreckage: Drain, AckLength: 1},
		{Bandwidth: 1, Rule: optical.Priority, Wreckage: Drain, AckLength: 2},
	}
	trials := 400
	if testing.Short() {
		trials = 60
	}
	for trial := 0; trial < trials; trial++ {
		src := rng.New(uint64(9000 + trial))
		g := graphs[trial%len(graphs)]
		cfg := combos[trial%len(combos)]
		worms := randomWorms(g, src, 2+src.Intn(10), 4, 6, cfg.Bandwidth)
		if len(worms) == 0 {
			continue
		}
		compareEngines(t, g, worms, cfg, fmt.Sprintf("trial %d", trial))
	}
}

// TestReferenceEquivalenceDense drives many worms through a tiny graph to
// maximize conflict interactions (multi-cut, ghost-on-ghost cases).
func TestReferenceEquivalenceDense(t *testing.T) {
	g := topology.NewRing(5).Graph()
	trials := 200
	if testing.Short() {
		trials = 40
	}
	for trial := 0; trial < trials; trial++ {
		src := rng.New(uint64(31000 + trial))
		var worms []Worm
		ranks := src.Perm(12)
		for id := 0; id < 12; id++ {
			s := src.Intn(5)
			steps := 1 + src.Intn(4)
			p := graph.Path{s}
			for i := 0; i < steps; i++ {
				p = append(p, (p[len(p)-1]+1)%5)
			}
			worms = append(worms, Worm{
				ID: id, Path: p, Length: 1 + src.Intn(5),
				Delay: src.Intn(4), Wavelength: 0, Rank: ranks[id],
			})
		}
		for _, rule := range []optical.Rule{optical.ServeFirst, optical.Priority} {
			for _, w := range []WreckagePolicy{Drain, Vanish} {
				compareEngines(t, g, worms, Config{
					Bandwidth: 1, Rule: rule, Wreckage: w, AckLength: trial % 2,
				}, fmt.Sprintf("dense %d %v %v", trial, rule, w))
			}
		}
	}
}

// TestReferenceValidation: the reference must reject the same bad input.
func TestReferenceValidation(t *testing.T) {
	g := chain(3)
	if _, err := RunReference(g, []Worm{{ID: 0, Path: graph.Path{0, 1}, Length: 1}}, Config{}); err == nil {
		t.Error("bandwidth 0 accepted")
	}
}

// BenchmarkEngineVsReference quantifies the fragment engine's speedup over
// the naive per-flit reference on a medium workload.
func BenchmarkEngine(b *testing.B) {
	tor := topology.NewTorus(2, 8)
	g := tor.Graph()
	src := rng.New(12)
	worms := randomWorms(g, src, 64, 6, 16, 2)
	cfg := Config{Bandwidth: 2, Rule: optical.ServeFirst, AckLength: 1}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := NewEngine().Run(g, worms, cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkReference is the same workload on the per-flit reference.
func BenchmarkReference(b *testing.B) {
	tor := topology.NewTorus(2, 8)
	g := tor.Graph()
	src := rng.New(12)
	worms := randomWorms(g, src, 64, 6, 16, 2)
	cfg := Config{Bandwidth: 2, Rule: optical.ServeFirst, AckLength: 1}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := RunReference(g, worms, cfg); err != nil {
			b.Fatal(err)
		}
	}
}
