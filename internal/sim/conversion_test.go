package sim

import (
	"fmt"
	"testing"

	"repro/internal/graph"
	"repro/internal/optical"
	"repro/internal/rng"
	"repro/internal/topology"
)

// TestConversionSavesEntrant: with conversion at every router, a worm
// that would lose a serve-first conflict shifts to a free wavelength and
// is delivered.
func TestConversionSavesEntrant(t *testing.T) {
	g := chain(4)
	worms := []Worm{
		{Route: route(g, graph.Path{0, 1, 2, 3}), Length: 3, Delay: 0, Wavelength: 0},
		{Route: route(g, graph.Path{0, 1, 2}), Length: 3, Delay: 1, Wavelength: 0},
	}
	// Without conversion worm 1 is eliminated entering link 0 at step 1.
	noConv := mustRun(t, g, worms, cfg(2))
	if noConv.Outcomes[1].Delivered {
		t.Fatal("baseline: worm 1 should lose without conversion")
	}
	// With conversion it shifts to wavelength 1 and completes.
	c := cfg(2)
	c.Conversion = FullConversion
	conv := mustRun(t, g, worms, c)
	if !conv.Outcomes[0].Delivered || !conv.Outcomes[1].Delivered {
		t.Fatalf("conversion: outcomes %+v", conv.Outcomes)
	}
	if conv.CollisionCount != 0 {
		t.Errorf("conversion resolved the conflict; collisions = %d", conv.CollisionCount)
	}
}

// TestConversionExhaustedStillCut: when every wavelength is busy, the
// entrant is cut even with conversion.
func TestConversionExhaustedStillCut(t *testing.T) {
	g := chain(4)
	worms := []Worm{
		{Route: route(g, graph.Path{0, 1, 2, 3}), Length: 4, Delay: 0, Wavelength: 0},
		{Route: route(g, graph.Path{0, 1, 2, 3}), Length: 4, Delay: 0, Wavelength: 1},
		{Route: route(g, graph.Path{0, 1, 2}), Length: 2, Delay: 1, Wavelength: 0},
	}
	c := cfg(2)
	c.Conversion = FullConversion
	res := mustRun(t, g, worms, c)
	if res.Outcomes[2].Delivered {
		t.Fatal("worm 2 must be cut: both wavelengths busy on link 0")
	}
	if !res.Outcomes[0].Delivered || !res.Outcomes[1].Delivered {
		t.Fatal("incumbents must survive")
	}
}

// TestPartialConversion: conversion only at selected routers.
func TestPartialConversion(t *testing.T) {
	g := chain(5)
	worms := []Worm{
		{Route: route(g, graph.Path{0, 1, 2, 3, 4}), Length: 6, Delay: 0, Wavelength: 0},
		// Enters link 2->3 (from router 2) at step 3, while worm 0 holds
		// it during [2, 7].
		{Route: route(g, graph.Path{2, 3, 4}), Length: 2, Delay: 3, Wavelength: 0},
	}
	c := cfg(2)
	c.Conversion = func(u graph.NodeID) bool { return u != 2 } // not at router 2
	res := mustRun(t, g, worms, c)
	if res.Outcomes[1].Delivered {
		t.Fatal("router 2 cannot convert; worm 1 must be cut")
	}
	c.Conversion = func(u graph.NodeID) bool { return u == 2 } // only router 2
	res = mustRun(t, g, worms, c)
	if !res.Outcomes[1].Delivered {
		t.Fatal("router 2 converts; worm 1 must be delivered")
	}
}

// TestConversionCarriesDownstream: after converting at link i the worm
// keeps the new wavelength on later links (no conversion back).
func TestConversionCarriesDownstream(t *testing.T) {
	g := chain(5)
	worms := []Worm{
		// Blocker on wavelength 0 at link 0 only.
		{Route: route(g, graph.Path{0, 1}), Length: 4, Delay: 0, Wavelength: 0},
		// Converts to wavelength 1 at link 0, then must conflict with a
		// wavelength-1 incumbent downstream.
		{Route: route(g, graph.Path{0, 1, 2, 3, 4}), Length: 2, Delay: 1, Wavelength: 0},
		// Wavelength-1 incumbent on link 2->3 during [2, 7]: worm 1
		// arrives there at step 4 on its converted wavelength... and
		// converts again to wavelength 0 (free there), surviving.
		{Route: route(g, graph.Path{2, 3}), Length: 6, Delay: 2, Wavelength: 1},
	}
	c := cfg(2)
	c.Conversion = FullConversion
	c.RecordCollisions = true
	res := mustRun(t, g, worms, c)
	if !res.Outcomes[1].Delivered {
		t.Fatalf("worm 1 should convert twice and be delivered: %+v", res.Outcomes[1])
	}
	// Now forbid conversion at router 2: the second conflict kills it.
	c.Conversion = func(u graph.NodeID) bool { return u == 0 }
	res = mustRun(t, g, worms, c)
	if res.Outcomes[1].Delivered {
		t.Fatal("worm 1 must be cut at link 2->3 when router 2 cannot convert")
	}
	if res.Outcomes[1].CutLink != 2 {
		t.Errorf("cut at link %d, want 2", res.Outcomes[1].CutLink)
	}
}

// TestConversionBandwidthOneNoEffect: with B=1 there is nothing to
// convert to.
func TestConversionBandwidthOneNoEffect(t *testing.T) {
	g := chain(4)
	worms := []Worm{
		{Route: route(g, graph.Path{0, 1, 2, 3}), Length: 3, Delay: 0, Wavelength: 0},
		{Route: route(g, graph.Path{0, 1, 2}), Length: 3, Delay: 1, Wavelength: 0},
	}
	c := cfg(1)
	c.Conversion = FullConversion
	res := mustRun(t, g, worms, c)
	if res.Outcomes[1].Delivered {
		t.Fatal("B=1: conversion cannot help")
	}
}

// TestConversionReferenceEquivalence fuzzes both engines with conversion
// enabled (full and partial) across rules and policies.
func TestConversionReferenceEquivalence(t *testing.T) {
	graphs := []*graph.Graph{
		topology.NewChain(8).Graph(),
		topology.NewTorus(2, 4).Graph(),
		topology.NewButterfly(3).Graph(),
	}
	trials := 300
	if testing.Short() {
		trials = 50
	}
	for trial := 0; trial < trials; trial++ {
		src := rng.New(uint64(77000 + trial))
		g := graphs[trial%len(graphs)]
		cfgs := []Config{
			{Bandwidth: 2, Rule: optical.ServeFirst, Wreckage: Drain, Conversion: FullConversion},
			{Bandwidth: 3, Rule: optical.ServeFirst, Wreckage: Vanish, Conversion: FullConversion},
			{Bandwidth: 2, Rule: optical.Priority, Wreckage: Drain, Conversion: FullConversion},
			{Bandwidth: 2, Rule: optical.ServeFirst, Wreckage: Drain, AckLength: 1, Conversion: FullConversion},
			{Bandwidth: 2, Rule: optical.ServeFirst, Wreckage: Drain,
				Conversion: func(u graph.NodeID) bool { return u%2 == 0 }},
		}
		cfg := cfgs[trial%len(cfgs)]
		worms := randomWorms(g, src, 2+src.Intn(10), 4, 5, cfg.Bandwidth)
		if len(worms) == 0 {
			continue
		}
		compareEngines(t, g, worms, cfg, fmt.Sprintf("conv trial %d", trial))
	}
}

// TestConversionReducesFailures: statistically, conversion strictly helps
// on a congested workload.
func TestConversionReducesFailures(t *testing.T) {
	tor := topology.NewTorus(2, 5)
	g := tor.Graph()
	src := rng.New(4242)
	worms := randomWorms(g, src, 60, 4, 4, 3)
	base := mustRun(t, g, worms, Config{
		Bandwidth: 3, Rule: optical.ServeFirst, Wreckage: Drain, CheckInvariants: true,
	})
	conv := mustRun(t, g, worms, Config{
		Bandwidth: 3, Rule: optical.ServeFirst, Wreckage: Drain,
		Conversion: FullConversion, CheckInvariants: true,
	})
	if conv.DeliveredCount < base.DeliveredCount {
		t.Errorf("conversion delivered %d < baseline %d", conv.DeliveredCount, base.DeliveredCount)
	}
	if conv.DeliveredCount == base.DeliveredCount {
		t.Logf("note: conversion made no difference on this seed (%d delivered)", base.DeliveredCount)
	}
}
