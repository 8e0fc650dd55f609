package sim

// Regression suite for the waveAt / conversion × cut × wreckage audit.
//
// The lazily filled conversion table (train.waves, settled by waveAt) and
// the cached claim keys (train.keys) must stay coherent with the occupancy
// table across every way a fragment can be torn apart: contention cuts,
// wreckage drain chains with ghost/remnant reassignment, and fault kills
// that split fragments mid-step. Two historical bug classes anchor this
// file:
//
//  1. Sparse conversion predicates: a converting train crossing a
//     non-converting node must inherit its wavelength through waveAt's
//     recursion, including when a cut re-roots the fragment chain.
//     TestSparseConversionCutStress sweeps that space against the
//     reference model.
//
//  2. Fault-kill self-re-entry: a fault kill splits a fragment before
//     entry collection, so the drain remnant's head flit can step onto a
//     link its train still occupies (the claim was reassigned from the
//     cut parent). Without the collection-time guard the remnant contends
//     against itself — spuriously self-cutting, or converting away and
//     leaking its original claim (cached key and occupancy disagree,
//     double slot accounting). TestFaultKillRemnantReentry pins the exact
//     generated plan that first exposed it, with invariants on, against
//     the reference model.

import (
	"fmt"
	"testing"

	"repro/internal/faults"
	"repro/internal/graph"
	"repro/internal/optical"
	"repro/internal/rng"
	"repro/internal/topology"
)

// TestSparseConversionCutStress sweeps sparse conversion predicates (only
// some nodes convert) against long chains and dense traffic, across every
// rule, tie policy, and wreckage policy, comparing the engine to the
// reference model byte for byte with invariant checking on.
func TestSparseConversionCutStress(t *testing.T) {
	graphs := []*graph.Graph{
		topology.NewChain(10).Graph(),
		topology.NewRing(8).Graph(),
		topology.NewTorus(2, 4).Graph(),
	}
	sparse1 := func(n graph.NodeID) bool { return n%2 == 0 }
	sparse2 := func(n graph.NodeID) bool { return n%3 == 1 }
	eng := NewEngine()
	for gi, g := range graphs {
		for _, rule := range []optical.Rule{optical.ServeFirst, optical.Priority} {
			for _, tie := range []optical.TiePolicy{optical.TieEliminateAll, optical.TieArbitraryWinner} {
				for _, wreck := range []WreckagePolicy{Drain, Vanish} {
					for ci, conv := range []func(graph.NodeID) bool{sparse1, sparse2} {
						for trial := 0; trial < 25; trial++ {
							seed := uint64(31000 + 100*gi + trial)
							src := rng.New(seed)
							worms := randomWorms(g, src, 35, 8, 4, 3)
							cfg := Config{
								Bandwidth:        3,
								Rule:             rule,
								Tie:              tie,
								Wreckage:         wreck,
								Conversion:       conv,
								AckLength:        2,
								RecordCollisions: true,
								CheckInvariants:  true,
							}
							label := fmt.Sprintf("g%d/%v/%v/%v/conv%d/trial=%d", gi, rule, tie, wreck, ci, trial)
							fast, errF := eng.Run(g, worms, cfg)
							cfg.CheckInvariants = false
							ref, errR := RunReference(g, worms, cfg)
							if errF != nil || errR != nil {
								t.Fatalf("%s: engine err %v, reference err %v", label, errF, errR)
							}
							compareResults(t, label, fast, ref)
						}
					}
				}
			}
		}
	}
}

// TestFaultKillRemnantReentry pins the generated fault plan that first
// exposed the self-re-entry leak: under serve-first/drain/full-conversion
// on a 2×4 torus, a wavelength outage kills a mid-train flit, the drain
// remnant's head re-enters a link its train still occupies in the same
// step, loses to its own claim, and converts to a second wavelength —
// leaving the cached key disagreeing with the original (now leaked) slot.
// The invariant checker catches the divergence; the engine must run clean
// and agree with the reference model.
func TestFaultKillRemnantReentry(t *testing.T) {
	g := topology.NewTorus(2, 4).Graph()
	src := rng.New(787)
	worms := randomWorms(g, src, 28, 4, 6, 2)
	plan := faults.MustRandom(g, 2, faults.GenConfig{
		Horizon:           20,
		LinkOutages:       6,
		WavelengthOutages: 5,
		AckLosses:         3,
		StuckCouplers:     2,
		MinDuration:       4,
		MaxDuration:       14,
	}, src.Split())
	cfg := Config{
		Bandwidth:        2,
		Rule:             optical.ServeFirst,
		Wreckage:         Drain,
		Conversion:       FullConversion,
		AckLength:        2,
		RecordCollisions: true,
		CheckInvariants:  true,
		Faults:           plan.MustCompile(g, 2),
	}
	fast, err := NewEngine().Run(g, worms, cfg)
	if err != nil {
		t.Fatalf("engine: %v", err)
	}
	ref, err := RunReference(g, worms, cfg)
	if err != nil {
		t.Fatalf("reference: %v", err)
	}
	compareResults(t, "engine-vs-reference", fast, ref)
	if fast.FaultKillCount == 0 {
		t.Error("the pinned plan killed nothing")
	}
}
