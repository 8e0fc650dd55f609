package sim

import (
	"fmt"
	"testing"

	"repro/internal/graph"
	"repro/internal/optical"
	"repro/internal/rng"
	"repro/internal/telemetry"
	"repro/internal/topology"
)

// checkCollectorConsistency cross-checks a collector that observed exactly
// one run against that run's Result: every aggregate the engine reports
// must be derivable from the event stream the probe saw.
func checkCollectorConsistency(t *testing.T, label string, col *telemetry.Collector, res *Result) {
	t.Helper()
	s := col.Snapshot()
	if s.Runs != 1 {
		t.Fatalf("%s: collector saw %d runs, want 1", label, s.Runs)
	}
	if s.MessageBusySlotSteps != uint64(res.MessageBusySlotSteps) ||
		s.AckBusySlotSteps != uint64(res.AckBusySlotSteps) {
		t.Errorf("%s: probe busy %d/%d vs result %d/%d", label,
			s.MessageBusySlotSteps, s.AckBusySlotSteps,
			res.MessageBusySlotSteps, res.AckBusySlotSteps)
	}
	if got := s.MessageCuts + s.AckCuts; got != uint64(res.CollisionCount) {
		t.Errorf("%s: probe cuts %d vs CollisionCount %d", label, got, res.CollisionCount)
	}
	if s.Delivered != uint64(res.DeliveredCount) || s.Acked != uint64(res.AckedCount) {
		t.Errorf("%s: probe delivered/acked %d/%d vs result %d/%d", label,
			s.Delivered, s.Acked, res.DeliveredCount, res.AckedCount)
	}
	// The event-sourced per-link busy integrals must sum, per band, to the
	// engine's end-of-step occupancy totals.
	var perLink [telemetry.NumBands]uint64
	for _, lb := range s.LinkBusySteps {
		perLink[lb.Band] += lb.BusySlotSteps
	}
	if perLink[telemetry.MessageBand] != uint64(res.MessageBusySlotSteps) ||
		perLink[telemetry.AckBand] != uint64(res.AckBusySlotSteps) {
		t.Errorf("%s: per-link busy sums %d/%d vs result %d/%d", label,
			perLink[telemetry.MessageBand], perLink[telemetry.AckBand],
			res.MessageBusySlotSteps, res.AckBusySlotSteps)
	}
	// The collision heatmap must account for every cut.
	var heat uint64
	for _, cell := range s.Collisions {
		heat += cell.Count
	}
	if heat != uint64(res.CollisionCount) {
		t.Errorf("%s: heatmap total %d vs CollisionCount %d", label, heat, res.CollisionCount)
	}
	if s.Makespan.Count != 1 || s.Makespan.Sum != uint64(max(res.Makespan, 0)) {
		t.Errorf("%s: makespan histogram %+v vs result %d", label, s.Makespan, res.Makespan)
	}
}

// TestProbeDoesNotChangeResults is the telemetry subsystem's differential
// gate: across the full rule x tie x wreckage x conversion x ack matrix, an
// engine driven with an attached Collector must produce byte-identical
// Results to the probe-less engine and to the per-flit reference — and the
// collector's own aggregates must agree with the Result it observed.
func TestProbeDoesNotChangeResults(t *testing.T) {
	tor := topology.NewTorus(2, 4)
	g := tor.Graph()
	probed := NewEngine()
	plain := NewEngine()
	col := telemetry.NewCollector()

	sparse := func(n graph.NodeID) bool { return n%2 == 0 }
	conversions := []struct {
		name string
		fn   func(graph.NodeID) bool
	}{
		{"none", nil},
		{"full", FullConversion},
		{"sparse", sparse},
	}
	seed := uint64(7700)
	for _, rule := range []optical.Rule{optical.ServeFirst, optical.Priority} {
		for _, tie := range []optical.TiePolicy{optical.TieEliminateAll, optical.TieArbitraryWinner} {
			for _, wreck := range []WreckagePolicy{Drain, Vanish} {
				for _, conv := range conversions {
					for _, ack := range []int{0, 2} {
						seed++
						src := rng.New(seed)
						worms := randomWorms(g, src, 24, 4, 8, 2)
						cfg := Config{
							Bandwidth:        2,
							Rule:             rule,
							Tie:              tie,
							Wreckage:         wreck,
							Conversion:       conv.fn,
							AckLength:        ack,
							RecordCollisions: true,
							CheckInvariants:  true,
						}
						label := fmt.Sprintf("%v/%v/%v/conv=%s/ack=%d",
							rule, tie, wreck, conv.name, ack)

						col.Reset()
						cfg.Probe = col
						withProbe, errP := probed.Run(g, worms, cfg)
						cfg.Probe = nil
						without, errW := plain.Run(g, worms, cfg)
						cfg.CheckInvariants = false
						ref, errR := RunReference(g, worms, cfg)
						if errP != nil || errW != nil || errR != nil {
							t.Fatalf("%s: errs probe=%v plain=%v ref=%v", label, errP, errW, errR)
						}
						compareResults(t, label+"/probe-vs-plain", withProbe, without)
						compareResults(t, label+"/probe-vs-reference", withProbe, ref)
						checkCollectorConsistency(t, label, col, withProbe)
					}
				}
			}
		}
	}
}

// TestProbeNilSafety: a config with no probe must run through every hook
// site without dereferencing anything (smoke test for the branch form).
func TestProbeNilSafety(t *testing.T) {
	g := topology.NewTorus(2, 3).Graph()
	src := rng.New(42)
	worms := randomWorms(g, src, 12, 3, 6, 2)
	cfg := Config{Bandwidth: 2, Rule: optical.Priority, Wreckage: Drain, AckLength: 1}
	if _, err := NewEngine().Run(g, worms, cfg); err != nil {
		t.Fatal(err)
	}
}
