package sim

import (
	"fmt"
	"reflect"
	"strings"
	"testing"

	"repro/internal/faults"
	"repro/internal/graph"
	"repro/internal/optical"
	"repro/internal/rng"
	"repro/internal/telemetry"
	"repro/internal/topology"
)

// TestLonersKeepProbeEvents runs sparse random batches on a 6x6 torus
// twice on one engine, once stepped and once with their loners marked,
// under every rule, tie and wreckage policy and ack length, and requires
// the same Result and the same telemetry snapshot: the closed form emits
// every event stepping did, and the step accounting counts the same steps
// and slots.
func TestLonersKeepProbeEvents(t *testing.T) {
	g := topology.NewTorus(2, 6).Graph()
	eng := NewEngine()
	seed := uint64(700)
	nAlone, nWorms := 0, 0
	for _, rule := range []optical.Rule{optical.ServeFirst, optical.Priority} {
		for _, tie := range []optical.TiePolicy{optical.TieEliminateAll, optical.TieArbitraryWinner} {
			for _, wreck := range []WreckagePolicy{Drain, Vanish} {
				for _, ack := range []int{0, 1, 3} {
					seed++
					worms := randomWorms(g, rng.New(seed), 16, 4, 40, 2)
					label := fmt.Sprintf("%v/%v/%v/ack=%d", rule, tie, wreck, ack)
					cfg := Config{Bandwidth: 2, Rule: rule, Tie: tie, Wreckage: wreck, AckLength: ack,
						RecordCollisions: true, CheckInvariants: true}
					stepped, alone := telemetry.NewCollector(), telemetry.NewCollector()
					cfg.Probe = stepped
					res, err := eng.Run(g, worms, cfg)
					if err != nil {
						t.Fatalf("%s: %v", label, err)
					}
					want := cloneResult(res)
					marked, n := markAlone(g, worms, ack)
					nAlone += n
					nWorms += len(worms)
					cfg.Probe = alone
					got, err := eng.Run(g, marked, cfg)
					if err != nil {
						t.Fatalf("%s: marked: %v", label, err)
					}
					compareResults(t, label, got, want)
					if s, w := alone.Snapshot(), stepped.Snapshot(); !reflect.DeepEqual(s, w) {
						t.Fatalf("%s: snapshot with loners %+v, stepped %+v", label, s, w)
					}
				}
			}
		}
	}
	if nAlone == 0 || nAlone == nWorms {
		t.Fatalf("%d loners among %d worms, want some of each", nAlone, nWorms)
	}
}

// cloneResult copies a Result the engine owns, so a later Run on the same
// engine does not overwrite it.
func cloneResult(r *Result) *Result {
	c := *r
	c.Outcomes = append([]Outcome(nil), r.Outcomes...)
	c.Collisions = append([]Collision(nil), r.Collisions...)
	return &c
}

// TestFalseAlonePromiseRefused: under CheckInvariants a worm marked Alone
// that meets another is refused by name before anything is stepped.
// Under conversion or a fault schedule the promise is not honoured, so
// nothing is checked and the marked worms are stepped like any other.
func TestFalseAlonePromiseRefused(t *testing.T) {
	g := topology.NewChain(4).Graph()
	r := route(g, graph.Path{0, 1, 2, 3})
	// Worm 1 enters link 0->1 one step after worm 0 on the same wavelength.
	worms := []Worm{
		{Route: r, Length: 2, Delay: 0},
		{Route: r, Length: 2, Delay: 1, Alone: true},
	}
	cfg := Config{Bandwidth: 1, AckLength: 1, CheckInvariants: true}
	_, err := NewEngine().Run(g, worms, cfg)
	if err == nil || !strings.Contains(err.Error(), "worm 1 is marked alone but meets worm 0") {
		t.Fatalf("false promise: got %v", err)
	}
	// Two steps apart the messages miss, but the 3-flit acks meet.
	worms[1].Delay = 2
	cfg.AckLength = 3
	if _, err := NewEngine().Run(g, worms, cfg); err == nil {
		t.Fatal("acks meeting: false promise accepted")
	}
	cfg.AckLength = 1
	if _, err := NewEngine().Run(g, worms, cfg); err != nil {
		t.Fatalf("true promise refused: %v", err)
	}

	worms[1].Delay = 1
	for _, c := range []Config{
		{Bandwidth: 1, AckLength: 1, CheckInvariants: true, Conversion: FullConversion},
		{Bandwidth: 1, AckLength: 1, CheckInvariants: true, Faults: (&faults.Plan{}).MustCompile(g, 1)},
	} {
		got, err := NewEngine().Run(g, worms, c)
		if err != nil {
			t.Fatalf("promise checked without being honoured: %v", err)
		}
		ref, err := RunReference(g, worms, c)
		if err != nil {
			t.Fatal(err)
		}
		compareResults(t, "unhonoured promise", got, ref)
		if got.CollisionCount == 0 {
			t.Fatal("the marked worm was not stepped")
		}
	}
}
