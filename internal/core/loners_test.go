package core

import (
	"encoding/json"
	"fmt"
	"os"
	"reflect"
	"testing"

	"repro/internal/graph"
	"repro/internal/optical"
	"repro/internal/paths"
	"repro/internal/rng"
	"repro/internal/sim"
	"repro/internal/telemetry"
	"repro/internal/topology"
)

// stepAll is the engine behind a wrapper that clears every Alone mark, so
// each worm is stepped.
type stepAll struct {
	eng   *sim.Engine
	worms []sim.Worm
}

func (s *stepAll) Run(g *graph.Graph, worms []sim.Worm, cfg sim.Config) (*sim.Result, error) {
	s.worms = append(s.worms[:0], worms...)
	for i := range s.worms {
		s.worms[i].Alone = false
	}
	cfg.CheckInvariants = false
	return s.eng.Run(g, s.worms, cfg)
}

// countAlone is the engine behind a wrapper that counts the worms it is
// handed and those marked Alone.
type countAlone struct {
	eng          *sim.Engine
	alone, worms int
}

func (c *countAlone) Run(g *graph.Graph, worms []sim.Worm, cfg sim.Config) (*sim.Result, error) {
	for _, w := range worms {
		if w.Alone {
			c.alone++
		}
	}
	c.worms += len(worms)
	return c.eng.Run(g, worms, cfg)
}

// reference runs every round on the per-flit reference simulator, which
// steps every worm whatever its mark.
type reference struct{}

func (reference) Run(g *graph.Graph, worms []sim.Worm, cfg sim.Config) (*sim.Result, error) {
	cfg.CheckInvariants = false
	return sim.RunReference(g, worms, cfg)
}

// lonerNet is one network of the loner matrix with a seeded permutation
// routed on it.
type lonerNet struct {
	name string
	col  func(seed uint64) *paths.Collection
}

func lonerNets(t *testing.T, tori, meshes, chains []int) []lonerNet {
	build := func(g *graph.Graph, sel paths.Selector, seed uint64) *paths.Collection {
		c, err := paths.Build(g, paths.RandomPermutation(g.NumNodes(), rng.New(seed)), sel)
		if err != nil {
			t.Fatal(err)
		}
		return c
	}
	var nets []lonerNet
	for _, side := range tori {
		tor := topology.NewTorus(2, side)
		nets = append(nets, lonerNet{fmt.Sprintf("torus%d", side), func(seed uint64) *paths.Collection {
			return build(tor.Graph(), paths.DimOrderTorus(tor), seed)
		}})
	}
	for _, side := range meshes {
		m := topology.NewMesh(2, side)
		nets = append(nets, lonerNet{fmt.Sprintf("mesh%d", side), func(seed uint64) *paths.Collection {
			return build(m.Graph(), paths.DimOrderMesh(m), seed)
		}})
	}
	for _, n := range chains {
		g := topology.NewChain(n).Graph()
		nets = append(nets, lonerNet{fmt.Sprintf("chain%d", n), func(seed uint64) *paths.Collection {
			return build(g, paths.BFSSelector(g), seed)
		}})
	}
	return nets
}

// TestLonersMatchStepped runs the protocol with core's loner marks and
// with every worm stepped, across networks, bandwidths, worm and ack
// lengths, both rules, both tie policies and both wreckage policies, and
// requires identical Result JSON and telemetry snapshots. The marked runs
// set CheckInvariants, so the engine checks every mark exactly. Where the
// reference is cheap enough it runs too and must give the same Result.
// Loners and stepped worms must both occur. The default matrix takes a
// few seconds; LONERS_FULL=1 runs the full 2,880 configurations (tori and
// meshes of side 4 to 32, chains of 64 and 256 nodes), about a minute
// without the race detector.
func TestLonersMatchStepped(t *testing.T) {
	full := os.Getenv("LONERS_FULL") == "1"
	nets := lonerNets(t, []int{4, 8}, []int{6}, []int{64})
	bands, lengths, acks := []int{1, 4}, []int{1, 8}, []int{0, 1, 3}
	if full {
		nets = lonerNets(t, []int{4, 8, 16, 32}, []int{4, 8, 16, 32}, []int{64, 256})
		bands, lengths = []int{1, 2, 4}, []int{1, 2, 4, 8}
	}
	alone := &countAlone{eng: sim.NewEngine()}
	stepped := &stepAll{eng: sim.NewEngine()}
	seed := uint64(0)
	for _, net := range nets {
		for _, b := range bands {
			for _, l := range lengths {
				for _, ack := range acks {
					seed++
					c := net.col(seed)
					for _, rule := range []optical.Rule{optical.ServeFirst, optical.Priority} {
						for _, tie := range []optical.TiePolicy{optical.TieEliminateAll, optical.TieArbitraryWinner} {
							for _, wreck := range []sim.WreckagePolicy{sim.Drain, sim.Vanish} {
								cfg := Config{Bandwidth: b, Length: l, AckLength: ack, Rule: rule, Tie: tie, Wreckage: wreck,
									RecordCollisions: true}
								label := fmt.Sprintf("%s/B=%d/L=%d/A=%d/%v/%v/%v", net.name, b, l, ack, rule, tie, wreck)
								compareLoners(t, label, c, cfg, seed, alone, stepped, c.Size() <= 64)
							}
						}
					}
				}
			}
		}
	}
	t.Logf("%d loners among %d worms handed to the engine", alone.alone, alone.worms)
	if alone.alone == 0 || alone.alone == alone.worms {
		t.Fatalf("%d loners among %d worms, want some of each", alone.alone, alone.worms)
	}
}

// compareLoners runs one configuration on the marking engine, the
// stepping wrapper and, when ref is set, the reference.
func compareLoners(t *testing.T, label string, c *paths.Collection, cfg Config, seed uint64,
	alone *countAlone, stepped *stepAll, ref bool) {
	t.Helper()
	run := func(s Simulator, checked bool) ([]byte, *telemetry.Snapshot) {
		cfg := cfg
		cfg.CheckInvariants = checked
		cfg.Probe = telemetry.NewCollector()
		res, err := RunWithSimulator(c, cfg, rng.New(seed), s)
		if err != nil {
			t.Fatalf("%s: %v", label, err)
		}
		js, err := json.Marshal(res)
		if err != nil {
			t.Fatal(err)
		}
		return js, cfg.Probe.Snapshot()
	}
	got, gotSnap := run(alone, true)
	want, wantSnap := run(stepped, false)
	if string(got) != string(want) {
		t.Fatalf("%s: result with loners\n%s\nstepped\n%s", label, got, want)
	}
	if !reflect.DeepEqual(gotSnap, wantSnap) {
		t.Fatalf("%s: snapshot with loners %+v\nstepped %+v", label, gotSnap, wantSnap)
	}
	if ref {
		if refJS, _ := run(reference{}, false); string(refJS) != string(want) {
			t.Fatalf("%s: result with loners\n%s\nreference\n%s", label, got, refJS)
		}
	}
}
