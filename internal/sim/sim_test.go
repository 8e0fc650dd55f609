package sim

import (
	"math/bits"
	"slices"
	"strings"
	"testing"

	"repro/internal/graph"
	"repro/internal/optical"
	"repro/internal/rng"
	"repro/internal/topology"
)

// chain returns the chain graph on n nodes (links i -> i+1 and back).
func chain(n int) *graph.Graph { return topology.NewChain(n).Graph() }

// cfg returns a baseline config: B wavelengths, serve-first, drain,
// oracle acks, invariant checking on.
func cfg(b int) Config {
	return Config{
		Bandwidth:        b,
		Rule:             optical.ServeFirst,
		Wreckage:         Drain,
		AckLength:        0,
		RecordCollisions: true,
		CheckInvariants:  true,
	}
}

func mustRun(t *testing.T, g *graph.Graph, worms []Worm, c Config) *Result {
	t.Helper()
	res, err := NewEngine().Run(g, worms, c)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	return res
}

func TestSingleWormDelivery(t *testing.T) {
	g := chain(5) // path 0->4: 4 links
	res := mustRun(t, g, []Worm{
		{ID: 0, Route: route(g, graph.Path{0, 1, 2, 3, 4}), Length: 3, Delay: 2, Wavelength: 0},
	}, cfg(1))
	o := res.Outcomes[0]
	if !o.Delivered || !o.Acked {
		t.Fatalf("outcome = %+v, want delivered and acked", o)
	}
	// Delivery at s + k + L - 2 = 2 + 4 + 3 - 2 = 7.
	if o.DeliveredAt != 7 {
		t.Errorf("DeliveredAt = %d, want 7", o.DeliveredAt)
	}
	if o.CutLink != -1 || o.CutTime != -1 {
		t.Errorf("uncut worm has cut fields: %+v", o)
	}
	if res.DeliveredCount != 1 || res.AckedCount != 1 {
		t.Error("counters")
	}
	if len(res.Collisions) != 0 {
		t.Errorf("collisions = %v", res.Collisions)
	}
}

func TestLengthOneWorm(t *testing.T) {
	g := chain(3)
	res := mustRun(t, g, []Worm{
		{ID: 0, Route: route(g, graph.Path{0, 1, 2}), Length: 1, Delay: 0, Wavelength: 0},
	}, cfg(1))
	o := res.Outcomes[0]
	if !o.Delivered {
		t.Fatal("L=1 worm not delivered")
	}
	// s + k + L - 2 = 0 + 2 + 1 - 2 = 1.
	if o.DeliveredAt != 1 {
		t.Errorf("DeliveredAt = %d, want 1", o.DeliveredAt)
	}
}

func TestServeFirstLaterEntrantLoses(t *testing.T) {
	g := chain(4)
	// Worm 0 occupies link 0->1 during steps [0, 1] (L=2).
	// Worm 1 enters the same link at step 1: eliminated.
	res := mustRun(t, g, []Worm{
		{ID: 0, Route: route(g, graph.Path{0, 1, 2, 3}), Length: 2, Delay: 0, Wavelength: 0},
		{ID: 1, Route: route(g, graph.Path{0, 1, 2}), Length: 2, Delay: 1, Wavelength: 0},
	}, cfg(1))
	if !res.Outcomes[0].Delivered {
		t.Error("incumbent must survive under serve-first")
	}
	if res.Outcomes[1].Delivered {
		t.Error("later entrant must be eliminated")
	}
	o := res.Outcomes[1]
	if o.CutLink != 0 || o.CutTime != 1 {
		t.Errorf("cut at link %d time %d, want link 0 time 1", o.CutLink, o.CutTime)
	}
	if len(res.Collisions) != 1 {
		t.Fatalf("collisions = %v", res.Collisions)
	}
	c := res.Collisions[0]
	if c.Loser != 1 || c.Blocker != 0 || c.Time != 1 {
		t.Errorf("collision = %+v", c)
	}
}

func TestDisjointWavelengthsNoConflict(t *testing.T) {
	g := chain(4)
	res := mustRun(t, g, []Worm{
		{ID: 0, Route: route(g, graph.Path{0, 1, 2, 3}), Length: 2, Delay: 0, Wavelength: 0},
		{ID: 1, Route: route(g, graph.Path{0, 1, 2, 3}), Length: 2, Delay: 0, Wavelength: 1},
	}, cfg(2))
	if res.DeliveredCount != 2 {
		t.Fatalf("delivered = %d, want 2 (different wavelengths)", res.DeliveredCount)
	}
}

func TestTemporalSeparationNoConflict(t *testing.T) {
	g := chain(4)
	// Worm 0 (L=2) holds link 0 during [0,1]; worm 1 enters at 2: free.
	res := mustRun(t, g, []Worm{
		{ID: 0, Route: route(g, graph.Path{0, 1, 2, 3}), Length: 2, Delay: 0, Wavelength: 0},
		{ID: 1, Route: route(g, graph.Path{0, 1, 2, 3}), Length: 2, Delay: 2, Wavelength: 0},
	}, cfg(1))
	if res.DeliveredCount != 2 {
		t.Fatalf("delivered = %d, want 2 (separated by L)", res.DeliveredCount)
	}
}

func TestOppositeDirectionsNoConflict(t *testing.T) {
	g := chain(4)
	res := mustRun(t, g, []Worm{
		{ID: 0, Route: route(g, graph.Path{0, 1, 2, 3}), Length: 2, Delay: 0, Wavelength: 0},
		{ID: 1, Route: route(g, graph.Path{3, 2, 1, 0}), Length: 2, Delay: 0, Wavelength: 0},
	}, cfg(1))
	if res.DeliveredCount != 2 {
		t.Fatal("opposite directions use distinct links and must not conflict")
	}
}

func TestSimultaneousTieEliminatesBoth(t *testing.T) {
	// Two worms entering the same link at the same step from different
	// incoming links (a Y junction).
	gb := graph.NewBuilder(4)
	gb.AddEdge(0, 2)
	gb.AddEdge(1, 2)
	gb.AddEdge(2, 3)
	g := gb.Finalize()
	res := mustRun(t, g, []Worm{
		{ID: 0, Route: route(g, graph.Path{0, 2, 3}), Length: 2, Delay: 0, Wavelength: 0},
		{ID: 1, Route: route(g, graph.Path{1, 2, 3}), Length: 2, Delay: 0, Wavelength: 0},
	}, cfg(1))
	if res.DeliveredCount != 0 {
		t.Fatal("simultaneous tie must eliminate both under TieEliminateAll")
	}
	if len(res.Collisions) != 2 {
		t.Fatalf("collisions = %v", res.Collisions)
	}
	// Blockers must be the respective other worm.
	for _, c := range res.Collisions {
		if c.Blocker == c.Loser {
			t.Errorf("self-blocking collision: %+v", c)
		}
	}
}

func TestSimultaneousTieArbitraryWinner(t *testing.T) {
	gb := graph.NewBuilder(4)
	gb.AddEdge(0, 2)
	gb.AddEdge(1, 2)
	gb.AddEdge(2, 3)
	g := gb.Finalize()
	c := cfg(1)
	c.Tie = optical.TieArbitraryWinner
	res := mustRun(t, chainlike(g), []Worm{
		{ID: 5, Route: route(g, graph.Path{0, 2, 3}), Length: 2, Delay: 0, Wavelength: 0},
		{ID: 3, Route: route(g, graph.Path{1, 2, 3}), Length: 2, Delay: 0, Wavelength: 0},
	}, c)
	if !res.Outcomes[1].Delivered { // worm ID 3, smaller ID, wins
		t.Error("smallest-ID entrant should win under TieArbitraryWinner")
	}
	if res.Outcomes[0].Delivered {
		t.Error("larger-ID entrant should lose")
	}
}

func chainlike(g *graph.Graph) *graph.Graph { return g }

func TestPriorityPreemption(t *testing.T) {
	g := chain(5)
	c := cfg(1)
	c.Rule = optical.Priority
	// Low-rank worm 0 occupies link 1->2 from step 1 (delay 0, second
	// link). High-rank worm 1 starts at node 1 with delay 2 and enters
	// link 1->2 at step 2, while worm 0 (L=3) still holds it.
	res := mustRun(t, g, []Worm{
		{ID: 0, Route: route(g, graph.Path{0, 1, 2, 3, 4}), Length: 3, Delay: 0, Wavelength: 0, Rank: 1},
		{ID: 1, Route: route(g, graph.Path{1, 2, 3, 4}), Length: 3, Delay: 2, Wavelength: 0, Rank: 9},
	}, c)
	if res.Outcomes[0].Delivered {
		t.Error("preempted incumbent must not be delivered")
	}
	if !res.Outcomes[1].Delivered {
		t.Error("high-rank entrant must be delivered")
	}
	if res.Outcomes[0].CutLink != 1 {
		t.Errorf("incumbent cut at link %d, want 1", res.Outcomes[0].CutLink)
	}
}

func TestPriorityLowRankEntrantLoses(t *testing.T) {
	g := chain(5)
	c := cfg(1)
	c.Rule = optical.Priority
	res := mustRun(t, g, []Worm{
		{ID: 0, Route: route(g, graph.Path{0, 1, 2, 3, 4}), Length: 3, Delay: 0, Wavelength: 0, Rank: 9},
		{ID: 1, Route: route(g, graph.Path{1, 2, 3, 4}), Length: 3, Delay: 2, Wavelength: 0, Rank: 1},
	}, c)
	if !res.Outcomes[0].Delivered || res.Outcomes[1].Delivered {
		t.Error("high-rank incumbent survives, low-rank entrant loses")
	}
}

func TestGhostBlocksDownstreamUnderDrain(t *testing.T) {
	// Priority preemption creates a downstream ghost from the loser. The
	// ghost keeps occupying links ahead and can eliminate a third worm,
	// which would survive under Vanish.
	//
	// Topology: line 0-1-2-3-4-5 plus entry spurs 6-2 (preemptor) and
	// 7-4 (probe).
	gb := graph.NewBuilder(8)
	for i := 0; i+1 < 6; i++ {
		gb.AddEdge(i, i+1)
	}
	gb.AddEdge(6, 2)
	gb.AddEdge(7, 4)
	g := gb.Finalize()
	worms := []Worm{
		// Victim: low-rank L=4 worm crawling 0..5; it occupies link 2->3
		// (index 2) during steps [2, 5].
		{ID: 0, Route: route(g, graph.Path{0, 1, 2, 3, 4, 5}), Length: 4, Delay: 0, Wavelength: 0, Rank: 1},
		// High-rank preemptor enters link 2->3 at step 5, cutting the
		// victim's tail flit (j=3). The ghost (flits 0..2) keeps moving:
		// it occupies link 4->5 during steps [4, 6].
		{ID: 1, Route: route(g, graph.Path{6, 2, 3}), Length: 2, Delay: 4, Wavelength: 0, Rank: 9},
		// Probe enters link 4->5 at step 6, where the ghost's last flit
		// still travels under Drain; its rank is below the ghost's worm,
		// so it is eliminated. Under Vanish the wreckage is gone.
		{ID: 2, Route: route(g, graph.Path{7, 4, 5}), Length: 2, Delay: 5, Wavelength: 0, Rank: 0},
	}
	c := cfg(1)
	c.Rule = optical.Priority

	c.Wreckage = Drain
	resDrain := mustRun(t, g, worms, c)
	if resDrain.Outcomes[0].Delivered {
		t.Error("preempted worm 0 must fail (drain)")
	}
	if !resDrain.Outcomes[1].Delivered {
		t.Error("preemptor must be delivered (drain)")
	}
	if resDrain.Outcomes[2].Delivered {
		t.Error("worm 2 must be blocked by the ghost under Drain")
	}

	c.Wreckage = Vanish
	resVanish := mustRun(t, g, worms, c)
	if resVanish.Outcomes[0].Delivered {
		t.Error("preempted worm 0 must fail (vanish)")
	}
	if !resVanish.Outcomes[1].Delivered {
		t.Error("preemptor must be delivered (vanish)")
	}
	if !resVanish.Outcomes[2].Delivered {
		t.Error("worm 2 must be delivered under Vanish (wreckage removed)")
	}
}

func TestUpstreamRemnantDrainsAndBlocks(t *testing.T) {
	// After an entrant is eliminated at link e, its body keeps flowing and
	// occupies the links before e while draining; a later worm entering
	// one of those links collides with the remnant under Drain.
	//
	// Line 0-1-2-3-4 with spur 5-0... we use: blocker worm B holds link
	// 2->3; victim V (long) enters 2->3 and is cut; V's remnant keeps
	// occupying link 1->2 while draining; a probe P entering 1->2 then
	// collides under Drain but not under Vanish.
	gb := graph.NewBuilder(7)
	for i := 0; i+1 < 5; i++ {
		gb.AddEdge(i, i+1)
	}
	gb.AddEdge(5, 2) // blocker entry
	gb.AddEdge(6, 1) // probe entry
	g := gb.Finalize()
	worms := []Worm{
		// Blocker: enters 2->3 at step 0, L=6 so holds it during [0,5].
		{ID: 0, Route: route(g, graph.Path{5, 2, 3}), Length: 6, Delay: 0, Wavelength: 0},
		// Victim: long worm; enters 1->2 (index 1) at 2, 2->3 (index 2) at
		// step 3 -> eliminated (occupied). Its remnant (flits 1..5) keeps
		// draining into link 2->3's coupler, occupying 1->2 until step
		// 2+5 = 7.
		{ID: 1, Route: route(g, graph.Path{0, 1, 2, 3, 4}), Length: 6, Delay: 1, Wavelength: 0},
		// Probe: enters 1->2 at step 6. Under Drain the victim's remnant
		// still occupies 1->2 (flits j=4 at step 6: 1+1+4 = 6); under
		// Vanish the link is free.
		{ID: 2, Route: route(g, graph.Path{6, 1, 2}), Length: 1, Delay: 5, Wavelength: 0},
	}
	c := cfg(1)

	c.Wreckage = Drain
	resDrain := mustRun(t, g, worms, c)
	if resDrain.Outcomes[1].Delivered {
		t.Error("victim must fail")
	}
	if resDrain.Outcomes[2].Delivered {
		t.Error("probe must hit the draining remnant under Drain")
	}

	c.Wreckage = Vanish
	resVanish := mustRun(t, g, worms, c)
	if !resVanish.Outcomes[2].Delivered {
		t.Error("probe must pass under Vanish")
	}
}

func TestDeliveredIffNeverCut(t *testing.T) {
	// Random stress on a torus: every outcome must satisfy
	// Delivered <=> CutTime == -1.
	tor := topology.NewTorus(2, 4)
	g := tor.Graph()
	var worms []Worm
	id := 0
	for s := 0; s < 16; s++ {
		d := (s*7 + 3) % 16
		if d == s {
			continue
		}
		p := g.ShortestPath(s, d, nil)
		worms = append(worms, Worm{
			ID: id, Route: route(g, p), Length: 2, Delay: id % 3, Wavelength: id % 2,
		})
		id++
	}
	c := cfg(2)
	for _, pol := range []WreckagePolicy{Drain, Vanish} {
		c.Wreckage = pol
		res := mustRun(t, g, worms, c)
		for i, o := range res.Outcomes {
			if o.Delivered != (o.CutTime == -1) {
				t.Errorf("%v worm %d: delivered=%t but cutTime=%d", pol, i, o.Delivered, o.CutTime)
			}
		}
	}
}

func TestValidationErrors(t *testing.T) {
	g := chain(3)
	okWorm := Worm{ID: 0, Route: route(g, graph.Path{0, 1}), Length: 1, Wavelength: 0}
	with := func(f func(*Worm)) []Worm {
		w := okWorm
		f(&w)
		return []Worm{w}
	}
	cases := map[string]struct {
		worms []Worm
		c     Config
		want  string
	}{
		"bandwidth 0":    {[]Worm{okWorm}, Config{Bandwidth: 0}, "bandwidth 0 < 1"},
		"neg ack":        {[]Worm{okWorm}, Config{Bandwidth: 1, AckLength: -1}, "negative ack length"},
		"neg id":         {with(func(w *Worm) { w.ID = -1 }), Config{Bandwidth: 1}, "negative ID"},
		"dup id":         {[]Worm{okWorm, okWorm}, Config{Bandwidth: 1}, "duplicate worm ID 0"},
		"no route":       {with(func(w *Worm) { w.Route = graph.Route{} }), Config{Bandwidth: 1}, "worm 0 has no route checked against this graph"},
		"other graph":    {with(func(w *Worm) { w.Route = route(chain(3), graph.Path{0, 1}) }), Config{Bandwidth: 1}, "worm 0 has no route checked against this graph"},
		"revisit":        {with(func(w *Worm) { w.Route = route(g, graph.Path{0, 1, 0, 1}) }), Config{Bandwidth: 1}, "worm 0 revisits a directed link"},
		"zero length":    {with(func(w *Worm) { w.Length = 0 }), Config{Bandwidth: 1}, "length 0 < 1"},
		"neg delay":      {with(func(w *Worm) { w.Delay = -1 }), Config{Bandwidth: 1}, "negative delay"},
		"bad wavelength": {with(func(w *Worm) { w.Wavelength = 5 }), Config{Bandwidth: 1}, "wavelength 5 out of [0,1)"},
	}
	for name, tc := range cases {
		if _, err := NewEngine().Run(g, tc.worms, tc.c); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: err = %v, want %q", name, err, tc.want)
		}
		if _, err := RunReference(g, tc.worms, tc.c); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: reference err = %v, want %q", name, err, tc.want)
		}
	}
	// A path is refused where its route is made, before any run.
	for name, tc := range map[string]struct {
		p    graph.Path
		want string
	}{
		"bad path":   {graph.Path{0, 2}, "graph: path step 0: no link 0->2"},
		"empty path": {graph.Path{1}, "graph: zero-length path"},
		"off graph":  {graph.Path{0, 3}, "graph: path node 3 out of range [0,3)"},
	} {
		if _, _, err := g.AppendRoute(nil, tc.p); err == nil || err.Error() != tc.want {
			t.Errorf("%s: err = %v, want %q", name, err, tc.want)
		}
	}
}

func TestEmptyRun(t *testing.T) {
	g := chain(3)
	res := mustRun(t, g, nil, cfg(1))
	if len(res.Outcomes) != 0 || res.DeliveredCount != 0 {
		t.Error("empty run should be trivial")
	}
}

func TestWreckagePolicyString(t *testing.T) {
	if Drain.String() != "drain" || Vanish.String() != "vanish" {
		t.Error("strings")
	}
	if WreckagePolicy(7).String() == "" {
		t.Error("unknown policy string empty")
	}
	for _, w := range []WreckagePolicy{Drain, Vanish} {
		if got, err := ParseWreckage(w.String()); err != nil || got != w {
			t.Errorf("ParseWreckage(%q) = %v, %v", w, got, err)
		}
	}
	for _, name := range []string{"", "vanishh", "WreckagePolicy(7)"} {
		if _, err := ParseWreckage(name); err == nil {
			t.Errorf("ParseWreckage(%q) accepted", name)
		}
	}
}

func TestMaxStepsGuard(t *testing.T) {
	g := chain(8)
	worms := []Worm{{ID: 0, Route: route(g, graph.Path{0, 1, 2, 3, 4, 5, 6, 7}), Length: 4, Delay: 0, Wavelength: 0}}
	c := cfg(1)
	c.MaxSteps = 2 // far too small
	if _, err := NewEngine().Run(g, worms, c); err == nil {
		t.Error("engine MaxSteps guard did not fire")
	}
	if _, err := RunReference(g, worms, c); err == nil {
		t.Error("reference MaxSteps guard did not fire")
	}
}

func TestDynamicMaxStepsGuard(t *testing.T) {
	g := chain(8)
	reqs := []Request{{ID: 0, Path: graph.Path{0, 1, 2, 3, 4, 5, 6, 7}, Length: 4}}
	_, err := NewEngine().RunDynamic(g, reqs, DynamicConfig{
		Sim: Config{Bandwidth: 1, MaxSteps: 2},
	}, rng.New(1))
	if err == nil {
		t.Error("dynamic MaxSteps guard did not fire")
	}

	// An aborted dynamic run leaves slots claimed and agenda entries
	// pending. The engine's next runs must not see them, even on a graph
	// whose occupancy table an earlier run left marked clean.
	worms := []Worm{{ID: 0, Route: route(g, reqs[0].Path), Length: 4}}
	want, err := NewEngine().Run(g, worms, cfg(1))
	if err != nil {
		t.Fatal(err)
	}
	wantOut := want.Outcomes[0]
	e := NewEngine()
	if _, err := e.Run(g, worms, cfg(1)); err != nil {
		t.Fatal(err)
	}
	if _, err := e.RunDynamic(g, reqs, DynamicConfig{Sim: Config{Bandwidth: 1, MaxSteps: 2}}, rng.New(1)); err == nil {
		t.Fatal("dynamic MaxSteps guard did not fire on a reused engine")
	}
	got, err := e.Run(g, worms, cfg(1))
	if err != nil {
		t.Fatalf("run after an aborted dynamic run: %v", err)
	}
	if got.Outcomes[0] != wantOut {
		t.Errorf("run after an aborted dynamic run: %+v, fresh engine %+v", got.Outcomes[0], wantOut)
	}
	if _, err := e.RunDynamic(g, reqs, DynamicConfig{Sim: Config{Bandwidth: 1, MaxSteps: 2}}, rng.New(1)); err == nil {
		t.Fatal("dynamic MaxSteps guard did not fire on a reused engine")
	}
	tc := dynamicGoldenCases[0]
	if d := dynamicDigest(goldenDynamicRun(t, e, tc)); d != tc.digest {
		t.Errorf("%s after an aborted dynamic run: digest %s, want %s", tc.name, d, tc.digest)
	}
}

func TestUtilizationAccounting(t *testing.T) {
	g := chain(4)
	res := mustRun(t, g, []Worm{
		{ID: 0, Route: route(g, graph.Path{0, 1, 2, 3}), Length: 2, Delay: 0, Wavelength: 0},
	}, cfg(1))
	// Occupancy: 3 links x 2 steps each = 6 slot-steps.
	if res.BusySlotSteps != 6 {
		t.Errorf("BusySlotSteps = %d, want 6", res.BusySlotSteps)
	}
	u := res.Utilization(g.NumLinks(), 1)
	if u <= 0 || u > 1 {
		t.Errorf("utilization = %v out of (0, 1]", u)
	}
	if (&Result{Makespan: -1}).Utilization(1, 1) != 0 {
		t.Error("degenerate utilization should be 0")
	}
	if res.Utilization(0, 1) != 0 || res.Utilization(1, 0) != 0 {
		t.Error("zero capacity should give 0")
	}
}

// TestValidatorStampGrowth pins the duplicate-ID stamp array's geometric
// growth: a fresh engine's first Run over n ascending IDs reallocates the
// array O(log n) times, not once per ID. The duplicate and huge-ID checks
// stay exactly as strict.
func TestValidatorStampGrowth(t *testing.T) {
	const n = 8192
	g := chain(3)
	worms := make([]Worm, n)
	r := route(g, graph.Path{0, 1, 2})
	for i := range worms {
		worms[i] = Worm{ID: i, Route: r, Length: 1}
	}
	stamps := testing.AllocsPerRun(3, func() {
		var v validator
		v.idGen = 1
		for i := range worms {
			if v.markID(worms[i].ID) {
				t.Fatalf("fresh ID %d reported as duplicate", worms[i].ID)
			}
		}
	})
	if limit := 2 * float64(bits.Len(n)); stamps > limit {
		t.Errorf("%d ascending IDs: %.0f stamp allocations, want <= %.0f", n, stamps, limit)
	}
	// The validation a fresh engine's first Run performs: the routes were
	// checked when they were made, so only the ID stamps grow.
	checks := testing.AllocsPerRun(3, func() {
		var v validator
		if err := v.check(g, worms, cfg(1)); err != nil {
			t.Fatal(err)
		}
	})
	if limit := 2 * float64(bits.Len(n)); checks > limit {
		t.Errorf("fresh validator over %d worms: %.0f allocations, want <= %.0f", n, checks, limit)
	}
	t.Logf("%d ascending IDs: %.0f stamp allocations, %.0f for the whole fresh check", n, stamps, checks)

	dup := append(append([]Worm(nil), worms...), Worm{ID: n / 2, Route: route(g, graph.Path{0, 1}), Length: 1})
	if _, err := NewEngine().Run(g, dup, cfg(1)); err == nil || !strings.Contains(err.Error(), "duplicate worm ID") {
		t.Errorf("duplicate ID after growth: err = %v", err)
	}
	big := []Worm{
		{ID: idStampCap - 1, Route: route(g, graph.Path{0, 1}), Length: 1},
		{ID: idStampCap, Route: route(g, graph.Path{1, 2}), Length: 1},
		{ID: 1 << 40, Route: route(g, graph.Path{2, 1}), Length: 1},
	}
	eng := NewEngine()
	if _, err := eng.Run(g, big, cfg(1)); err != nil {
		t.Fatalf("IDs around idStampCap: %v", err)
	}
	if _, err := eng.Run(g, append(big, Worm{ID: 1 << 40, Route: route(g, graph.Path{1, 0}), Length: 1}), cfg(1)); err == nil || !strings.Contains(err.Error(), "duplicate worm ID") {
		t.Errorf("duplicate huge ID: err = %v", err)
	}
	if _, err := eng.Run(g, big, cfg(1)); err != nil {
		t.Errorf("huge IDs must not leak into the next run's duplicate set: %v", err)
	}
}

// TestValidatorLinkStampWrap pins that the revisit check keeps no state
// from one path to the next. The validator once stamped each path's links
// in a per-link array, and a stamp that wrapped aliased earlier paths'
// marks. The route check sorts a copy of each path's links in its table's
// spare capacity instead, so a path checked on a table that already holds
// other routes, and the sort scratch they left behind, gets the verdict and
// links it gets on a fresh table, and an engine that ran the earlier routes
// runs it as a fresh engine does.
func TestValidatorLinkStampWrap(t *testing.T) {
	g := chain(4)
	paths := []graph.Path{{0, 1, 2}, {3, 2, 1, 0}, {0, 1, 2, 3}, {0, 1, 0, 1}, {1, 2, 3, 2, 1}, {2, 1, 2, 1}, {2, 3}}
	var table []int32
	var routes []graph.Route
	for _, p := range paths {
		fresh := route(g, p)
		r, next, err := g.AppendRoute(table, p)
		if err != nil {
			t.Fatal(err)
		}
		if !slices.Equal(r.Links(), fresh.Links()) || r.Revisits() != fresh.Revisits() {
			t.Errorf("%v after %d routes: links %v revisit %v, fresh %v %v",
				p, len(routes), r.Links(), r.Revisits(), fresh.Links(), fresh.Revisits())
		}
		table, routes = next, append(routes, r)
	}
	eng := NewEngine()
	for i, r := range routes {
		w := []Worm{{ID: i, Route: r, Length: 1}}
		res, err := eng.Run(g, w, cfg(1))
		if r.Revisits() {
			if err == nil || !strings.Contains(err.Error(), "revisits a directed link") {
				t.Errorf("%v: err = %v, want a revisit refusal", paths[i], err)
			}
			continue
		}
		if err != nil {
			t.Fatalf("%v: %v", paths[i], err)
		}
		if want := mustRun(t, g, w, cfg(1)).Outcomes[0]; res.Outcomes[0] != want {
			t.Errorf("%v: outcome %+v on a reused engine, fresh engine %+v", paths[i], res.Outcomes[0], want)
		}
	}
}

// TestPooledTrainsDropRoutes: a train returned to the arena drops its
// view of the run's route table, so an engine that ran a large round
// and then a small one keeps neither round's routes reachable.
func TestPooledTrainsDropRoutes(t *testing.T) {
	g := topology.NewTorus(2, 64).Graph()
	src := rng.New(26)
	var table []int32
	var worms []Worm
	for len(worms) < 2000 {
		s, d := src.Intn(g.NumNodes()), src.Intn(g.NumNodes())
		if s == d {
			continue
		}
		r, next, err := g.AppendRoute(table, g.ShortestPath(s, d, nil))
		if err != nil {
			t.Fatal(err)
		}
		table = next
		worms = append(worms, Worm{ID: len(worms), Route: r, Length: 4, Delay: src.Intn(64), Wavelength: src.Intn(4)})
	}
	eng := NewEngine()
	c := Config{Bandwidth: 4, Rule: optical.ServeFirst, AckLength: 1}
	for _, batch := range [][]Worm{worms, {{Route: route(g, g.ShortestPath(0, 1, nil)), Length: 4}}} {
		if _, err := eng.Run(g, batch, c); err != nil {
			t.Fatal(err)
		}
	}
	viewing := 0
	for _, slab := range eng.arena.trainSlabs {
		for i := range slab {
			if slab[i].links != nil {
				viewing++
			}
		}
	}
	if viewing > 0 {
		t.Errorf("%d pooled train slots still view a route", viewing)
	}
}
