package witness

import (
	"bytes"
	"reflect"
	"strings"
	"testing"

	"repro/internal/optical"
	"repro/internal/paths"
	"repro/internal/rng"
	"repro/internal/sim"
	"repro/internal/topology"

	"repro/internal/core"
)

func col(time, loser, blocker int) sim.Collision {
	return sim.Collision{Time: time, Loser: loser, Blocker: blocker}
}

func TestBuildRoundGraphKeepsEarliest(t *testing.T) {
	g := BuildRoundGraph([]sim.Collision{
		col(5, 1, 2),
		col(3, 1, 7), // earlier: wins
		col(4, 2, 3),
		{Time: 1, Loser: 9, Blocker: 0, LoserIsAck: true}, // excluded
	})
	if g.Blocker[1].Blocker != 7 || g.Blocker[1].Time != 3 {
		t.Errorf("blocker of 1 = %+v, want earliest 7@3", g.Blocker[1])
	}
	if g.Blocker[2].Blocker != 3 {
		t.Errorf("blocker of 2 = %+v", g.Blocker[2])
	}
	if _, ok := g.Blocker[9]; ok {
		t.Error("ack collision leaked into the round graph")
	}
	if got := g.Losers(); !reflect.DeepEqual(got, []int{1, 2}) {
		t.Errorf("losers = %v", got)
	}
}

func TestRootsAndForest(t *testing.T) {
	// Chain 1 -> 2 -> 3, 3 succeeded.
	g := BuildRoundGraph([]sim.Collision{col(0, 1, 2), col(0, 2, 3)})
	if !g.IsForest() {
		t.Error("chain must be a forest")
	}
}

func TestCycleDetection(t *testing.T) {
	// 1 -> 2 -> 3 -> 1 plus a tail 4 -> 1.
	g := BuildRoundGraph([]sim.Collision{
		col(0, 1, 2), col(0, 2, 3), col(0, 3, 1), col(0, 4, 1),
	})
	cycles := g.Cycles()
	if len(cycles) != 1 {
		t.Fatalf("cycles = %v", cycles)
	}
	if !reflect.DeepEqual(cycles[0], []int{1, 2, 3}) {
		t.Errorf("cycle = %v, want [1 2 3]", cycles[0])
	}
	if g.IsForest() {
		t.Error("cycle graph must not be a forest")
	}
}

func TestTieCycleClassification(t *testing.T) {
	// A 2-cycle from one simultaneous tie (same time): a tie artifact.
	tie := BuildRoundGraph([]sim.Collision{col(5, 1, 2), col(5, 2, 1)})
	cycles := tie.Cycles()
	if len(cycles) != 1 || !tie.IsTieCycle(cycles[0]) {
		t.Fatalf("tie cycle misclassified: %v", cycles)
	}
	if !tie.SatisfiesClaim26() {
		t.Error("tie cycles must not violate Claim 2.6")
	}
	if len(tie.ProperCycles()) != 0 {
		t.Error("tie cycle counted as proper")
	}
	// A cycle spanning different times: a genuine mutual-blocking cycle.
	proper := BuildRoundGraph([]sim.Collision{col(4, 1, 2), col(5, 2, 3), col(6, 3, 1)})
	cycles = proper.Cycles()
	if len(cycles) != 1 || proper.IsTieCycle(cycles[0]) {
		t.Fatalf("proper cycle misclassified: %v", cycles)
	}
	if proper.SatisfiesClaim26() {
		t.Error("proper cycle must violate Claim 2.6")
	}
	if (&RoundGraph{}).IsTieCycle(nil) {
		t.Error("empty cycle is not a tie cycle")
	}
}

func TestTwoCycles(t *testing.T) {
	g := BuildRoundGraph([]sim.Collision{
		col(0, 1, 2), col(0, 2, 1),
		col(0, 5, 6), col(0, 6, 7), col(0, 7, 5),
	})
	cycles := g.Cycles()
	if len(cycles) != 2 {
		t.Fatalf("cycles = %v, want two", cycles)
	}
}

func TestAnalyzeAndDepth(t *testing.T) {
	traces := [][]sim.Collision{
		{col(0, 1, 2), col(0, 3, 4)}, // round 1: worms 1, 3 fail
		{col(0, 1, 5)},               // round 2: worm 1 fails again
		{},                           // round 3: clean
	}
	a := Analyze(traces)
	if len(a.Rounds) != 3 {
		t.Fatal("round count")
	}
	if !a.AllForests() || a.TotalCycles() != 0 {
		t.Error("no cycles expected")
	}
	if d := a.WitnessDepth(1); d != 2 {
		t.Errorf("depth(1) = %d, want 2", d)
	}
	if d := a.WitnessDepth(3); d != 1 {
		t.Errorf("depth(3) = %d, want 1", d)
	}
	if d := a.WitnessDepth(2); d != 0 {
		t.Errorf("depth(2) = %d, want 0", d)
	}
}

func TestWitnessTreeLevels(t *testing.T) {
	traces := [][]sim.Collision{
		{col(0, 1, 2), col(0, 2, 3)}, // round 1
		{col(0, 1, 2)},               // round 2
	}
	a := Analyze(traces)
	// Worm 1 failing after 2 rounds: V_0 = {1}; V_1 adds its round-2
	// witness 2; V_2 adds round-1 witnesses of {1, 2} = {2, 3}.
	levels := a.WitnessTree(1, 2)
	want := [][]int{{1}, {1, 2}, {1, 2, 3}}
	if !reflect.DeepEqual(levels, want) {
		t.Errorf("levels = %v, want %v", levels, want)
	}
	// Depth clamped to available rounds.
	if got := a.WitnessTree(1, 99); len(got) != 3 {
		t.Errorf("clamped depth produced %d levels", len(got))
	}
}

// TestClaim26LeveledServeFirst runs the protocol on a leveled collection
// (butterfly q-function) under serve-first and verifies every round's
// blocking graph is a forest — the empirical face of Claim 2.6.
func TestClaim26LeveledServeFirst(t *testing.T) {
	b := topology.NewButterfly(4)
	src := rng.New(99)
	prs := paths.ButterflyRandomQFunction(b, 2, src)
	c, err := paths.Build(b.Graph(), prs, paths.ButterflySelector(b))
	if err != nil {
		t.Fatal(err)
	}
	res, err := core.Run(c, core.Config{
		Bandwidth:        1,
		Length:           3,
		Rule:             optical.ServeFirst,
		RecordCollisions: true,
		CheckInvariants:  true,
	}, src)
	if err != nil {
		t.Fatal(err)
	}
	if !res.AllDelivered {
		t.Fatal("routing incomplete")
	}
	a := Analyze(res.RoundTraces)
	if !a.SatisfiesClaim26() {
		t.Errorf("leveled + serve-first produced %d proper blocking cycles (Claim 2.6 violated)",
			a.TotalProperCycles())
	}
}

// TestClaim26PriorityShortcutFree runs the protocol on a short-cut free
// collection under the priority rule with distinct ranks and verifies the
// tree property.
func TestClaim26PriorityShortcutFree(t *testing.T) {
	tor := topology.NewTorus(2, 5)
	src := rng.New(123)
	prs := paths.RandomPermutation(tor.Graph().NumNodes(), src)
	c, err := paths.Build(tor.Graph(), prs, paths.DimOrderTorus(tor))
	if err != nil {
		t.Fatal(err)
	}
	res, err := core.Run(c, core.Config{
		Bandwidth:        1,
		Length:           3,
		Rule:             optical.Priority,
		Priorities:       core.RandomRanks{},
		RecordCollisions: true,
		CheckInvariants:  true,
	}, src)
	if err != nil {
		t.Fatal(err)
	}
	if !res.AllDelivered {
		t.Fatal("routing incomplete")
	}
	a := Analyze(res.RoundTraces)
	if !a.SatisfiesClaim26() {
		t.Errorf("priority rule with distinct ranks produced %d proper blocking cycles",
			a.TotalProperCycles())
	}
	// Priority with distinct ranks cannot even produce tie cycles: ranks
	// break all simultaneous conflicts.
	if !a.AllForests() {
		t.Error("priority with distinct ranks should have no cycles at all")
	}
}

func TestRenderTree(t *testing.T) {
	traces := [][]sim.Collision{
		{col(0, 1, 2), col(0, 2, 3)},
		{col(0, 1, 2)},
	}
	a := Analyze(traces)
	var buf bytes.Buffer
	a.RenderTree(&buf, 1, 2)
	out := buf.String()
	for _, want := range []string{"witness tree of worm 1", "V_0: 1", "V_1:", "V_2:", "1<-2"} {
		if !strings.Contains(out, want) {
			t.Errorf("rendered tree missing %q:\n%s", want, out)
		}
	}
}
