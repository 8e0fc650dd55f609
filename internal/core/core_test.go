package core

import (
	"math"
	"slices"
	"testing"

	"repro/internal/faults"
	"repro/internal/graph"
	"repro/internal/optical"
	"repro/internal/paths"
	"repro/internal/rng"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/topology"
)

func torusPermCollection(t *testing.T, side int, seed uint64) *paths.Collection {
	t.Helper()
	tor := topology.NewTorus(2, side)
	src := rng.New(seed)
	prs := paths.RandomPermutation(tor.Graph().NumNodes(), src)
	c, err := paths.Build(tor.Graph(), prs, paths.DimOrderTorus(tor))
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func TestRunDeliversEverything(t *testing.T) {
	c := torusPermCollection(t, 5, 1)
	res, err := Run(c, Config{
		Bandwidth:       2,
		Length:          3,
		Rule:            optical.ServeFirst,
		AckLength:       1,
		CheckInvariants: true,
	}, rng.New(42))
	if err != nil {
		t.Fatal(err)
	}
	if !res.AllDelivered {
		t.Fatalf("not all delivered after %d rounds; still active: %v",
			res.TotalRounds, res.StillActive)
	}
	if res.TotalRounds < 1 {
		t.Error("no rounds recorded")
	}
	if res.TotalTime <= 0 || res.MeasuredTime <= 0 {
		t.Error("times not accounted")
	}
	// Accounting identity: each round contributes Delta + 2(D+L).
	sum := 0
	for _, r := range res.Rounds {
		want := r.DelayRange + 2*(res.Params.Dilation+res.Params.Length)
		if r.AccountedTime != want {
			t.Errorf("round %d accounted %d, want %d", r.Round, r.AccountedTime, want)
		}
		sum += r.AccountedTime
	}
	if sum != res.TotalTime {
		t.Errorf("TotalTime %d != sum %d", res.TotalTime, sum)
	}
}

func TestRunPriorityDelivers(t *testing.T) {
	c := torusPermCollection(t, 5, 3)
	res, err := Run(c, Config{
		Bandwidth:       1,
		Length:          2,
		Rule:            optical.Priority,
		Priorities:      RandomRanks{},
		AckLength:       1,
		CheckInvariants: true,
	}, rng.New(7))
	if err != nil {
		t.Fatal(err)
	}
	if !res.AllDelivered {
		t.Fatalf("priority run incomplete: %d still active", len(res.StillActive))
	}
}

func TestActiveCountsMonotone(t *testing.T) {
	c := torusPermCollection(t, 6, 5)
	res, err := Run(c, Config{
		Bandwidth: 1, Length: 2, Rule: optical.ServeFirst, AckLength: 1,
	}, rng.New(9))
	if err != nil {
		t.Fatal(err)
	}
	prev := c.Size() + 1
	for _, r := range res.Rounds {
		if r.ActiveBefore > prev {
			t.Fatalf("active count grew: %d -> %d", prev, r.ActiveBefore)
		}
		if r.ActiveBefore <= 0 {
			t.Fatal("round run with no active worms")
		}
		prev = r.ActiveBefore - r.Acked
	}
}

func TestDeterministicGivenSeed(t *testing.T) {
	c := torusPermCollection(t, 5, 11)
	run := func() *Result {
		res, err := Run(c, Config{
			Bandwidth: 2, Length: 2, Rule: optical.ServeFirst, AckLength: 1,
		}, rng.New(123))
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	a, b := run(), run()
	if a.TotalRounds != b.TotalRounds || a.TotalTime != b.TotalTime {
		t.Fatalf("nondeterministic: %d/%d vs %d/%d rounds/time",
			a.TotalRounds, a.TotalTime, b.TotalRounds, b.TotalTime)
	}
	for i := range a.Rounds {
		if a.Rounds[i] != b.Rounds[i] {
			t.Fatalf("round %d stats differ", i)
		}
	}
}

func TestEmptyCollection(t *testing.T) {
	g := topology.NewChain(3).Graph()
	c, err := paths.NewCollection(g, nil)
	if err != nil {
		t.Fatal(err)
	}
	res, err := Run(c, Config{Bandwidth: 1, Length: 1}, rng.New(1))
	if err != nil {
		t.Fatal(err)
	}
	if !res.AllDelivered || res.TotalRounds != 0 {
		t.Error("empty collection should be trivially complete")
	}
}

func TestConfigValidation(t *testing.T) {
	c := torusPermCollection(t, 5, 2)
	if _, err := Run(c, Config{Bandwidth: 0, Length: 1}, rng.New(1)); err == nil {
		t.Error("bandwidth 0 accepted")
	}
	if _, err := Run(c, Config{Bandwidth: 1, Length: 0}, rng.New(1)); err == nil {
		t.Error("length 0 accepted")
	}
}

func TestMaxRoundsCap(t *testing.T) {
	// An impossible workload: two identical paths on one wavelength with
	// delay range 1 always collide (same delay, same wavelength, B=1).
	g := topology.NewChain(4).Graph()
	c, err := paths.NewCollection(g, []graph.Path{
		{0, 1, 2, 3}, {0, 1, 2, 3},
	})
	if err != nil {
		t.Fatal(err)
	}
	res, err := Run(c, Config{
		Bandwidth: 1,
		Length:    2,
		Rule:      optical.ServeFirst,
		Schedule:  ConstantSchedule{Delta: 1},
		MaxRounds: 5,
	}, rng.New(4))
	if err != nil {
		t.Fatal(err)
	}
	if res.AllDelivered {
		t.Fatal("identical forced collisions cannot all deliver")
	}
	if res.TotalRounds != 5 {
		t.Errorf("rounds = %d, want cap 5", res.TotalRounds)
	}
	if len(res.StillActive) != 2 {
		t.Errorf("still active = %v", res.StillActive)
	}
}

func TestTrackCongestionHalves(t *testing.T) {
	// With TieEliminateAll and Delta 1 every round keeps congestion at 2;
	// instead verify plumbing: residual congestion is reported and
	// non-increasing on a real workload.
	c := torusPermCollection(t, 6, 21)
	res, err := Run(c, Config{
		Bandwidth:       1,
		Length:          2,
		Rule:            optical.ServeFirst,
		AckLength:       0,
		TrackCongestion: true,
	}, rng.New(5))
	if err != nil {
		t.Fatal(err)
	}
	if res.Rounds[0].ResidualCongestion != res.Params.PathCongestion {
		t.Errorf("round 1 residual %d != initial C %d",
			res.Rounds[0].ResidualCongestion, res.Params.PathCongestion)
	}
	for i := 1; i < len(res.Rounds); i++ {
		if res.Rounds[i].ResidualCongestion > res.Rounds[i-1].ResidualCongestion {
			t.Errorf("residual congestion grew between rounds %d and %d", i, i+1)
		}
	}
}

// TestResidualCongestionMatchesSubset checks the stamped residual pass, with
// its scratch reused across shrinking active sets as in a run, against the
// path congestion of the active sub-collection computed from scratch.
func TestResidualCongestionMatchesSubset(t *testing.T) {
	c := torusPermCollection(t, 6, 4)
	src := rng.New(9)
	s := newCongestionScratch(c.Size())
	active := src.Perm(c.Size())
	for len(active) > 0 {
		sub := make([]graph.Path, len(active))
		for i, idx := range active {
			sub[i] = c.Path(idx)
		}
		if got, want := s.congestion(c.Index(), active), paths.MustCollection(c.Graph(), sub).PathCongestion(); got != want {
			t.Fatalf("%d active: residual congestion %d, want %d", len(active), got, want)
		}
		active = active[:len(active)*2/3]
	}
}

func TestRecordCollisionsTraces(t *testing.T) {
	for _, tc := range []struct {
		side int
		cfg  Config
	}{
		{5, Config{Bandwidth: 1, Length: 2, Rule: optical.ServeFirst, RecordCollisions: true}},
		// A short fixed delay range keeps worms colliding after round 1,
		// where a worm's batch index and collection index differ.
		{8, Config{Bandwidth: 1, Length: 4, Rule: optical.ServeFirst, RecordCollisions: true,
			Schedule: FixedSchedule{Factor: 0.01}}},
	} {
		c := torusPermCollection(t, tc.side, 8)
		res, err := Run(c, tc.cfg, rng.New(2))
		if err != nil {
			t.Fatal(err)
		}
		if len(res.RoundTraces) != res.TotalRounds {
			t.Fatalf("side %d: traces %d != rounds %d", tc.side, len(res.RoundTraces), res.TotalRounds)
		}
		later := 0
		for i, tr := range res.RoundTraces {
			round := i + 1
			if len(tr) != res.Rounds[i].Collisions {
				t.Errorf("side %d: round %d trace length mismatch", tc.side, round)
			}
			if round > 1 {
				later += len(tr)
			}
			// Traces name worms by collection index: a worm named in round
			// r was still active in r, and a cut worm was not acknowledged
			// in r.
			for _, c := range tr {
				for _, w := range []int{c.Loser, c.Blocker} {
					if acked := res.WormRounds[w]; acked != 0 && acked < round {
						t.Errorf("side %d: round %d names worm %d, acknowledged in round %d", tc.side, round, w, acked)
					}
				}
				if res.WormRounds[c.Loser] == round {
					t.Errorf("side %d: round %d: worm %d was cut and acknowledged", tc.side, round, c.Loser)
				}
			}
		}
		if tc.side == 8 && later == 0 {
			t.Errorf("side 8: no collision after round 1; the check of collection indices is vacuous")
		}
	}
}

func TestSchedules(t *testing.T) {
	p := Params{N: 1024, Dilation: 10, PathCongestion: 64, Length: 4, Bandwidth: 2}
	h := HalvingSchedule{}
	prev := h.Range(1, p)
	if prev <= p.Dilation+p.Length {
		t.Error("halving round 1 must exceed D+L")
	}
	for t2 := 2; t2 < 12; t2++ {
		cur := h.Range(t2, p)
		if cur > prev {
			t.Errorf("halving schedule grew at round %d: %d -> %d", t2, prev, cur)
		}
		prev = cur
	}
	// Floor: for large t the range stabilizes.
	if h.Range(30, p) != h.Range(40, p) {
		t.Error("halving schedule should reach a floor")
	}

	f := FixedSchedule{}
	if f.Range(1, p) != f.Range(9, p) {
		t.Error("fixed schedule must be constant")
	}

	d := DoublingSchedule{Base: 2}
	if d.Range(2, p) <= d.Range(1, p) {
		t.Error("doubling schedule must grow")
	}
	if d.Range(50, p) != d.Range(31, p) {
		t.Error("doubling schedule shift must clamp")
	}

	cs := ConstantSchedule{Delta: 7}
	if cs.Range(3, p) != 7 {
		t.Error("constant schedule")
	}
	if (ConstantSchedule{Delta: 0}).Range(1, p) != 1 {
		t.Error("constant schedule floor of 1")
	}

	for _, s := range []DelaySchedule{h, f, d, cs} {
		if s.Name() == "" {
			t.Error("schedule without name")
		}
	}
}

func TestPaperExactLargerThanPractical(t *testing.T) {
	p := Params{N: 256, Dilation: 8, PathCongestion: 32, Length: 4, Bandwidth: 2}
	if PaperExact().Range(1, p) <= (HalvingSchedule{}).Range(1, p) {
		t.Error("paper-exact constants must dominate the practical defaults")
	}
}

func TestPriorityAssigners(t *testing.T) {
	src := rng.New(3)
	active := []int{4, 7, 9}

	rr := RandomRanks{}.Assign(1, active, src)
	if len(rr) != 3 {
		t.Fatal("rank count")
	}
	seen := map[int]bool{}
	for _, r := range rr {
		if seen[r] {
			t.Fatal("random ranks not distinct")
		}
		seen[r] = true
	}

	er := ExplicitRanks{Ranks: []int{0, 0, 0, 0, 40, 0, 0, 70, 0, 90}}.Assign(1, active, src)
	if er[0] != 40 || er[1] != 70 || er[2] != 90 {
		t.Errorf("explicit ranks = %v", er)
	}
}

func TestParamsLog2N(t *testing.T) {
	if (Params{N: 8}).Log2N() != 3 {
		t.Error("Log2N(8)")
	}
	if (Params{N: 0}).Log2N() != 1 {
		t.Error("Log2N floor at N=2")
	}
}

func TestOracleVsRealAcks(t *testing.T) {
	// With oracle acks there can be no duplicate deliveries.
	c := torusPermCollection(t, 5, 31)
	res, err := Run(c, Config{
		Bandwidth: 1, Length: 2, Rule: optical.ServeFirst, AckLength: 0,
	}, rng.New(17))
	if err != nil {
		t.Fatal(err)
	}
	if res.DuplicateAcks != 0 {
		t.Errorf("oracle acks produced %d duplicates", res.DuplicateAcks)
	}
}

func TestWavelengthPolicies(t *testing.T) {
	c := torusPermCollection(t, 5, 41)
	src := rng.New(8)
	active := make([]int, c.Size())
	for i := range active {
		active[i] = i
	}

	rw := (RandomWavelengths{}).Assign(1, active, c, 4, src)
	if len(rw) != len(active) {
		t.Fatal("random policy length")
	}
	for _, w := range rw {
		if w < 0 || w >= 4 {
			t.Fatalf("random wavelength %d out of range", w)
		}
	}

	cw := &ColoredWavelengths{}
	colors, needed := c.GreedyWavelengthAssignment()
	got := cw.Assign(1, active, c, needed, src)
	// With B >= needed, the assignment equals the coloring: collision-free.
	for i, idx := range active {
		if got[i] != colors[idx] {
			t.Fatalf("colored policy diverges from coloring at %d", idx)
		}
	}
	// Cached across rounds: same output.
	again := cw.Assign(2, active, c, needed, src)
	for i := range got {
		if got[i] != again[i] {
			t.Fatal("colored policy not stable across rounds")
		}
	}
	if (RandomWavelengths{}).Name() != "random" || cw.Name() != "colored" {
		t.Error("policy names")
	}
}

func TestColoredWavelengthsCollisionFreeFirstRound(t *testing.T) {
	c := torusPermCollection(t, 6, 17)
	_, needed := c.GreedyWavelengthAssignment()
	res, err := Run(c, Config{
		Bandwidth:   needed,
		Length:      4,
		Rule:        optical.ServeFirst,
		Wavelengths: &ColoredWavelengths{},
	}, rng.New(5))
	if err != nil {
		t.Fatal(err)
	}
	if res.TotalRounds != 1 {
		t.Fatalf("rounds = %d, want 1 (static RWA seeding)", res.TotalRounds)
	}
	if res.Rounds[0].Collisions != 0 {
		t.Errorf("collisions = %d, want 0", res.Rounds[0].Collisions)
	}
}

func TestDrainVanishStatisticallyIndistinguishable(t *testing.T) {
	// Ablation A2's claim, tested properly: the distribution of total
	// rounds under Drain and Vanish wreckage should not differ at the 0.1%
	// level on a moderate workload.
	c := torusPermCollection(t, 6, 61)
	sample := func(pol sim.WreckagePolicy, seed uint64) []float64 {
		src := rng.New(seed)
		var xs []float64
		for i := 0; i < 40; i++ {
			res, err := Run(c, Config{
				Bandwidth: 1, Length: 3, Rule: optical.ServeFirst,
				Wreckage: pol,
			}, src.Split())
			if err != nil {
				t.Fatal(err)
			}
			xs = append(xs, float64(res.TotalRounds))
		}
		return xs
	}
	drain := sample(sim.Drain, 100)
	vanish := sample(sim.Vanish, 200)
	if p := welchP(drain, vanish); p < 0.001 {
		t.Errorf("drain and vanish round counts differ significantly (p = %v)", p)
	}
}

// welchP returns the two-sided p-value of Welch's t statistic for two
// samples, taking the t distribution as normal, which is close at 40
// samples a side.
func welchP(a, b []float64) float64 {
	sem2 := func(xs []float64) float64 { // squared standard error of the mean
		m, ss := stats.Mean(xs), 0.0
		for _, x := range xs {
			ss += (x - m) * (x - m)
		}
		return ss / float64(len(xs)-1) / float64(len(xs))
	}
	z := math.Abs(stats.Mean(a)-stats.Mean(b)) / math.Sqrt(sem2(a)+sem2(b))
	return math.Erfc(z / math.Sqrt2)
}

func TestWormRounds(t *testing.T) {
	c := torusPermCollection(t, 5, 71)
	res, err := Run(c, Config{
		Bandwidth: 1, Length: 2, Rule: optical.ServeFirst, AckLength: 1,
	}, rng.New(6))
	if err != nil {
		t.Fatal(err)
	}
	if len(res.WormRounds) != c.Size() {
		t.Fatal("WormRounds length")
	}
	maxRound := 0
	for i, r := range res.WormRounds {
		if res.AllDelivered && r < 1 {
			t.Fatalf("worm %d has no completion round", i)
		}
		if r > res.TotalRounds {
			t.Fatalf("worm %d round %d beyond total %d", i, r, res.TotalRounds)
		}
		if r > maxRound {
			maxRound = r
		}
	}
	if res.AllDelivered && maxRound != res.TotalRounds {
		t.Errorf("last completion round %d != total rounds %d", maxRound, res.TotalRounds)
	}
}

// TestRoutesReadOnlyToEngine pins that the engine only reads the routes it
// is handed. Worms point their trains at the collection's shared route
// table, while trains are recycled and acks append their reversed links
// into a buffer the train owns; a train that appended into a route view
// instead would overwrite other paths' links. Rounds with acks, with
// conversion and with a reroute run on one reused engine, and every route
// of the collection must still equal a fresh check of its path.
func TestRoutesReadOnlyToEngine(t *testing.T) {
	c := torusPermCollection(t, 6, 5)
	g := c.Graph()
	eng := sim.NewEngine()
	down := graph.LinkID(c.Route(0).Links()[0])
	for i, cfg := range []Config{
		{Bandwidth: 1, Length: 3, AckLength: 2, Rule: optical.ServeFirst},
		{Bandwidth: 2, Length: 2, AckLength: 3, Rule: optical.Priority, Conversion: sim.FullConversion},
		{Bandwidth: 2, Length: 4, AckLength: 1, Rule: optical.ServeFirst, Wreckage: sim.Vanish,
			Faults: &faults.Plan{Faults: []faults.Fault{{Kind: faults.LinkOutage, Link: down, Start: 0, End: 50}}}},
		{Bandwidth: 1, Length: 5, AckLength: 5, Rule: optical.Priority, CheckInvariants: true},
	} {
		res, err := RunWithSimulator(c, cfg, rng.New(uint64(i)+11), eng)
		if err != nil {
			t.Fatalf("config %d: %v", i, err)
		}
		if !res.AllDelivered {
			t.Fatalf("config %d: %d worms still active", i, len(res.StillActive))
		}
		if cfg.Faults != nil && res.TotalRerouted == 0 {
			t.Fatalf("config %d: no worm was rerouted", i)
		}
	}
	for i := 0; i < c.Size(); i++ {
		fresh, _, err := g.AppendRoute(nil, c.Path(i))
		if err != nil {
			t.Fatal(err)
		}
		if got := c.Route(i).Links(); !slices.Equal(got, fresh.Links()) {
			t.Fatalf("route %d after the runs: %v, a fresh check gives %v", i, got, fresh.Links())
		}
	}
}
