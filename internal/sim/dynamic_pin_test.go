package sim

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"slices"
	"testing"

	"repro/internal/faults"
	"repro/internal/graph"
	"repro/internal/optical"
	"repro/internal/rng"
	"repro/internal/topology"
)

// dynamicRequests draws n requests with shortest-path routes, lengths in
// [1, maxLen] and arrivals in [0, horizon). The stream first draws a
// permutation that no request uses: the pinned digests were recorded on
// the draws that follow it.
func dynamicRequests(g *graph.Graph, seed uint64, n, maxLen, horizon int) []Request {
	src := rng.New(seed)
	src.Perm(n)
	ps := make([]graph.Path, 0, n)
	reqs := make([]Request, 0, n)
	for len(reqs) < n {
		s, d := src.Intn(g.NumNodes()), src.Intn(g.NumNodes())
		if s == d {
			continue
		}
		ps = append(ps, g.ShortestPath(s, d, nil))
		reqs = append(reqs, Request{Length: 1 + src.Intn(maxLen), Arrival: src.Intn(horizon)})
	}
	return withRoutes(g, reqs, ps)
}

// withRoutes gives reqs[i] the route of ps[i], checked against g in one
// Graph.Routes call, and returns reqs. It panics on a path the check
// refuses.
func withRoutes(g *graph.Graph, reqs []Request, ps []graph.Path) []Request {
	routes, err := g.Routes(ps)
	if err != nil {
		panic(err)
	}
	for i := range reqs {
		reqs[i].Route = routes[i]
	}
	return reqs
}

// dynamicDigest hashes every observable field of a dynamic result: the
// per-request outcomes and the run aggregates.
func dynamicDigest(res *DynamicResult) string {
	h := sha256.New()
	for _, o := range res.Outcomes {
		fmt.Fprintf(h, "%t %t %d %d %d\n", o.Delivered, o.GaveUp, o.Attempts, o.DeliveredAt, o.Latency)
	}
	fmt.Fprintf(h, "%d %d %d\n", res.TotalAttempts, res.Makespan, res.FaultKills)
	return hex.EncodeToString(h.Sum(nil))[:16]
}

// dynamicGoldenCase is one pinned multi-attempt configuration.
type dynamicGoldenCase struct {
	name   string
	rule   optical.Rule
	wreck  WreckagePolicy
	ack    int
	conv   bool
	faults bool
	digest string
}

// dynamicGoldenCases pins RunDynamic's multi-attempt outcomes. How the
// engine stores attempts (outcome slots, agendas, arena recycling) must
// never show in a result, so any change to a digest is a behaviour change.
var dynamicGoldenCases = []dynamicGoldenCase{
	{"serve-first/drain/ack1", optical.ServeFirst, Drain, 1, false, false, "ef1bc34c0080a4a4"},
	{"serve-first/vanish/ack2", optical.ServeFirst, Vanish, 2, false, false, "59e0bcca908c3289"},
	{"serve-first/drain/ack1/conv", optical.ServeFirst, Drain, 1, true, false, "6cb2be59ac6141ec"},
	{"serve-first/vanish/ack0/conv", optical.ServeFirst, Vanish, 0, true, false, "b9fef15f453f5464"},
	{"priority/drain/ack1", optical.Priority, Drain, 1, false, false, "1f0e8c27d5483343"},
	{"priority/vanish/ack1", optical.Priority, Vanish, 1, false, false, "83daa291f0771386"},
	{"priority/drain/ack2/conv", optical.Priority, Drain, 2, true, false, "54702b5a9119748f"},
	{"priority/vanish/ack1/conv", optical.Priority, Vanish, 1, true, false, "58449e1a6d9e3a08"},
	{"serve-first/drain/ack1/faults", optical.ServeFirst, Drain, 1, false, true, "f63fcd254c30a076"},
	{"priority/drain/ack1/conv/faults", optical.Priority, Drain, 1, true, true, "16038288ad074291"},
}

// goldenFaults is the pinned fault plan: a link outage, a message-band
// wavelength outage and an ack-loss window, overlapping the busy period.
func goldenFaults(g *graph.Graph, b int) *faults.Schedule {
	return (&faults.Plan{Faults: []faults.Fault{
		{Kind: faults.LinkOutage, Link: 3, Start: 10, End: 90},
		{Kind: faults.WavelengthOutage, Link: 17, Band: 0, Wavelength: 1, Start: 0, End: 120},
		{Kind: faults.AckLoss, Link: 40, Start: 20, End: 200},
	}}).MustCompile(g, b)
}

// goldenDynamicRun executes one golden case on eng.
func goldenDynamicRun(t *testing.T, eng *Engine, tc dynamicGoldenCase) *DynamicResult {
	t.Helper()
	g := topology.NewTorus(2, 6).Graph()
	reqs := dynamicRequests(g, 0x5eed, 400, 6, 80)
	cfg := DynamicConfig{
		Sim: Config{
			Bandwidth: 2, Rule: tc.rule, Wreckage: tc.wreck, AckLength: tc.ack,
			CheckInvariants: true,
		},
		Retry:       ExponentialBackoff{Base: 4, Cap: 64},
		MaxAttempts: 6,
	}
	if tc.conv {
		cfg.Sim.Conversion = FullConversion
	}
	if tc.faults {
		cfg.Sim.Faults = goldenFaults(g, 2)
	}
	res, err := eng.RunDynamic(g, reqs, cfg, rng.New(77))
	if err != nil {
		t.Fatalf("%s: %v", tc.name, err)
	}
	return res
}

// TestDynamicGoldenDigest pins multi-attempt outcomes across rules,
// wreckage policies, ack lengths, conversion and a fault plan, on fresh
// engines and on one engine reused across every case.
func TestDynamicGoldenDigest(t *testing.T) {
	reused := NewEngine()
	for _, tc := range dynamicGoldenCases {
		res := goldenDynamicRun(t, NewEngine(), tc)
		got := dynamicDigest(res)
		if got != tc.digest {
			t.Errorf("%s: digest %s, want %s (attempts %d, makespan %d, fault kills %d, gave up %d)",
				tc.name, got, tc.digest, res.TotalAttempts, res.Makespan, res.FaultKills, gaveUp(res))
		}
		if res.TotalAttempts <= len(res.Outcomes) {
			t.Errorf("%s: %d attempts for %d requests exercises no retries", tc.name, res.TotalAttempts, len(res.Outcomes))
		}
		if tc.faults && res.FaultKills == 0 {
			t.Errorf("%s: the fault plan killed nothing", tc.name)
		}
		if again := dynamicDigest(goldenDynamicRun(t, reused, tc)); again != got {
			t.Errorf("%s: reused engine digest %s, fresh %s", tc.name, again, got)
		}
	}
}

// TestDynamicSingleAttemptMatchesReference checks the dynamic bookkeeping
// against the per-flit oracle, with and without a fault plan. With one
// attempt per request, a dynamic run is a batch round: the batch lists
// the attempts in launch order (by arrival, then request index), the delay
// is the arrival step, and the wavelength and then the rank are drawn in
// launch order from the run's source. A request is Delivered exactly
// when the reference acknowledges its worm, and the run's fault kills are
// the reference's.
func TestDynamicSingleAttemptMatchesReference(t *testing.T) {
	g := topology.NewTorus(2, 5).Graph()
	const bw = 2
	for _, rule := range []optical.Rule{optical.ServeFirst, optical.Priority} {
		for _, wreck := range []WreckagePolicy{Drain, Vanish} {
			for ack := 0; ack <= 2; ack++ {
				for _, faulty := range []bool{false, true} {
					name := fmt.Sprintf("%v/%v/ack%d/faults=%t", rule, wreck, ack, faulty)
					seed := uint64(100*int(rule) + 10*int(wreck) + ack)
					reqs := dynamicRequests(g, seed, 90, 4, 30)
					cfg := Config{Bandwidth: bw, Rule: rule, Wreckage: wreck, AckLength: ack, CheckInvariants: true}
					if faulty {
						cfg.Faults = faults.MustRandom(g, bw, faults.GenConfig{
							Horizon: 36, LinkOutages: 4, WavelengthOutages: 4, AckLosses: 3,
							StuckCouplers: 2, MinDuration: 4, MaxDuration: 24,
						}, rng.New(seed+1000)).MustCompile(g, bw)
					}
					dres, err := NewEngine().RunDynamic(g, reqs, DynamicConfig{Sim: cfg, MaxAttempts: 1}, rng.New(seed))
					if err != nil {
						t.Fatalf("%s: dynamic: %v", name, err)
					}
					order := make([]int, len(reqs))
					for i := range order {
						order[i] = i
					}
					slices.SortStableFunc(order, func(a, b int) int { return reqs[a].Arrival - reqs[b].Arrival })
					src := rng.New(seed)
					worms := make([]Worm, len(reqs))
					at := make([]int, len(reqs)) // request -> batch position
					for pos, ri := range order {
						r := reqs[ri]
						wl := src.Intn(bw)
						worms[pos] = Worm{Route: r.Route, Length: r.Length, Delay: r.Arrival, Wavelength: wl, Rank: src.Intn(1 << 30)}
						at[ri] = pos
					}
					cfg.CheckInvariants = false
					ref, err := RunReference(g, worms, cfg)
					if err != nil {
						t.Fatalf("%s: reference: %v", name, err)
					}
					acked := 0
					for i, o := range dres.Outcomes {
						ro := ref.Outcomes[at[i]]
						wantAt := -1
						if ro.Acked {
							wantAt = ro.DeliveredAt
							acked++
						}
						if o.Delivered != ro.Acked || o.DeliveredAt != wantAt || o.GaveUp == ro.Acked || o.Attempts != 1 {
							t.Fatalf("%s: request %d: dynamic %+v, reference %+v", name, i, o, ro)
						}
						if ro.Acked && o.Latency != ro.DeliveredAt-reqs[i].Arrival {
							t.Fatalf("%s: request %d: latency %d, want %d", name, i, o.Latency, ro.DeliveredAt-reqs[i].Arrival)
						}
					}
					if dres.TotalAttempts != len(reqs) {
						t.Errorf("%s: %d attempts for %d requests", name, dres.TotalAttempts, len(reqs))
					}
					if acked == 0 || acked == len(reqs) {
						t.Errorf("%s: %d/%d acknowledged: the workload exercises no contention", name, acked, len(reqs))
					}
					if dres.FaultKills != ref.FaultKillCount || faulty != (dres.FaultKills > 0) {
						t.Errorf("%s: %d fault kills, reference %d", name, dres.FaultKills, ref.FaultKillCount)
					}
				}
			}
		}
	}
}

// gaveUp counts the requests that exhausted their attempt budget.
func gaveUp(res *DynamicResult) int {
	n := 0
	for _, o := range res.Outcomes {
		if o.GaveUp {
			n++
		}
	}
	return n
}

// e15Requests builds an E15-shaped trace: perStep requests arrive at every
// step of [0, horizon) on an 8x8 torus, each routed on a shortest path.
func e15Requests(g *graph.Graph, perStep, horizon int) []Request {
	src := rng.New(0xe15)
	n := g.NumNodes()
	ps := make([]graph.Path, 0, perStep*horizon)
	reqs := make([]Request, 0, perStep*horizon)
	for t := 0; t < horizon; t++ {
		for range perStep {
			s, d := src.Intn(n), src.Intn(n-1)
			if d >= s {
				d++
			}
			ps = append(ps, g.ShortestPath(s, d, nil))
			reqs = append(reqs, Request{Length: 4, Arrival: t})
		}
	}
	return withRoutes(g, reqs, ps)
}

// e15Config is E15's protocol: B=2, L=4, one-flit acks, 40 attempts.
var e15Config = DynamicConfig{
	Sim:         Config{Bandwidth: 2, Rule: optical.ServeFirst, AckLength: 1},
	Retry:       ExponentialBackoff{Base: 8},
	MaxAttempts: 40,
}

// TestDynamicMemoryFollowsLiveWork replays an E15-shaped trace (64,000
// requests at 32 per step on an 8x8 torus, roughly 600k attempts): the
// arena recycles each attempt's trains and fragments as they drain, so
// the slots it ever creates stay below the request count, where one slot
// per attempt would exceed it tenfold.
func TestDynamicMemoryFollowsLiveWork(t *testing.T) {
	g := topology.NewTorus(2, 8).Graph()
	reqs := e15Requests(g, 32, 2000)
	e := NewEngine()
	res, err := e.RunDynamic(g, reqs, e15Config, rng.New(0x15))
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("%d requests, %d attempts: %d fragment slots, %d train slots",
		len(reqs), res.TotalAttempts, e.arena.nextFrag, e.arena.nextTrain)
	if res.TotalAttempts < 8*len(reqs) {
		t.Fatalf("%d attempts for %d requests: the trace no longer saturates", res.TotalAttempts, len(reqs))
	}
	if e.arena.nextFrag >= len(reqs) || e.arena.nextTrain >= len(reqs) {
		t.Errorf("created %d fragment and %d train slots for %d requests, want fewer than requests",
			e.arena.nextFrag, e.arena.nextTrain, len(reqs))
	}
}

// TestDynamicAllocsIndependentOfLength pins that a warm engine's
// RunDynamic allocates a constant number of times: a trace four times
// longer costs no extra allocations, because routes, outcome slots,
// agendas and the arena are all reused.
func TestDynamicAllocsIndependentOfLength(t *testing.T) {
	g := topology.NewTorus(2, 8).Graph()
	short, long := e15Requests(g, 8, 250), e15Requests(g, 8, 1000)
	e := NewEngine()
	run := func(reqs []Request) {
		if _, err := e.RunDynamic(g, reqs, e15Config, rng.New(3)); err != nil {
			t.Fatal(err)
		}
	}
	for range 3 { // grow every buffer to the long trace's needs
		run(long)
	}
	a := testing.AllocsPerRun(5, func() { run(short) })
	b := testing.AllocsPerRun(5, func() { run(long) })
	t.Logf("allocs per call: %v for %d requests, %v for %d", a, len(short), b, len(long))
	if a != b {
		t.Errorf("RunDynamic allocates %v times for %d requests but %v times for %d", a, len(short), b, len(long))
	}
}
