package sim

import (
	"math"
	"slices"
	"strings"
	"testing"

	"repro/internal/graph"
	"repro/internal/optical"
	"repro/internal/rng"
	"repro/internal/topology"
)

func TestDynamicSingleRequest(t *testing.T) {
	g := chain(5)
	res, err := NewEngine().RunDynamic(g, []Request{
		{Route: route(g, graph.Path{0, 1, 2, 3, 4}), Length: 3, Arrival: 2},
	}, DynamicConfig{
		Sim: Config{Bandwidth: 1, Rule: optical.ServeFirst, CheckInvariants: true},
	}, rng.New(1))
	if err != nil {
		t.Fatal(err)
	}
	o := res.Outcomes[0]
	if !o.Delivered || o.Attempts != 1 || o.GaveUp {
		t.Fatalf("outcome = %+v", o)
	}
	// Delivered at arrival + k + L - 2 = 2 + 4 + 3 - 2 = 7; latency 5.
	if o.DeliveredAt != 7 || o.Latency != 5 {
		t.Errorf("deliveredAt=%d latency=%d, want 7/5", o.DeliveredAt, o.Latency)
	}
	if res.TotalAttempts != 1 {
		t.Errorf("total attempts = %d", res.TotalAttempts)
	}
}

func TestDynamicRetryAfterConflict(t *testing.T) {
	// A long-lived blocker occupies the link when the request first
	// arrives; the retry succeeds once the blocker has passed.
	g := chain(4)
	res, err := NewEngine().RunDynamic(g, []Request{
		{Route: route(g, graph.Path{0, 1, 2, 3}), Length: 20, Arrival: 0},
		{Route: route(g, graph.Path{0, 1, 2}), Length: 2, Arrival: 3},
	}, DynamicConfig{
		Sim:   Config{Bandwidth: 1, Rule: optical.ServeFirst, CheckInvariants: true},
		Retry: FixedBackoff{Range: 8},
	}, rng.New(7))
	if err != nil {
		t.Fatal(err)
	}
	if !res.Outcomes[0].Delivered || res.Outcomes[0].Attempts != 1 {
		t.Fatalf("blocker outcome = %+v", res.Outcomes[0])
	}
	o := res.Outcomes[1]
	if !o.Delivered {
		t.Fatalf("request 1 never delivered: %+v", o)
	}
	if o.Attempts < 2 {
		t.Errorf("request 1 should have needed a retry, attempts = %d", o.Attempts)
	}
	if o.Latency <= o.DeliveredAt-o.Latency && o.Latency < 10 {
		t.Logf("latency = %d", o.Latency)
	}
	if res.TotalAttempts != res.Outcomes[0].Attempts+o.Attempts {
		t.Errorf("total attempts %d inconsistent", res.TotalAttempts)
	}
}

func TestDynamicGiveUp(t *testing.T) {
	// Permanent blocker: a worm so long it outlasts every retry window.
	g := chain(4)
	res, err := NewEngine().RunDynamic(g, []Request{
		{Route: route(g, graph.Path{0, 1, 2, 3}), Length: 4000, Arrival: 0},
		{Route: route(g, graph.Path{0, 1, 2}), Length: 2, Arrival: 5},
	}, DynamicConfig{
		Sim:         Config{Bandwidth: 1, Rule: optical.ServeFirst},
		Retry:       FixedBackoff{Range: 4},
		MaxAttempts: 3,
	}, rng.New(3))
	if err != nil {
		t.Fatal(err)
	}
	o := res.Outcomes[1]
	if o.Delivered || !o.GaveUp {
		t.Fatalf("request 1 should give up: %+v", o)
	}
	if o.Attempts != 3 {
		t.Errorf("attempts = %d, want 3", o.Attempts)
	}
}

func TestDynamicWithAcks(t *testing.T) {
	g := chain(4)
	res, err := NewEngine().RunDynamic(g, []Request{
		{Route: route(g, graph.Path{0, 1, 2, 3}), Length: 2, Arrival: 0},
		{Route: route(g, graph.Path{3, 2, 1, 0}), Length: 2, Arrival: 0},
	}, DynamicConfig{
		Sim: Config{Bandwidth: 1, Rule: optical.ServeFirst, AckLength: 1, CheckInvariants: true},
	}, rng.New(5))
	if err != nil {
		t.Fatal(err)
	}
	for i, o := range res.Outcomes {
		if !o.Delivered {
			t.Errorf("request %d not delivered: %+v", i, o)
		}
	}
}

func TestDynamicDeterministic(t *testing.T) {
	tor := topology.NewTorus(2, 5)
	g := tor.Graph()
	build := func() []Request {
		src := rng.New(99)
		var reqs []Request
		for id := 0; id < 40; id++ {
			s, d := src.Intn(25), src.Intn(25)
			if s == d {
				continue
			}
			reqs = append(reqs, Request{
				Route: route(g, g.ShortestPath(s, d, nil)), Length: 3, Arrival: src.Intn(60),
			})
		}
		return reqs
	}
	run := func() *DynamicResult {
		res, err := NewEngine().RunDynamic(g, build(), DynamicConfig{
			Sim: Config{Bandwidth: 2, Rule: optical.ServeFirst, AckLength: 1},
		}, rng.New(42))
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	a, b := run(), run()
	if a.TotalAttempts != b.TotalAttempts || a.Makespan != b.Makespan {
		t.Fatal("nondeterministic dynamic run")
	}
	for i := range a.Outcomes {
		if a.Outcomes[i] != b.Outcomes[i] {
			t.Fatalf("outcome %d differs", i)
		}
	}
}

// geometric draws from src the number of failures before the first
// success of a Bernoulli(p) sequence, 0 < p < 1, by inversion.
func geometric(src *rng.Source, p float64) int {
	u := src.Float64()
	for u == 0 {
		u = src.Float64()
	}
	return int(math.Floor(math.Log(u) / math.Log(1-p)))
}

func TestDynamicLoadAllDelivered(t *testing.T) {
	// Moderate Poisson-ish load on a torus: everything should eventually
	// get through with exponential backoff.
	tor := topology.NewTorus(2, 6)
	g := tor.Graph()
	src := rng.New(11)
	var reqs []Request
	tArr := 0
	for id := 0; id < 120; id++ {
		tArr += geometric(src, 0.25) // mean inter-arrival 3 steps
		s, d := src.Intn(36), src.Intn(36)
		if s == d {
			d = (s + 1) % 36
		}
		reqs = append(reqs, Request{
			Route: route(g, g.ShortestPath(s, d, nil)), Length: 4, Arrival: tArr,
		})
	}
	res, err := NewEngine().RunDynamic(g, reqs, DynamicConfig{
		Sim: Config{Bandwidth: 2, Rule: optical.ServeFirst, AckLength: 1},
	}, rng.New(13))
	if err != nil {
		t.Fatal(err)
	}
	for i, o := range res.Outcomes {
		if !o.Delivered {
			t.Errorf("request %d undelivered (%+v)", i, o)
		}
	}
	if res.TotalAttempts < len(reqs) {
		t.Error("attempts below request count")
	}
}

func TestDynamicValidation(t *testing.T) {
	g := chain(3)
	cases := map[string]struct {
		reqs []Request
		cfg  DynamicConfig
	}{
		"bandwidth": {
			[]Request{{Route: route(g, graph.Path{0, 1}), Length: 1}},
			DynamicConfig{},
		},
		"no route": {
			[]Request{{Length: 1}},
			DynamicConfig{Sim: Config{Bandwidth: 1}},
		},
		// An identical graph is not the graph the route was checked on.
		"route on another graph": {
			[]Request{{Route: route(chain(3), graph.Path{0, 1}), Length: 1}},
			DynamicConfig{Sim: Config{Bandwidth: 1}},
		},
		"zero length": {
			[]Request{{Route: route(g, graph.Path{0, 1}), Length: 0}},
			DynamicConfig{Sim: Config{Bandwidth: 1}},
		},
		"negative arrival": {
			[]Request{{Route: route(g, graph.Path{0, 1}), Length: 1, Arrival: -1}},
			DynamicConfig{Sim: Config{Bandwidth: 1}},
		},
		// Engine.Run rejects a worm that revisits a directed link (it
		// would collide with itself on every attempt); so must RunDynamic.
		"revisited link": {
			[]Request{{Route: route(g, graph.Path{0, 1, 0, 1, 2}), Length: 2}},
			DynamicConfig{Sim: Config{Bandwidth: 1}},
		},
		"negative ack length": {
			[]Request{{Route: route(g, graph.Path{0, 1}), Length: 1}},
			DynamicConfig{Sim: Config{Bandwidth: 1, AckLength: -1}},
		},
	}
	for name, tc := range cases {
		if _, err := NewEngine().RunDynamic(g, tc.reqs, tc.cfg, rng.New(1)); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
	revisit := graph.Path{0, 1, 0, 1, 2}
	_, runErr := NewEngine().Run(g, []Worm{{Route: route(g, revisit), Length: 2}}, Config{Bandwidth: 1})
	_, dynErr := NewEngine().RunDynamic(g, []Request{{Route: route(g, revisit), Length: 2}}, DynamicConfig{Sim: Config{Bandwidth: 1}}, rng.New(1))
	if runErr == nil || dynErr == nil || !strings.Contains(runErr.Error(), "revisits a directed link") ||
		!strings.Contains(dynErr.Error(), "revisits a directed link") {
		t.Errorf("revisited link: Run error %v, RunDynamic error %v; want both to reject the revisit", runErr, dynErr)
	}
}

func TestBackoffPolicies(t *testing.T) {
	tests := []struct {
		name    string
		policy  ExponentialBackoff
		attempt int
		want    int
	}{
		{"first attempt returns base", ExponentialBackoff{Base: 4, Cap: 64}, 1, 4},
		{"second attempt doubles", ExponentialBackoff{Base: 4, Cap: 64}, 2, 8},
		{"capped at ceiling", ExponentialBackoff{Base: 4, Cap: 64}, 10, 64},
		{"exactly at ceiling", ExponentialBackoff{Base: 4, Cap: 64}, 5, 64},
		{"zero value defaults base to 8", ExponentialBackoff{}, 1, 8},
		{"zero value defaults cap to 1024*base", ExponentialBackoff{}, 60, 8 * 1024},
		{"shift clamp at attempt 30", ExponentialBackoff{Base: 1, Cap: 1 << 40}, 30, 1 << 29},
		{"attempt 31 matches the clamp", ExponentialBackoff{Base: 1, Cap: 1 << 40}, 31, 1 << 29},
		{"huge attempt does not overflow", ExponentialBackoff{Base: 4}, 1 << 20, 4 * 1024},
	}
	for _, tc := range tests {
		if got := tc.policy.Backoff(tc.attempt); got != tc.want {
			t.Errorf("%s: Backoff(%d) = %d, want %d", tc.name, tc.attempt, got, tc.want)
		}
	}
	if (FixedBackoff{Range: 7}).Backoff(3) != 7 || (FixedBackoff{}).Backoff(1) != 1 {
		t.Error("fixed backoff values")
	}
	if (ExponentialBackoff{}).Name() != "exponential" || (FixedBackoff{}).Name() != "fixed" {
		t.Error("names")
	}
}

// TestDynamicMaxAttemptsBoundary pins give-up accounting at the attempt
// budget: the blocked request's final attempt leaves Attempts exactly at
// the effective MaxAttempts (including the documented 0 = 50 default),
// GaveUp set, and Delivered/GaveUp mutually exclusive for every request.
func TestDynamicMaxAttemptsBoundary(t *testing.T) {
	cases := []struct {
		name         string
		maxAttempts  int
		wantAttempts int
	}{
		{"one attempt", 1, 1},
		{"small budget", 3, 3},
		{"odd budget", 7, 7},
		{"zero means DefaultMaxAttempts", 0, DefaultMaxAttempts},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			// Permanent blocker: a worm so long it outlasts every retry
			// window of the blocked request.
			g := chain(4)
			res, err := NewEngine().RunDynamic(g, []Request{
				{Route: route(g, graph.Path{0, 1, 2, 3}), Length: 4000, Arrival: 0},
				{Route: route(g, graph.Path{0, 1, 2}), Length: 2, Arrival: 5},
			}, DynamicConfig{
				Sim:         Config{Bandwidth: 1, Rule: optical.ServeFirst, CheckInvariants: true},
				Retry:       FixedBackoff{Range: 4},
				MaxAttempts: tc.maxAttempts,
			}, rng.New(3))
			if err != nil {
				t.Fatal(err)
			}
			blocker, blocked := res.Outcomes[0], res.Outcomes[1]
			if !blocker.Delivered || blocker.GaveUp {
				t.Fatalf("blocker outcome = %+v", blocker)
			}
			if blocked.Delivered || !blocked.GaveUp {
				t.Fatalf("blocked request should give up: %+v", blocked)
			}
			if blocked.Attempts != tc.wantAttempts {
				t.Errorf("Attempts = %d, want exactly MaxAttempts = %d", blocked.Attempts, tc.wantAttempts)
			}
			if blocked.DeliveredAt != -1 || blocked.Latency != -1 {
				t.Errorf("given-up request has delivery fields set: %+v", blocked)
			}
			if res.TotalAttempts != blocker.Attempts+blocked.Attempts {
				t.Errorf("TotalAttempts = %d, want %d", res.TotalAttempts, blocker.Attempts+blocked.Attempts)
			}
			for i, o := range res.Outcomes {
				if o.Delivered && o.GaveUp {
					t.Errorf("request %d both Delivered and GaveUp", i)
				}
			}
		})
	}
}

// TestEngineRunDynamicReuse pins engine reuse: back-to-back runs on
// one engine match fresh-engine runs exactly.
func TestEngineRunDynamicReuse(t *testing.T) {
	tor := topology.NewTorus(2, 5)
	g := tor.Graph()
	build := func() []Request {
		src := rng.New(99)
		reqs := make([]Request, 0, 30)
		for i := 0; i < 30; i++ {
			a, b := src.Intn(10), src.Intn(10)
			if a == b {
				b = (b + 1) % 10
			}
			reqs = append(reqs, Request{Route: route(g, g.ShortestPath(a, b, nil)), Length: 3, Arrival: src.Intn(40)})
		}
		return reqs
	}
	cfg := DynamicConfig{
		Sim:   Config{Bandwidth: 2, Rule: optical.ServeFirst, AckLength: 1, CheckInvariants: true},
		Retry: ExponentialBackoff{Base: 4},
	}
	e := NewEngine()
	for round := 0; round < 3; round++ {
		reused, err := e.RunDynamic(g, build(), cfg, rng.New(123))
		if err != nil {
			t.Fatal(err)
		}
		fresh, err := NewEngine().RunDynamic(g, build(), cfg, rng.New(123))
		if err != nil {
			t.Fatal(err)
		}
		if len(reused.Outcomes) != len(fresh.Outcomes) {
			t.Fatalf("round %d: outcome counts differ", round)
		}
		for i := range reused.Outcomes {
			if reused.Outcomes[i] != fresh.Outcomes[i] {
				t.Fatalf("round %d request %d: reused %+v fresh %+v", round, i, reused.Outcomes[i], fresh.Outcomes[i])
			}
		}
		if reused.TotalAttempts != fresh.TotalAttempts || reused.Makespan != fresh.Makespan || reused.FaultKills != fresh.FaultKills {
			t.Fatalf("round %d: aggregates differ: %+v vs %+v", round, reused, fresh)
		}
	}

	// An engine that ran a faulted, converting dynamic run must then run a
	// batch on a different graph exactly like a fresh engine, and the next
	// dynamic run exactly like a fresh one too: recycled trains carry
	// conversion tables, keys and links of another geometry.
	faulted := dynamicGoldenCases[len(dynamicGoldenCases)-1]
	if !faulted.conv || !faulted.faults {
		t.Fatal("the last golden case must convert and carry faults")
	}
	if got := dynamicDigest(goldenDynamicRun(t, e, faulted)); got != faulted.digest {
		t.Fatalf("faulted converting run on a reused engine: digest %s, want %s", got, faulted.digest)
	}
	bg := topology.NewTorus(2, 7).Graph()
	worms := randomWorms(bg, rng.New(31), 120, 6, 20, 2)
	bcfg := Config{Bandwidth: 2, Rule: optical.Priority, AckLength: 2, CheckInvariants: true}
	want, err := NewEngine().Run(bg, worms, bcfg)
	if err != nil {
		t.Fatal(err)
	}
	wantOut := append([]Outcome(nil), want.Outcomes...)
	got, err := e.Run(bg, worms, bcfg)
	if err != nil {
		t.Fatal(err)
	}
	for i := range wantOut {
		if got.Outcomes[i] != wantOut[i] {
			t.Fatalf("batch after a dynamic run, worm %d: reused %+v fresh %+v", i, got.Outcomes[i], wantOut[i])
		}
	}
	if got.CollisionCount != want.CollisionCount || got.Makespan != want.Makespan ||
		got.MessageBusySlotSteps != want.MessageBusySlotSteps ||
		got.AckBusySlotSteps != want.AckBusySlotSteps || got.AckedCount != want.AckedCount {
		t.Fatalf("batch after a dynamic run: aggregates differ: reused %+v fresh %+v", got, want)
	}
	for _, tc := range dynamicGoldenCases[:2] {
		if got := dynamicDigest(goldenDynamicRun(t, e, tc)); got != tc.digest {
			t.Fatalf("%s after a batch on another graph: digest %s, want %s", tc.name, got, tc.digest)
		}
	}
}

// TestDynamicRequestRoutesReadOnly pins that RunDynamic reads the
// caller's routes in place and never writes into them. The requests'
// routes share one Graph.Routes table; one engine runs them repeatedly
// with one-flit acks, conversion everywhere and a fault plan that forces
// retries, and after every run each route must still equal a fresh check
// of its path.
func TestDynamicRequestRoutesReadOnly(t *testing.T) {
	g := topology.NewTorus(2, 6).Graph()
	src := rng.New(0x40)
	var ps []graph.Path
	var reqs []Request
	for len(reqs) < 300 {
		if s, d := src.Intn(g.NumNodes()), src.Intn(g.NumNodes()); s != d {
			ps = append(ps, g.ShortestPath(s, d, nil))
			reqs = append(reqs, Request{Length: 1 + src.Intn(6), Arrival: src.Intn(80)})
		}
	}
	reqs = withRoutes(g, reqs, ps)
	e := NewEngine()
	for run, rule := range []optical.Rule{optical.ServeFirst, optical.Priority, optical.ServeFirst, optical.Priority} {
		res, err := e.RunDynamic(g, reqs, DynamicConfig{
			Sim: Config{
				Bandwidth: 2, Rule: rule, AckLength: 1, Conversion: FullConversion,
				Faults: goldenFaults(g, 2), CheckInvariants: true,
			},
			Retry:       ExponentialBackoff{Base: 4, Cap: 64},
			MaxAttempts: 6,
		}, rng.New(uint64(run)))
		if err != nil {
			t.Fatal(err)
		}
		if res.TotalAttempts <= len(reqs) || res.FaultKills == 0 {
			t.Fatalf("run %d: %d attempts for %d requests, %d fault kills: no retries forced",
				run, res.TotalAttempts, len(reqs), res.FaultKills)
		}
		for i, r := range reqs {
			want := route(g, ps[i])
			if !r.Route.On(g) || r.Route.Revisits() != want.Revisits() || !slices.Equal(r.Route.Links(), want.Links()) {
				t.Fatalf("run %d: request %d's route reads %v, a fresh check of its path %v",
					run, i, r.Route.Links(), want.Links())
			}
		}
	}
}
