package jobs

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"testing"

	"repro/internal/canon"
	"repro/internal/faults"
	"repro/internal/topology"
	"repro/internal/workload"
)

// testSpec is the canonical small route job used across the package's
// tests: a 3x3 torus permutation, two wavelengths, four trials.
func testSpec(seed uint64, trials int) Spec {
	return Spec{Route: &RouteSpec{
		Network:  NetworkSpec{Kind: "torus", Dims: 2, Side: 3},
		Workload: WorkloadSpec{Kind: "permutation"},
		Protocol: ProtocolSpec{Bandwidth: 2, Length: 2},
		Seed:     seed,
		Trials:   trials,
	}}
}

// TestSpecKeyGolden pins a job key. Keys are content addresses of the
// canonical spec encoding: if this value drifts, every stored result in
// every deployed store is orphaned. Do not update casually.
// (Repinned once when the dynamic job kind was added: canon emits every
// Spec field explicitly, so growing the schema rekeys all jobs.)
func TestSpecKeyGolden(t *testing.T) {
	key, err := testSpec(7, 4).Key()
	if err != nil {
		t.Fatal(err)
	}
	const want = "c94e6205db9314edcb541c76a68a26a8353126f79d4bdb49504c0b095cc9eb3a"
	if key != want {
		t.Errorf("job key drifted:\n got %s\nwant %s", key, want)
	}
}

// TestSpecKeyNormalization: omitted defaults and explicit defaults are
// the same job.
func TestSpecKeyNormalization(t *testing.T) {
	minimal := Spec{Route: &RouteSpec{
		Network: NetworkSpec{Kind: "torus", Dims: 2, Side: 3},
		Seed:    1,
	}}
	explicit := Spec{Route: &RouteSpec{
		Network:  NetworkSpec{Kind: "torus", Dims: 2, Side: 3},
		Workload: WorkloadSpec{Kind: "permutation"},
		Protocol: ProtocolSpec{
			Bandwidth: 1, Length: 1,
			Rule: "serve-first", Tie: "eliminate-all",
			Wreckage: "drain", Schedule: "halving",
		},
		Seed:   1,
		Trials: 1,
	}}
	k1, err := minimal.Key()
	if err != nil {
		t.Fatal(err)
	}
	k2, err := explicit.Key()
	if err != nil {
		t.Fatal(err)
	}
	if k1 != k2 {
		t.Errorf("defaulted and explicit specs keyed differently: %s vs %s", k1, k2)
	}
	// Any parameter change must change the key.
	other := explicit
	r := *other.Route
	r.Seed = 2
	other.Route = &r
	k3, err := other.Key()
	if err != nil {
		t.Fatal(err)
	}
	if k3 == k1 {
		t.Error("different seeds share a key")
	}
}

// TestSpecKeyJSONOrderInsensitive: the key survives a trip through
// differently ordered JSON, which is how HTTP clients actually send it.
func TestSpecKeyJSONOrderInsensitive(t *testing.T) {
	var a, b Spec
	ja := `{"route":{"seed":9,"network":{"kind":"ring","size":8},"trials":2}}`
	jb := `{"route":{"trials":2,"network":{"size":8,"kind":"ring"},"seed":9}}`
	if err := json.Unmarshal([]byte(ja), &a); err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal([]byte(jb), &b); err != nil {
		t.Fatal(err)
	}
	ka, err := a.Key()
	if err != nil {
		t.Fatal(err)
	}
	kb, err := b.Key()
	if err != nil {
		t.Fatal(err)
	}
	if ka != kb {
		t.Errorf("field order changed the key: %s vs %s", ka, kb)
	}
}

// unbuildableNetworks are within the kinds' size bounds but outside their
// constructors' preconditions: a torus of side 2, a ring of 2 nodes, a CCC
// and a star graph of dimension 2, a circulant offset above size/2, and
// circulants whose offsets share a factor with the size, which are not
// connected and so have no translation system.
var unbuildableNetworks = []NetworkSpec{
	{Kind: "torus", Dims: 2, Side: 2},
	{Kind: "ring", Size: 2},
	{Kind: "ccc", Dim: 2},
	{Kind: "star", Dim: 2},
	{Kind: "circulant", Size: 8, Offsets: []int{5}},
	{Kind: "circulant", Size: 8, Offsets: []int{2}},
	{Kind: "circulant", Size: 10, Offsets: []int{5}},
	{Kind: "circulant", Size: 12, Offsets: []int{3, 6}},
	{Kind: "circulant", Size: 9, Offsets: []int{3, 3}},
}

// TestSpecValidate rejects malformed specs with telling messages.
// overlongSpecs are specs whose runs would span more steps than maxSpan:
// a dynamic job whose fixed or exponential backoff range is 2^20 or 2^22
// steps, a route job with the doubling schedule and the default
// max_rounds (80 here) whose destinations a permanent outage cuts off,
// so its delay range doubles every round, and a route job with a 10^12
// flit acknowledgement. Each validated before the span bound; at the
// parent they grew the engine's agendas by about 115 bytes per step or
// held a worker for hours.
func overlongSpecs(t testing.TB) map[string]Spec {
	twoRequests := &workload.Trace{Version: workload.TraceVersion, Nodes: 8, Horizon: 1,
		Arrivals: []workload.Arrival{{Dst: 1}, {Dst: 1}}}
	dynamic := func(backoff string, base int) Spec {
		return Spec{Dynamic: &DynamicSpec{Network: NetworkSpec{Kind: "ring", Size: 8}, Trace: twoRequests,
			Protocol: DynamicProtocolSpec{Bandwidth: 1, Backoff: backoff, BackoffBase: base, MaxAttempts: 3}, Trials: 1}}
	}
	var intoOutput []faults.Fault // both links into the butterfly's output node 8
	g := topology.NewButterfly(2).Graph()
	for id := 0; id < g.NumLinks(); id++ {
		if g.Link(id).To == 8 {
			intoOutput = append(intoOutput, faults.Fault{Kind: faults.LinkOutage, Link: id})
		}
	}
	if len(intoOutput) != 2 {
		t.Fatalf("butterfly(2) has %d links into node 8, want 2", len(intoOutput))
	}
	return map[string]Spec{
		"dynamic fixed backoff 2^20":       dynamic("fixed", 1<<20),
		"dynamic fixed backoff 2^22":       dynamic("fixed", 1<<22),
		"dynamic exponential backoff 2^20": dynamic("exponential", 1<<20),
		"doubling to an unreachable output": {Route: &RouteSpec{Network: NetworkSpec{Kind: "butterfly", Dim: 2},
			Protocol: ProtocolSpec{Schedule: "doubling"}, Faults: &faults.Plan{Faults: intoOutput}, Trials: 1}},
		"ack length 10^12": {Route: &RouteSpec{Network: NetworkSpec{Kind: "ring", Size: 8},
			Protocol: ProtocolSpec{AckLength: 1e12}, Trials: 1}},
	}
}

func TestSpecValidate(t *testing.T) {
	cases := map[string]Spec{
		"neither":         {},
		"both":            {Route: &RouteSpec{Network: NetworkSpec{Kind: "ring", Size: 4}}, Experiment: &ExperimentSpec{ID: "A1"}},
		"unknown network": {Route: &RouteSpec{Network: NetworkSpec{Kind: "klein-bottle"}}},
		"huge torus":      {Route: &RouteSpec{Network: NetworkSpec{Kind: "torus", Dims: 9, Side: 3}}},
		"bad workload":    {Route: &RouteSpec{Network: NetworkSpec{Kind: "ring", Size: 4}, Workload: WorkloadSpec{Kind: "chaos"}}},
		"bad rule":        {Route: &RouteSpec{Network: NetworkSpec{Kind: "ring", Size: 4}, Protocol: ProtocolSpec{Rule: "anarchy"}}},
		"bad offsets":     {Route: &RouteSpec{Network: NetworkSpec{Kind: "circulant", Size: 8, Offsets: []int{9}}}},
		"no exp id":       {Experiment: &ExperimentSpec{}},
		"trials":          {Route: &RouteSpec{Network: NetworkSpec{Kind: "ring", Size: 4}, Trials: 1 << 20}},
		"exp trials -1":   {Experiment: &ExperimentSpec{ID: "E1", Trials: -1}},
		"exp trials >max": {Experiment: &ExperimentSpec{ID: "E1", Trials: 10001}},
		"bad wreckage":    {Route: &RouteSpec{Network: NetworkSpec{Kind: "ring", Size: 4}, Protocol: ProtocolSpec{Wreckage: "vanishh"}}},
		// 16,777,216 nodes and 134,217,728 links: about 4 GB of graph.
		"4-dim torus of side 64": {Route: &RouteSpec{Network: NetworkSpec{Kind: "torus", Dims: 4, Side: 64}}},
		// 262,144 paths of up to 2,048 hops.
		"64-function on a 4096-ring": {Route: &RouteSpec{Network: NetworkSpec{Kind: "ring", Size: 4096}, Workload: WorkloadSpec{Kind: "qfunction", Q: 64}}},
		// The 3-dim torus of side 26 has 105,456 links; at bandwidth 159
		// the engine rounds up to 256 wavelengths, 53,993,472 slots.
		"torus(3, 26) at bandwidth 159": {Route: &RouteSpec{Network: NetworkSpec{Kind: "torus", Dims: 3, Side: 26}, Protocol: ProtocolSpec{Bandwidth: 159}}},
	}
	for _, n := range unbuildableNetworks {
		cases[fmt.Sprintf("unbuildable %+v", n)] = Spec{Route: &RouteSpec{Network: n}}
	}
	for name, s := range overlongSpecs(t) {
		cases[name] = s
	}
	cases["max_rounds over 10000"] = Spec{Route: &RouteSpec{Network: NetworkSpec{Kind: "ring", Size: 8},
		Protocol: ProtocolSpec{MaxRounds: maxRounds + 1}}}
	for name, s := range cases {
		if err := s.Validate(); err == nil {
			t.Errorf("%s: Validate accepted %+v", name, s)
		}
	}
	// A ring or torus reads no dim, so a negative one is ignored as it
	// always was; it must not reach the butterfly's 1 << dim.
	negativeDim := testDynamicSpec(t, 1, 1)
	negativeDim.Dynamic.Network.Dim = -1
	for _, ok := range []Spec{
		testSpec(1, 1),
		{Route: &RouteSpec{Network: NetworkSpec{Kind: "ring", Size: 8, Dim: -1}}},
		{Route: &RouteSpec{Network: NetworkSpec{Kind: "torus", Dims: 2, Side: 4, Dim: -64}}},
		negativeDim,
	} {
		if err := ok.Validate(); err != nil {
			t.Errorf("valid spec rejected: %v", err)
		}
	}
	// For each serving limit and job kind, a spec exactly at the limit
	// validates and one just over it does not. A 4-dim torus of side 16
	// has 2^19 links, so bandwidth 32 needs exactly 2^25 engine slots; a
	// 3-dim torus of side 26 has 105,456 links, so bandwidth 128 fits and
	// 129, which the engine lays out as 256, does not, although 2 · links
	// · 129 would; a 4,096-ring's paths have at most 2,048 hops, so 8,192
	// requests route at most 2^24 hops. A doubling route job on the
	// butterfly of dimension 2 (4 requests, D = 2, L = 1) spans 2^20 + 3
	// delay steps in its 21st round plus 2(D + L) = 6, so an ack of 2^21 -
	// (2^20 + 9) flits fills its span to 2^21. A dynamic job of two
	// requests on the 8-ring (D = 4, L = 1) over a horizon of 2 spans
	// 2 + 3(backoff + 10) steps in 3 attempts: 2^21 at a fixed backoff of
	// 699,040.
	torus := NetworkSpec{Kind: "torus", Dims: 4, Side: 16}
	odd := NetworkSpec{Kind: "torus", Dims: 3, Side: 26}
	ring := NetworkSpec{Kind: "ring", Size: 4096}
	trace := func(nodes, arrivals int) *workload.Trace {
		tr := &workload.Trace{Version: workload.TraceVersion, Nodes: nodes, Horizon: 1,
			Arrivals: make([]workload.Arrival, arrivals)}
		for i := range tr.Arrivals {
			tr.Arrivals[i].Dst = 1
		}
		return tr
	}
	for extra := 0; extra <= 1; extra++ {
		dynamicSlots := func(n NetworkSpec, nodes, bandwidth int) Spec {
			s := testDynamicSpec(t, 1, 1)
			s.Dynamic.Network, s.Dynamic.Trace = n, trace(nodes, 1)
			s.Dynamic.Protocol.Bandwidth = bandwidth
			return s
		}
		for name, s := range map[string]Spec{
			"route slots": {Route: &RouteSpec{Network: torus, Protocol: ProtocolSpec{Bandwidth: 32 + extra}}},
			"route slots, rounded bandwidth": {Route: &RouteSpec{Network: odd,
				Protocol: ProtocolSpec{Bandwidth: 128 + extra}}},
			"route hops": {Route: &RouteSpec{Network: ring,
				Workload: WorkloadSpec{Kind: "qfunction", Q: 2 + extra}}},
			"dynamic slots":                    dynamicSlots(torus, 1<<16, 32+extra),
			"dynamic slots, rounded bandwidth": dynamicSlots(odd, 26*26*26, 128+extra),
			"dynamic hops":                     {Dynamic: &DynamicSpec{Network: ring, Trace: trace(4096, 8192+extra)}},
			"route span": {Route: &RouteSpec{Network: NetworkSpec{Kind: "butterfly", Dim: 2},
				Protocol: ProtocolSpec{Schedule: "doubling", MaxRounds: 21, AckLength: maxSpan - (1<<20 + 9) + extra}}},
			"dynamic span": {Dynamic: &DynamicSpec{Network: NetworkSpec{Kind: "ring", Size: 8},
				Trace: &workload.Trace{Version: workload.TraceVersion, Nodes: 8, Horizon: 2,
					Arrivals: []workload.Arrival{{Dst: 1}, {Dst: 1}}},
				Protocol: DynamicProtocolSpec{Backoff: "fixed", BackoffBase: 699040 + extra, MaxAttempts: 3}}},
		} {
			if err := s.Validate(); (err != nil) != (extra == 1) {
				t.Errorf("%s, %d over the limit: Validate = %v", name, extra, err)
			}
		}
	}
}

// FuzzSpecKey drives the submit decoder: a POST /jobs body decodes into
// a SubmitRequest as the server decodes it, and a spec that does not
// validate is refused with an error, never a panic. A spec that validates
// keys the same as its normalized form, the canonical bytes of that form
// decode with encoding/json into a spec with the same key, normalizing
// twice encodes as normalizing once, and its trial count is inside
// [0, maxTrials]. A validated route or dynamic spec whose network has at
// most 4,096 nodes must build: Build reports a construction panic as an
// error, so an error here is a declaration validation let through that
// cannot be built. Such a spec (and a route job only with at most 4,096
// pairs) then goes through the setup the executor runs, which may refuse
// it with an error but must not panic.
func FuzzSpecKey(f *testing.F) {
	emptyPlan := testSpec(3, 2)
	emptyPlan.Route.Faults = &faults.Plan{}
	seeds := []Spec{
		goldenRouteSpec(4),
		testDynamicSpec(f, 5, 2),
		{Experiment: &ExperimentSpec{ID: "F5", Seed: 1, Trials: 3, Quick: true}},
		{Experiment: &ExperimentSpec{ID: "E1", Trials: 2000000000}},
		{Route: &RouteSpec{Network: NetworkSpec{Kind: "circulant", Size: 8, Offsets: []int{1, 3}}, Trials: 2}},
		{Route: &RouteSpec{Network: NetworkSpec{Kind: "ring", Size: 8, Dim: -1}}},
		{Route: &RouteSpec{Network: NetworkSpec{Kind: "torus", Dims: 2, Side: 4, Dim: -64}}},
		emptyPlan,
	}
	for _, n := range unbuildableNetworks {
		seeds = append(seeds, Spec{Route: &RouteSpec{Network: n, Trials: 1}})
	}
	for _, name := range []string{"dynamic fixed backoff 2^22", "doubling to an unreachable output", "ack length 10^12"} {
		seeds = append(seeds, overlongSpecs(f)[name])
	}
	for _, spec := range seeds {
		b, err := json.Marshal(SubmitRequest{Spec: spec, Priority: 1})
		if err != nil {
			f.Fatal(err)
		}
		f.Add(b)
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		req, ok := DecodeSubmit(httptest.NewRecorder(), httptest.NewRequest(http.MethodPost, "/jobs", bytes.NewReader(body)))
		if !ok {
			return
		}
		key, err := req.Spec.Key()
		if err != nil {
			return
		}
		var trials int
		switch s := req.Spec; {
		case s.Route != nil:
			trials = s.Route.Trials
		case s.Dynamic != nil:
			trials = s.Dynamic.Trials
		default:
			trials = s.Experiment.Trials
		}
		if trials < 0 || trials > maxTrials {
			t.Fatalf("spec with %d trials validated", trials)
		}
		norm := req.Spec.Normalized()
		if k, err := norm.Key(); err != nil || k != key {
			t.Fatalf("normalized spec keys %s (%v), the spec %s", k, err, key)
		}
		b, err := canon.Marshal(norm)
		if err != nil {
			t.Fatalf("canon cannot encode a normalized spec: %v", err)
		}
		var back Spec
		if err := json.Unmarshal(b, &back); err != nil {
			t.Fatalf("canonical bytes do not decode: %v\n%s", err, b)
		}
		if k, err := back.Key(); err != nil || k != key {
			t.Fatalf("decoded canonical spec keys %s (%v), want %s\n%s", k, err, key, b)
		}
		again, err := canon.Marshal(norm.Normalized())
		if err != nil {
			t.Fatalf("canon cannot encode a twice-normalized spec: %v", err)
		}
		if !bytes.Equal(again, b) {
			t.Fatalf("normalizing twice changed the bytes:\n got %s\nwant %s", again, b)
		}
		var network NetworkSpec
		switch {
		case norm.Route != nil:
			network = norm.Route.Network
		case norm.Dynamic != nil:
			network = norm.Dynamic.Network
		default:
			return
		}
		nodes, _, _, _ := network.size()
		if nodes > 4096 {
			return
		}
		if _, _, err := network.Build(); err != nil {
			t.Fatalf("validated network does not build: %v", err)
		}
		// Setup may refuse the spec with an error; a panic fails the target.
		// A route job's pairs are capped too: the serving limits admit a
		// ring of 4,096 nodes routing 8,192 paths of up to 2,048 hops, too
		// slow to run on every input.
		switch {
		case norm.Route != nil && nodes*max(1, norm.Route.Workload.Q) <= 4096:
			_, _ = norm.Route.setup()
		case norm.Dynamic != nil:
			_, _ = norm.Dynamic.setup()
		}
	})
}

// TestNetworkSizeMatchesBuild: the size formula Validate bounds a job by
// agrees with what Build builds. Node, request-source and link counts are
// exact, and the path-length bound is the diameter (a circulant's is its
// ring's, at least its diameter) and bounds every path the canonical
// selector returns. It also walks every circulant of size at most 12 with
// one or two offsets: validate accepts exactly the connected ones.
func TestNetworkSizeMatchesBuild(t *testing.T) {
	nets := []NetworkSpec{
		{Kind: "torus", Dims: 1, Side: 3}, {Kind: "torus", Dims: 2, Side: 4}, {Kind: "torus", Dims: 3, Side: 5},
		{Kind: "mesh", Dims: 1, Side: 2}, {Kind: "mesh", Dims: 2, Side: 5}, {Kind: "mesh", Dims: 3, Side: 4},
		{Kind: "hypercube", Dim: 1}, {Kind: "hypercube", Dim: 6},
		{Kind: "butterfly", Dim: 1}, {Kind: "butterfly", Dim: 4},
		{Kind: "ring", Size: 3}, {Kind: "ring", Size: 10},
		{Kind: "ccc", Dim: 3}, {Kind: "ccc", Dim: 4}, {Kind: "ccc", Dim: 6},
		{Kind: "star", Dim: 3}, {Kind: "star", Dim: 4}, {Kind: "star", Dim: 5},
	}
	for size := 3; size <= 12; size++ {
		for a := 1; a <= size/2; a++ {
			for b := a; b <= size/2+1; b++ {
				offsets := []int{a, b}
				if b > size/2 {
					offsets = []int{a}
				}
				n := NetworkSpec{Kind: "circulant", Size: size, Offsets: offsets}
				_, _, err := n.Build()
				if verr := n.validate(); (verr == nil) != (err == nil) {
					t.Errorf("%+v: validate says %v, Build says %v", n, verr, err)
				}
				if err == nil {
					nets = append(nets, n)
				}
			}
		}
	}
	for _, n := range nets {
		if err := n.validate(); err != nil {
			t.Fatalf("%+v: %v", n, err)
		}
		top, sel, err := n.Build()
		if err != nil {
			t.Fatalf("%+v: %v", n, err)
		}
		g := top.Graph()
		nodes, sources, links, hops := n.size()
		if nodes != g.NumNodes() || links != g.NumLinks() {
			t.Errorf("%s: size says %d nodes and %d links, built %d and %d",
				top.Name(), nodes, links, g.NumNodes(), g.NumLinks())
		}
		srcs, dsts := make([]int, nodes), make([]int, nodes)
		for v := range srcs {
			srcs[v], dsts[v] = v, v
		}
		diameter := g.Diameter()
		if b, ok := top.(*topology.Butterfly); ok {
			srcs, dsts, diameter = b.Inputs(), b.Outputs(), n.Dim
		}
		if sources != len(srcs) {
			t.Errorf("%s: size says %d request sources, want %d", top.Name(), sources, len(srcs))
		}
		if hops < diameter || (n.Kind != "circulant" && hops != diameter) {
			t.Errorf("%s: path-length bound %d, diameter %d", top.Name(), hops, diameter)
		}
		for _, s := range srcs {
			for _, d := range dsts {
				if p := sel(s, d); len(p)-1 > hops {
					t.Fatalf("%s: path %v is longer than the bound %d", top.Name(), p, hops)
				}
			}
		}
	}
}

// TestNetworkBuildErrors: Build reports an unknown kind and a declaration
// its constructor refuses as errors, not panics.
func TestNetworkBuildErrors(t *testing.T) {
	nets := append([]NetworkSpec{{Kind: "klein-bottle"}, {Kind: "hypercube"}, {Kind: "mesh", Dims: 2}}, unbuildableNetworks...)
	for _, n := range nets {
		if top, sel, err := n.Build(); err == nil || top != nil || sel != nil {
			t.Errorf("%+v: Build = %v, %v, %v", n, top, sel != nil, err)
		}
	}
}

// TestSpecSetupNetworks materializes one spec per supported topology and
// workload kind, checking the collection is non-trivial.
func TestSpecSetupNetworks(t *testing.T) {
	nets := []NetworkSpec{
		{Kind: "torus", Dims: 2, Side: 3},
		{Kind: "mesh", Dims: 2, Side: 3},
		{Kind: "hypercube", Dim: 3},
		{Kind: "butterfly", Dim: 2},
		{Kind: "ring", Size: 6},
		{Kind: "circulant", Size: 8, Offsets: []int{1, 3}},
		{Kind: "ccc", Dim: 3},
		{Kind: "star", Dim: 3},
	}
	for _, n := range nets {
		for _, wl := range []string{"permutation", "function", "qfunction"} {
			s := Spec{Route: &RouteSpec{
				Network:  n,
				Workload: WorkloadSpec{Kind: wl, Q: 2},
				Seed:     3,
				Trials:   1,
			}}.Normalized()
			setup, err := s.Route.setup()
			if err != nil {
				t.Fatalf("%s/%s: %v", n.Kind, wl, err)
			}
			if setup.col.Size() == 0 {
				t.Errorf("%s/%s: empty collection", n.Kind, wl)
			}
			if len(setup.trialSrcs) != 1 {
				t.Errorf("%s/%s: %d trial sources", n.Kind, wl, len(setup.trialSrcs))
			}
		}
	}
}

// TestSpecSetupDeterministic: materializing twice yields identical
// workloads (same pair multiset routed, same parameters).
func TestSpecSetupDeterministic(t *testing.T) {
	s := testSpec(11, 3).Normalized()
	a, err := s.Route.setup()
	if err != nil {
		t.Fatal(err)
	}
	b, err := s.Route.setup()
	if err != nil {
		t.Fatal(err)
	}
	if a.col.Size() != b.col.Size() {
		t.Fatalf("sizes differ: %d vs %d", a.col.Size(), b.col.Size())
	}
	for i := 0; i < a.col.Size(); i++ {
		pa, pb := a.col.Path(i), b.col.Path(i)
		if len(pa) != len(pb) {
			t.Fatalf("path %d lengths differ", i)
		}
		for j := range pa {
			if pa[j] != pb[j] {
				t.Fatalf("path %d differs at %d", i, j)
			}
		}
	}
}

// TestNormalizedDoesNotMutate: Normalized is a copy, not an in-place fix.
func TestNormalizedDoesNotMutate(t *testing.T) {
	s := Spec{Route: &RouteSpec{Network: NetworkSpec{Kind: "ring", Size: 4}, Seed: 1}}
	_ = s.Normalized()
	if s.Route.Trials != 0 || s.Route.Workload.Kind != "" {
		t.Errorf("Normalized mutated the receiver: %+v", s.Route)
	}
}

// TestExperimentKeyIncludesEverything: experiment keys separate on every
// field.
func TestExperimentKeyIncludesEverything(t *testing.T) {
	base := Spec{Experiment: &ExperimentSpec{ID: "A4", Seed: 1, Trials: 5}}
	keys := map[string]string{}
	for name, s := range map[string]Spec{
		"base":   base,
		"id":     {Experiment: &ExperimentSpec{ID: "A1", Seed: 1, Trials: 5}},
		"seed":   {Experiment: &ExperimentSpec{ID: "A4", Seed: 2, Trials: 5}},
		"trials": {Experiment: &ExperimentSpec{ID: "A4", Seed: 1, Trials: 6}},
		"quick":  {Experiment: &ExperimentSpec{ID: "A4", Seed: 1, Trials: 5, Quick: true}},
	} {
		k, err := s.Key()
		if err != nil {
			t.Fatal(err)
		}
		if prev, ok := keys[k]; ok {
			t.Errorf("%s and %s share key %s", name, prev, k)
		}
		keys[k] = name
	}
}
