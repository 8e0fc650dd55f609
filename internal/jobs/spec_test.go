package jobs

import (
	"bytes"
	"encoding/json"
	"fmt"
	"testing"

	"repro/internal/canon"
	"repro/internal/faults"
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
// and a star graph of dimension 2, and a circulant offset above size/2.
var unbuildableNetworks = []NetworkSpec{
	{Kind: "torus", Dims: 2, Side: 2},
	{Kind: "ring", Size: 2},
	{Kind: "ccc", Dim: 2},
	{Kind: "star", Dim: 2},
	{Kind: "circulant", Size: 8, Offsets: []int{5}},
}

// TestSpecValidate rejects malformed specs with telling messages.
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
	}
	for _, n := range unbuildableNetworks {
		cases[fmt.Sprintf("unbuildable %+v", n)] = Spec{Route: &RouteSpec{Network: n}}
	}
	for name, s := range cases {
		if err := s.Validate(); err == nil {
			t.Errorf("%s: Validate accepted %+v", name, s)
		}
	}
	ok := testSpec(1, 1)
	if err := ok.Validate(); err != nil {
		t.Errorf("valid spec rejected: %v", err)
	}
}

// networkNodes is the node count of the network a valid spec declares,
// worked out from its fields.
func networkNodes(n NetworkSpec) int {
	switch n.Kind {
	case "torus", "mesh":
		nodes := 1
		for range n.Dims {
			nodes *= n.Side
		}
		return nodes
	case "hypercube":
		return 1 << n.Dim
	case "butterfly":
		return (n.Dim + 1) << n.Dim
	case "ccc":
		return n.Dim << n.Dim
	case "star":
		nodes := 1
		for k := 2; k <= n.Dim; k++ {
			nodes *= k
		}
		return nodes
	default: // ring, circulant
		return n.Size
	}
}

// FuzzSpecKey drives the submit decoder: a POST /jobs body decodes into
// a SubmitRequest as the server decodes it, and a spec that does not
// validate is refused with an error, never a panic. A spec that validates
// keys the same as its normalized form, the canonical bytes of that form
// decode with encoding/json into a spec with the same key, normalizing
// twice encodes as normalizing once, and its trial count is inside
// [0, maxTrials]. A validated route or dynamic spec whose network has at
// most 4,096 nodes (and a route job at most 4,096 pairs) goes through the
// setup the executor runs, which may refuse it with an error but must not
// panic.
func FuzzSpecKey(f *testing.F) {
	emptyPlan := testSpec(3, 2)
	emptyPlan.Route.Faults = &faults.Plan{}
	seeds := []Spec{
		goldenRouteSpec(4),
		testDynamicSpec(f, 5, 2),
		{Experiment: &ExperimentSpec{ID: "F5", Seed: 1, Trials: 3, Quick: true}},
		{Experiment: &ExperimentSpec{ID: "E1", Trials: 2000000000}},
		{Route: &RouteSpec{Network: NetworkSpec{Kind: "circulant", Size: 8, Offsets: []int{1, 3}}, Trials: 2}},
		emptyPlan,
	}
	for _, n := range unbuildableNetworks {
		seeds = append(seeds, Spec{Route: &RouteSpec{Network: n, Trials: 1}})
	}
	for _, spec := range seeds {
		b, err := json.Marshal(SubmitRequest{Spec: spec, Priority: 1})
		if err != nil {
			f.Fatal(err)
		}
		f.Add(b)
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		var req SubmitRequest
		if json.NewDecoder(bytes.NewReader(body)).Decode(&req) != nil {
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
		// Setup may refuse the spec with an error; a panic fails the target.
		// A route job's pairs are capped too: q pairs per node on a ring of
		// 4,096 nodes would route hundreds of thousands of paths averaging
		// a thousand hops.
		switch {
		case norm.Route != nil && networkNodes(norm.Route.Network)*max(1, norm.Route.Workload.Q) <= 4096:
			_, _ = norm.Route.setup()
		case norm.Dynamic != nil && networkNodes(norm.Dynamic.Network) <= 4096:
			_, _ = norm.Dynamic.setup()
		}
	})
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
