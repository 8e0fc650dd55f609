// Package optnet is the public API of the all-optical routing library: a
// faithful implementation of the Trial-and-Failure protocol of Flammini &
// Scheideler, "Simple, Efficient Routing Schemes for All-Optical
// Networks" (SPAA 1997), together with the network model it runs on.
//
// The typical flow is: build a network (Torus, Mesh, Butterfly, Hypercube,
// ...), pick a workload (Permutation, RandomFunction, QFunction), select
// paths (dimension-order, bit-fixing, butterfly unique paths, translation
// systems), and Route it:
//
//	net := optnet.Torus(2, 16)
//	wl := optnet.RandomFunction(net, 42)
//	res, err := optnet.Route(net, wl, optnet.Params{
//	    Bandwidth:  4,
//	    WormLength: 8,
//	    Rule:       optnet.ServeFirst,
//	    Seed:       7,
//	})
//
// The result reports the number of protocol rounds, the paper's accounted
// routing time, and per-round statistics. Lower-level control (custom
// path collections, delay schedules, priority assignments, wreckage
// policies, witness-tree analysis) is available through the Advanced
// types, which re-export the internal machinery.
package optnet

import (
	"fmt"

	"repro/internal/baseline"
	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/optical"
	"repro/internal/paths"
	"repro/internal/rng"
	"repro/internal/sim"
	"repro/internal/topology"
)

// Rule selects the router's contention-resolution behaviour.
type Rule = optical.Rule

// Contention rules: ServeFirst eliminates a message arriving on an
// occupied wavelength; Priority forwards the higher-priority message.
const (
	ServeFirst = optical.ServeFirst
	Priority   = optical.Priority
)

// Network couples a topology with the path selector appropriate for it.
type Network struct {
	topo     topology.Topology
	selector paths.Selector
	name     string
}

// Graph exposes the underlying router graph.
func (n *Network) Graph() *graph.Graph { return n.topo.Graph() }

// Name returns the network's identifier.
func (n *Network) Name() string { return n.name }

// Topology exposes the underlying topology value (e.g. *topology.Torus).
func (n *Network) Topology() topology.Topology { return n.topo }

// Selector returns the network's default path selector.
func (n *Network) Selector() paths.Selector { return n.selector }

// Torus returns a dims-dimensional torus of the given side with
// dimension-order (shortest, short-cut free) path selection.
func Torus(dims, side int) *Network {
	t := topology.NewTorus(dims, side)
	return &Network{topo: t, selector: paths.DimOrderTorus(t), name: t.Name()}
}

// Mesh returns a dims-dimensional mesh with dimension-order selection.
func Mesh(dims, side int) *Network {
	m := topology.NewMesh(dims, side)
	return &Network{topo: m, selector: paths.DimOrderMesh(m), name: m.Name()}
}

// Hypercube returns the dim-dimensional hypercube with bit-fixing
// selection.
func Hypercube(dim int) *Network {
	h := topology.NewHypercube(dim)
	return &Network{topo: h, selector: paths.BitFixing(h), name: h.Name()}
}

// Butterfly returns the plain k-dimensional butterfly with its unique
// input-to-output leveled path selection. Workloads must route from
// level-0 nodes to level-k nodes (see ButterflyQFunction).
func Butterfly(k int) *Network {
	b := topology.NewButterfly(k)
	return &Network{topo: b, selector: paths.ButterflySelector(b), name: b.Name()}
}

// Ring returns the n-cycle with translation-system selection.
func Ring(n int) *Network {
	r := topology.NewRing(n)
	return &Network{topo: r, selector: paths.TranslationSystem(r), name: r.Name()}
}

// Circulant returns the circulant graph C_n(offsets) with
// translation-system selection (a bounded-degree node-symmetric network).
func Circulant(n int, offsets []int) *Network {
	c := topology.NewCirculant(n, offsets)
	return &Network{topo: c, selector: paths.TranslationSystem(c), name: c.Name()}
}

// StarGraph returns the Akers-Krishnamurthy star graph S_k with
// translation-system selection (a bounded-degree node-symmetric network
// on k! routers).
func StarGraph(k int) *Network {
	sg := topology.NewStarGraph(k)
	return &Network{topo: sg, selector: paths.TranslationSystem(sg), name: sg.Name()}
}

// CCC returns the cube-connected cycles of dimension k with
// translation-system selection.
func CCC(k int) *Network {
	c := topology.NewCCC(k)
	return &Network{topo: c, selector: paths.TranslationSystem(c), name: c.Name()}
}

// Custom wraps any topology with any selector.
func Custom(t topology.Topology, sel paths.Selector, name string) *Network {
	if name == "" {
		name = t.Name()
	}
	return &Network{topo: t, selector: sel, name: name}
}

// Workload is a set of routing requests.
type Workload struct {
	Pairs []paths.Pair
	Name  string
}

// Permutation returns a uniformly random permutation workload.
func Permutation(n *Network, seed uint64) Workload {
	return Workload{
		Pairs: paths.RandomPermutation(n.Graph().NumNodes(), rng.New(seed)),
		Name:  "random permutation",
	}
}

// RandomFunction returns the paper's "random function" workload: every
// node sends one message to an independently uniform destination.
func RandomFunction(n *Network, seed uint64) Workload {
	return Workload{
		Pairs: paths.RandomFunction(n.Graph().NumNodes(), rng.New(seed)),
		Name:  "random function",
	}
}

// QFunction returns the random q-function workload: every node sends q
// messages to independently uniform destinations.
func QFunction(n *Network, q int, seed uint64) Workload {
	return Workload{
		Pairs: paths.RandomQFunction(q, n.Graph().NumNodes(), rng.New(seed)),
		Name:  fmt.Sprintf("random %d-function", q),
	}
}

// ButterflyQFunction returns the random q-function from a butterfly's
// inputs to its outputs (Theorem 1.7's workload). It panics if the
// network is not a plain butterfly.
func ButterflyQFunction(n *Network, q int, seed uint64) Workload {
	b, ok := n.topo.(*topology.Butterfly)
	if !ok || b.Wrapped() {
		panic("optnet: ButterflyQFunction needs a plain butterfly network")
	}
	return Workload{
		Pairs: paths.ButterflyRandomQFunction(b, q, rng.New(seed)),
		Name:  fmt.Sprintf("butterfly %d-function", q),
	}
}

// Pairs wraps an explicit request list.
func Pairs(ps []paths.Pair, name string) Workload { return Workload{Pairs: ps, Name: name} }

// Params configures a Route call.
type Params struct {
	// Bandwidth is the number of wavelengths B (>= 1).
	Bandwidth int
	// WormLength is the message length L in flits (>= 1).
	WormLength int
	// Rule selects ServeFirst (default) or Priority routers.
	Rule Rule
	// Seed drives all randomness; equal seeds reproduce runs exactly.
	Seed uint64
	// AckLength is the acknowledgement length in flits; 0 uses oracle
	// acknowledgements.
	AckLength int
	// Advanced optionally overrides protocol internals; nil fields keep
	// the defaults.
	Advanced *Advanced
}

// Advanced exposes the protocol internals for expert use.
type Advanced struct {
	// Schedule overrides the delay-range schedule (default: the paper's
	// halving schedule with practical constants).
	Schedule core.DelaySchedule
	// Priorities overrides the per-round rank assignment (default:
	// random distinct ranks).
	Priorities core.PriorityAssigner
	// Wreckage selects the collision wreckage model (default Drain).
	Wreckage sim.WreckagePolicy
	// Conversion enables wavelength conversion at routers for which the
	// predicate holds (nil = none; sim.FullConversion = everywhere).
	Conversion func(graph.NodeID) bool
	// MaxRounds caps the protocol (default: scales with log n).
	MaxRounds int
	// RecordCollisions retains per-round collision traces in the result.
	RecordCollisions bool
	// TrackCongestion records residual path congestion per round.
	TrackCongestion bool
	// Faults runs the protocol in degraded mode against a fault plan (see
	// FaultPlan): timestamps are protocol time, and each round reroutes
	// still-active worms around links down at round start.
	Faults *FaultPlan
	// Probe receives telemetry events (nil = no telemetry; see Probe and
	// Collector). Probes observe the run and never alter its results.
	Probe Probe
}

// Result re-exports the protocol result.
type Result = core.Result

// Route selects paths for the workload on the network and runs the
// Trial-and-Failure protocol.
func Route(n *Network, wl Workload, p Params) (*Result, error) {
	col, err := paths.Build(n.Graph(), wl.Pairs, n.selector)
	if err != nil {
		return nil, fmt.Errorf("optnet: path selection failed: %w", err)
	}
	return RouteCollection(col, p)
}

// RouteCollection runs the protocol on an explicit path collection.
func RouteCollection(col *paths.Collection, p Params) (*Result, error) {
	cfg := core.Config{
		Bandwidth: p.Bandwidth,
		Length:    p.WormLength,
		Rule:      p.Rule,
		AckLength: p.AckLength,
	}
	if a := p.Advanced; a != nil {
		cfg.Schedule = a.Schedule
		cfg.Priorities = a.Priorities
		cfg.Wreckage = a.Wreckage
		cfg.Conversion = a.Conversion
		cfg.MaxRounds = a.MaxRounds
		cfg.RecordCollisions = a.RecordCollisions
		cfg.TrackCongestion = a.TrackCongestion
		cfg.Faults = a.Faults
		cfg.Probe = a.Probe
	}
	return core.Run(col, cfg, rng.New(p.Seed))
}

// Analyze computes the paper's problem parameters (n, D, C-tilde, leveled,
// short-cut free) for a workload on a network.
func Analyze(n *Network, wl Workload) (paths.Stats, error) {
	col, err := paths.Build(n.Graph(), wl.Pairs, n.selector)
	if err != nil {
		return paths.Stats{}, err
	}
	return col.ComputeStats(), nil
}

// BuildCollection exposes the selected path collection for direct
// inspection or custom protocol configurations.
func BuildCollection(n *Network, wl Workload) (*paths.Collection, error) {
	return paths.Build(n.Graph(), wl.Pairs, n.selector)
}

// MultiHopResult re-exports the staged protocol result.
type MultiHopResult = core.MultiHopResult

// RouteMultiHop routes the workload in at most hops optical stages with
// electrical buffering at the stage boundaries (the paper's Section 4
// extension; see core.RunMultiHop).
func RouteMultiHop(n *Network, wl Workload, hops int, p Params) (*MultiHopResult, error) {
	col, err := paths.Build(n.Graph(), wl.Pairs, n.selector)
	if err != nil {
		return nil, fmt.Errorf("optnet: path selection failed: %w", err)
	}
	cfg := core.Config{
		Bandwidth: p.Bandwidth,
		Length:    p.WormLength,
		Rule:      p.Rule,
		AckLength: p.AckLength,
	}
	if a := p.Advanced; a != nil {
		cfg.Schedule = a.Schedule
		cfg.Priorities = a.Priorities
		cfg.Wreckage = a.Wreckage
		cfg.Conversion = a.Conversion
		cfg.MaxRounds = a.MaxRounds
		cfg.Faults = a.Faults
		cfg.Probe = a.Probe
	}
	return core.RunMultiHop(col, hops, cfg, rng.New(p.Seed))
}

// StoreAndForwardResult re-exports the electronic baseline's result.
type StoreAndForwardResult = baseline.Result

// RouteStoreAndForward routes the workload on the buffered electronic
// store-and-forward reference router (see the baseline package): every
// message is delivered, each hop costs WormLength steps of link time, and
// congestion shows up as queueing rather than retries.
func RouteStoreAndForward(n *Network, wl Workload, p Params) (*StoreAndForwardResult, error) {
	col, err := paths.Build(n.Graph(), wl.Pairs, n.selector)
	if err != nil {
		return nil, fmt.Errorf("optnet: path selection failed: %w", err)
	}
	return baseline.RunCollection(col, p.WormLength, p.Bandwidth)
}

// Arrival is one dynamically arriving request for RouteDynamic.
type Arrival struct {
	Src, Dst graph.NodeID
	// Step is the arrival time; the source may first launch then.
	Step int
}

// DynamicParams configures continuous operation (RouteDynamic).
type DynamicParams struct {
	// Bandwidth, WormLength, Rule, AckLength and Seed as in Params.
	Bandwidth  int
	WormLength int
	Rule       Rule
	AckLength  int
	Seed       uint64
	// Retry is the per-attempt backoff policy (nil = exponential with
	// base 2L); MaxAttempts bounds retries per request (0 = 50).
	Retry       sim.RetryPolicy
	MaxAttempts int
	// Faults injects a fault plan into the continuous run (timestamps are
	// run steps). Fault-killed attempts retry with backoff like any lost
	// attempt.
	Faults *FaultPlan
	// Probe receives engine telemetry during continuous operation (nil =
	// no telemetry).
	Probe Probe
}

// DynamicResult re-exports the dynamic outcome report.
type DynamicResult = sim.DynamicResult

// RouteDynamic runs the network in continuous operation: requests arrive
// over time and every source retries its message independently with
// randomized backoff until acknowledged (see sim.Engine.RunDynamic).
// Paths are selected with the network's selector at arrival time.
func RouteDynamic(n *Network, arrivals []Arrival, p DynamicParams) (*DynamicResult, error) {
	reqs := make([]sim.Request, 0, len(arrivals))
	for i, a := range arrivals {
		if a.Src == a.Dst {
			continue
		}
		reqs = append(reqs, sim.Request{
			ID:      i,
			Path:    n.selector(a.Src, a.Dst),
			Length:  p.WormLength,
			Arrival: a.Step,
		})
	}
	scfg := sim.Config{
		Bandwidth: p.Bandwidth,
		Rule:      p.Rule,
		AckLength: p.AckLength,
		Probe:     p.Probe,
	}
	if !p.Faults.Empty() {
		sched, err := p.Faults.Compile(n.Graph(), p.Bandwidth)
		if err != nil {
			return nil, fmt.Errorf("optnet: %w", err)
		}
		scfg.Faults = sched
	}
	return sim.NewEngine().RunDynamic(n.Graph(), reqs, sim.DynamicConfig{
		Sim:         scfg,
		Retry:       p.Retry,
		MaxAttempts: p.MaxAttempts,
	}, rng.New(p.Seed))
}
