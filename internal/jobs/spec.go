// Package jobs turns simulation requests into an online workload: a
// canonical job specification is content-addressed into a key, results
// are memoized in a disk-backed store, and a bounded scheduler serves
// concurrent submissions on per-worker reused engines with per-trial
// checkpointing, so identical requests are cache hits and killed sweeps
// resume byte-identically. A finished job's result is kept and served as
// its canonical JSON, the bytes the store holds: a hit is a lookup and a
// write, with no decode or re-encode on the way to the socket.
//
// The package sits above the simulation internals (core, paths, sim,
// telemetry, faults) and below the serving layer (cmd/optnetd and the
// optnet re-exports); optnet's network constructors and the commands
// build their networks through NetworkSpec.Build. It must not import
// internal/experiments — the experiment harness instead injects an
// ExperimentRunner.
package jobs

import (
	"cmp"
	"fmt"
	"math/bits"
	"slices"

	"repro/internal/canon"
	"repro/internal/core"
	"repro/internal/faults"
	"repro/internal/optical"
	"repro/internal/paths"
	"repro/internal/rng"
	"repro/internal/sim"
	"repro/internal/topology"
)

// Spec is the canonical description of one job. Exactly one of Route,
// Experiment and Dynamic must be set. The job key is the SHA-256 of the
// normalized spec's canonical encoding (see canon), so two requests that
// spell the same configuration differently — defaults omitted vs.
// explicit, JSON fields reordered — share one key and one stored result.
type Spec struct {
	// Route runs the Trial-and-Failure protocol on a declared network,
	// workload and parameter set for a number of trials.
	Route *RouteSpec `json:"route,omitempty"`
	// Experiment runs one of the repo's named experiment tables (A1, E7,
	// R1, ...) through the injected ExperimentRunner.
	Experiment *ExperimentSpec `json:"experiment,omitempty"`
	// Dynamic replays an open-loop workload trace (internal/workload)
	// through sim.Engine.RunDynamic on a declared network. The full trace
	// is part of the spec, so the job key content-addresses the exact
	// arrivals: identical workloads dedupe in the store however they were
	// generated.
	Dynamic *DynamicSpec `json:"dynamic,omitempty"`
}

// RouteSpec declares a protocol sweep: the network, the request workload
// drawn on it, the protocol parameters, an optional fault plan, and the
// master seed and trial count. All randomness derives from Seed, so the
// spec fully determines the result.
type RouteSpec struct {
	// Network declares the topology.
	Network NetworkSpec `json:"network"`
	// Workload declares the routing-request generator.
	Workload WorkloadSpec `json:"workload"`
	// Protocol declares the Trial-and-Failure parameters.
	Protocol ProtocolSpec `json:"protocol"`
	// Faults optionally runs the sweep in degraded mode (see
	// internal/faults). The plan is part of the content address.
	Faults *faults.Plan `json:"faults"`
	// Seed is the master seed; the workload stream and every trial stream
	// are split from it in a fixed order.
	Seed uint64 `json:"seed"`
	// Trials is the number of protocol runs to aggregate (default 1).
	Trials int `json:"trials"`
}

// NetworkSpec declares a topology by kind plus the kind's parameters.
type NetworkSpec struct {
	// Kind is one of torus, mesh, hypercube, butterfly, ring, circulant,
	// ccc, star.
	Kind string `json:"kind"`
	// Dims and Side size a torus or mesh (side^dims nodes).
	Dims int `json:"dims"`
	// Side is the torus/mesh side length.
	Side int `json:"side"`
	// Dim sizes a hypercube, butterfly, CCC or star graph.
	Dim int `json:"dim"`
	// Size is the node count of a ring or circulant.
	Size int `json:"size"`
	// Offsets are the circulant's chord offsets.
	Offsets []int `json:"offsets"`
}

// WorkloadSpec declares the request set routed in every trial. The pairs
// are drawn once per job from the workload stream, so all trials of one
// job route the same collection (the per-trial randomness is the
// protocol's delays, wavelengths and ranks).
type WorkloadSpec struct {
	// Kind is one of permutation, function, qfunction.
	Kind string `json:"kind"`
	// Q is the per-source message count for qfunction (default 1).
	Q int `json:"q"`
}

// ProtocolSpec declares the Trial-and-Failure parameters in serializable
// form; enum fields use the String() names of their internal types.
type ProtocolSpec struct {
	// Bandwidth is B, the wavelengths per band (default 1).
	Bandwidth int `json:"bandwidth"`
	// Length is the worm length L in flits (default 1).
	Length int `json:"length"`
	// Rule is serve-first (default) or priority.
	Rule string `json:"rule"`
	// Tie is eliminate-all (default) or arbitrary-winner.
	Tie string `json:"tie"`
	// Wreckage is drain (default) or vanish.
	Wreckage string `json:"wreckage"`
	// Schedule is halving (default), fixed or doubling.
	Schedule string `json:"schedule"`
	// Conversion enables wavelength conversion at every router.
	Conversion bool `json:"conversion"`
	// AckLength is the ack-train length; 0 selects oracle acks.
	AckLength int `json:"ack_length"`
	// MaxRounds caps the protocol; 0 derives the core default.
	MaxRounds int `json:"max_rounds"`
}

// ExperimentSpec names one experiment table run.
type ExperimentSpec struct {
	// ID is the experiment identifier (A1, E7, R1, ...).
	ID string `json:"id"`
	// Seed is the experiment master seed.
	Seed uint64 `json:"seed"`
	// Trials is the per-configuration trial count (0 = experiment default).
	Trials int `json:"trials"`
	// Quick selects the reduced problem sizes.
	Quick bool `json:"quick"`
}

// Normalized returns a deep copy of the spec with every defaultable field
// made explicit, so that a request that omits a default and one that
// spells it out content-address identically.
func (s Spec) Normalized() Spec {
	out := s
	if s.Route != nil {
		r := *s.Route
		if r.Trials <= 0 {
			r.Trials = 1
		}
		// Offsets is canonically a non-nil slice (and only meaningful for
		// circulants), so the in-memory form matches a store round trip.
		if r.Network.Kind != "circulant" {
			r.Network.Offsets = []int{}
		} else {
			r.Network.Offsets = append([]int{}, r.Network.Offsets...)
		}
		if r.Workload.Kind == "" {
			r.Workload.Kind = "permutation"
		}
		if r.Workload.Kind != "qfunction" {
			r.Workload.Q = 0
		} else if r.Workload.Q <= 0 {
			r.Workload.Q = 1
		}
		if r.Protocol.Bandwidth <= 0 {
			r.Protocol.Bandwidth = 1
		}
		if r.Protocol.Length <= 0 {
			r.Protocol.Length = 1
		}
		if r.Protocol.Rule == "" {
			r.Protocol.Rule = optical.ServeFirst.String()
		}
		if r.Protocol.Tie == "" {
			r.Protocol.Tie = "eliminate-all"
		}
		if r.Protocol.Wreckage == "" {
			r.Protocol.Wreckage = sim.Drain.String()
		}
		if r.Protocol.Schedule == "" {
			r.Protocol.Schedule = "halving"
		}
		if r.Faults != nil && len(r.Faults.Faults) == 0 {
			r.Faults = nil
		}
		out.Route = &r
	}
	if s.Experiment != nil {
		e := *s.Experiment
		out.Experiment = &e
	}
	if s.Dynamic != nil {
		out.Dynamic = s.Dynamic.normalized()
	}
	return out
}

// maxTrials bounds every job kind's trial count: runners size per-trial
// state from it before any work starts.
const maxTrials = 10000

// checkTrials reports a trial count outside [0, maxTrials].
func checkTrials(n int) error {
	if n < 0 || n > maxTrials {
		return fmt.Errorf("jobs: trials %d out of range [0, %d]", n, maxTrials)
	}
	return nil
}

// Validate checks the spec against the supported kinds and size limits
// (limits keep a single submission from monopolizing a worker).
func (s Spec) Validate() error {
	set := 0
	if s.Route != nil {
		set++
	}
	if s.Experiment != nil {
		set++
	}
	if s.Dynamic != nil {
		set++
	}
	if set != 1 {
		return fmt.Errorf("jobs: spec needs exactly one of route, experiment and dynamic")
	}
	if s.Experiment != nil {
		if s.Experiment.ID == "" {
			return fmt.Errorf("jobs: experiment spec needs an id")
		}
		return checkTrials(s.Experiment.Trials)
	}
	if s.Dynamic != nil {
		return s.Dynamic.validate()
	}
	r := s.Route
	if err := checkTrials(r.Trials); err != nil {
		return err
	}
	if err := r.Network.validate(); err != nil {
		return err
	}
	switch r.Workload.Kind {
	case "", "permutation", "function", "qfunction":
	default:
		return fmt.Errorf("jobs: unknown workload kind %q", r.Workload.Kind)
	}
	if r.Workload.Q < 0 || r.Workload.Q > 64 {
		return fmt.Errorf("jobs: workload q %d out of range [0, 64]", r.Workload.Q)
	}
	p := r.Protocol
	if p.Bandwidth < 0 || p.Bandwidth > 256 {
		return fmt.Errorf("jobs: bandwidth %d out of range [0, 256]", p.Bandwidth)
	}
	if p.Length < 0 || p.Length > 4096 {
		return fmt.Errorf("jobs: length %d out of range [0, 4096]", p.Length)
	}
	if p.AckLength < 0 {
		return fmt.Errorf("jobs: ack_length must be >= 0")
	}
	if p.MaxRounds < 0 || p.MaxRounds > maxRounds {
		return fmt.Errorf("jobs: max_rounds %d out of range [0, %d]", p.MaxRounds, maxRounds)
	}
	if _, err := optical.ParseRule(p.Rule); p.Rule != "" && err != nil {
		return fmt.Errorf("jobs: %w", err)
	}
	switch p.Tie {
	case "", "eliminate-all", "arbitrary-winner":
	default:
		return fmt.Errorf("jobs: unknown tie policy %q", p.Tie)
	}
	if _, err := sim.ParseWreckage(p.Wreckage); p.Wreckage != "" && err != nil {
		return fmt.Errorf("jobs: %w", err)
	}
	if _, ok := schedules[p.Schedule]; p.Schedule != "" && !ok {
		return fmt.Errorf("jobs: unknown schedule %q", p.Schedule)
	}
	_, pairs, _, _ := r.Network.size()
	if r.Workload.Kind == "qfunction" {
		pairs *= max(1, r.Workload.Q)
	}
	if err := r.Network.checkLoad(p.Bandwidth, pairs); err != nil {
		return err
	}
	return checkSpan("route", r.span(pairs))
}

// The serving limits on what one job builds and runs. maxSlots bounds the
// engine: its occupant table holds one 8-byte entry per slot, two bands
// of links times the bandwidth rounded up to a power of two (sim.Engine's
// layout), so 2^25 slots keep it within 256 MiB. maxHops bounds the
// routed paths: requests times the network's path-length bound. maxSpan
// bounds the steps one run spans: the engine's spawn calendar and
// RunDynamic's arrival and deadline agendas are arrays indexed by step,
// about 115 bytes per step of a dynamic run, so 2^21 steps keep them
// within the same 256 MiB, and a worker is held for a bounded number of
// steps. maxRounds bounds a route job's max_rounds, as maxTrials bounds
// its trials.
const (
	maxSlots  = 1 << 25
	maxHops   = 1 << 24
	maxSpan   = 1 << 21
	maxRounds = 10000
)

// span bounds the steps one protocol round of the route spec spans on
// requests worms: the largest delay range its schedule draws over the
// effective max_rounds, taking C <= requests, plus 2(D + L) and the ack
// length (saturated past maxSpan, so the sum cannot overflow). Every
// schedule a job can name is monotone in the round, so the largest range
// is drawn in the first round or the last.
func (r *RouteSpec) span(requests int) int {
	_, _, _, hops := r.Network.size()
	p := r.Protocol
	params := core.Params{N: requests, Dilation: hops, PathCongestion: requests,
		Length: max(1, p.Length), Bandwidth: max(1, p.Bandwidth)}
	rounds := p.MaxRounds
	if rounds == 0 {
		rounds = core.DefaultMaxRounds(requests)
	}
	sched := schedules[cmp.Or(p.Schedule, "halving")]
	delta := max(sched.Range(1, params), sched.Range(rounds, params))
	return delta + 2*(hops+params.Length) + min(p.AckLength, maxSpan+1)
}

// checkSpan refuses a job of the given kind whose run spans more than
// maxSpan steps.
func checkSpan(kind string, span int) error {
	if span > maxSpan {
		return fmt.Errorf("jobs: a %s run spans up to %d steps, over the limit of %d", kind, span, maxSpan)
	}
	return nil
}

// checkLoad refuses a job on a validated network whose engine, at the
// given bandwidth (0 takes the default of 1), or whose requests' routed
// paths would exceed the serving limits.
func (n NetworkSpec) checkLoad(bandwidth, requests int) error {
	_, _, links, hops := n.size()
	if slots := 2 * links << bits.Len(uint(max(1, bandwidth)-1)); slots > maxSlots {
		return fmt.Errorf("jobs: %s network with %d links at bandwidth %d needs %d engine slots, over the limit of %d",
			n.Kind, links, max(1, bandwidth), slots, maxSlots)
	}
	if routed := requests * hops; routed > maxHops {
		return fmt.Errorf("jobs: %d requests on paths of up to %d hops route up to %d hops, over the limit of %d",
			requests, hops, routed, maxHops)
	}
	return nil
}

// validate checks one network declaration's kind and size bounds.
func (n NetworkSpec) validate() error {
	inRange := func(name string, v, lo, hi int) error {
		if v < lo || v > hi {
			return fmt.Errorf("jobs: network %s %d out of range [%d, %d]", name, v, lo, hi)
		}
		return nil
	}
	// The lower bounds are the constructors' preconditions: a torus of
	// side 2, a ring of 2 nodes, a CCC or star graph of dimension 2 and a
	// circulant offset above size/2 make the topology package panic.
	switch n.Kind {
	case "torus", "mesh":
		if err := inRange("dims", n.Dims, 1, 4); err != nil {
			return err
		}
		if n.Kind == "torus" {
			return inRange("side", n.Side, 3, 64)
		}
		return inRange("side", n.Side, 2, 64)
	case "hypercube":
		return inRange("dim", n.Dim, 1, 12)
	case "butterfly":
		return inRange("dim", n.Dim, 1, 8)
	case "ring":
		return inRange("size", n.Size, 3, 4096)
	case "circulant":
		if len(n.Offsets) == 0 || len(n.Offsets) > 8 {
			return fmt.Errorf("jobs: circulant needs 1..8 offsets")
		}
		if err := inRange("size", n.Size, 3, 4096); err != nil {
			return err
		}
		// C_n(S) is connected exactly when gcd(n, S) = 1; the translation
		// system routes only connected networks.
		div := n.Size
		for _, o := range n.Offsets {
			if o < 1 || o > n.Size/2 {
				return fmt.Errorf("jobs: circulant offset %d out of range [1, size/2]", o)
			}
			for o != 0 {
				div, o = o, div%o
			}
		}
		if div != 1 {
			return fmt.Errorf("jobs: circulant offsets %v and size %d share the factor %d, so the network is not connected",
				n.Offsets, n.Size, div)
		}
		return nil
	case "ccc":
		return inRange("dim", n.Dim, 3, 8)
	case "star":
		return inRange("dim", n.Dim, 3, 7)
	default:
		return fmt.Errorf("jobs: unknown network kind %q", n.Kind)
	}
}

// size returns, for a network validate accepts, its node count, the
// number of nodes that issue requests (a butterfly's inputs, every node
// of the other kinds), its directed link count and a bound on the hops of
// any path its canonical selector returns, worked out without building
// it. The bound is the diameter (a CCC's and a star graph's are their
// published closed forms), except for two kinds: a butterfly's paths run
// from level 0 to level dim, and a circulant's bound is its ring's,
// size/2, which holds for every connected circulant: its distance classes
// are closed under negation, so each class but {size/2} holds at least
// two nodes.
func (n NetworkSpec) size() (nodes, sources, links, hops int) {
	switch n.Kind {
	case "torus", "mesh":
		nodes = 1
		for range n.Dims {
			nodes *= n.Side
		}
		if n.Kind == "torus" {
			return nodes, nodes, 2 * n.Dims * nodes, n.Dims * (n.Side / 2)
		}
		return nodes, nodes, 2 * n.Dims * (nodes / n.Side) * (n.Side - 1), n.Dims * (n.Side - 1)
	case "hypercube":
		return 1 << n.Dim, 1 << n.Dim, n.Dim << n.Dim, n.Dim
	case "butterfly":
		return (n.Dim + 1) << n.Dim, 1 << n.Dim, n.Dim << (n.Dim + 2), n.Dim
	case "ring":
		return n.Size, n.Size, 2 * n.Size, n.Size / 2
	case "circulant":
		offsets := slices.Clone(n.Offsets)
		slices.Sort(offsets)
		for _, o := range slices.Compact(offsets) {
			links += 2 * n.Size
			if 2*o == n.Size {
				links -= n.Size
			}
		}
		return n.Size, n.Size, links, n.Size / 2
	case "ccc":
		hops = 2*n.Dim + n.Dim/2 - 2
		if n.Dim == 3 {
			hops = 6
		}
		return n.Dim << n.Dim, n.Dim << n.Dim, 3 * n.Dim << n.Dim, hops
	default: // star
		nodes = 1
		for k := 2; k <= n.Dim; k++ {
			nodes *= k
		}
		return nodes, nodes, (n.Dim - 1) * nodes, 3 * (n.Dim - 1) / 2
	}
}

// Build constructs the declared topology and its canonical path
// selector: dimension-order paths on tori and meshes, bit-fixing on
// hypercubes, the butterfly's unique input-to-output paths, and Theorem
// 1.5's translation-invariant system on rings, circulants, CCCs and star
// graphs. It is the one table from a network kind to a network: the job
// server, optnet's constructors and the commands all build through it. A
// declaration the constructors cannot build, which they report with a
// panic, comes back as an error. Build applies none of Validate's
// serving limits.
func (n NetworkSpec) Build() (t topology.Topology, sel paths.Selector, err error) {
	defer func() {
		if r := recover(); r != nil {
			t, sel, err = nil, nil, fmt.Errorf("jobs: cannot build the %s network: %v", n.Kind, r)
		}
	}()
	switch n.Kind {
	case "torus":
		tor := topology.NewTorus(n.Dims, n.Side)
		return tor, paths.DimOrderTorus(tor), nil
	case "mesh":
		m := topology.NewMesh(n.Dims, n.Side)
		return m, paths.DimOrderMesh(m), nil
	case "hypercube":
		h := topology.NewHypercube(n.Dim)
		return h, paths.BitFixing(h), nil
	case "butterfly":
		b := topology.NewButterfly(n.Dim)
		return b, paths.ButterflySelector(b), nil
	}
	var vt topology.VertexTransitive
	switch n.Kind {
	case "ring":
		vt = topology.NewRing(n.Size)
	case "circulant":
		vt = topology.NewCirculant(n.Size, n.Offsets)
	case "ccc":
		vt = topology.NewCCC(n.Dim)
	case "star":
		vt = topology.NewStarGraph(n.Dim)
	default:
		return nil, nil, fmt.Errorf("jobs: unknown network kind %q", n.Kind)
	}
	return vt, paths.TranslationSystem(vt), nil
}

// Key returns the job's content address: the SHA-256 hex of the
// normalized spec's canonical encoding. Equal configurations — however
// spelled — share a key; any parameter change produces a fresh one.
func (s Spec) Key() (string, error) {
	if err := s.Validate(); err != nil {
		return "", err
	}
	return canon.Hash(s.Normalized())
}

// runSetup is a materialized route job: the routed collection, the
// protocol configuration, and one pre-split rng stream per trial.
// Re-materializing the same normalized spec yields identical streams, so
// a resumed sweep can skip the first k sources and continue exactly where
// the killed run stopped.
type runSetup struct {
	col       *paths.Collection
	cfg       core.Config
	trialSrcs []*rng.Source
}

// setup materializes the (normalized) route spec. The derivation order is
// fixed and load-bearing: master -> workload stream -> per-trial streams.
func (r *RouteSpec) setup() (*runSetup, error) {
	master := rng.New(r.Seed)
	wlSrc := master.Split()
	trialSrcs := master.SplitN(r.Trials)

	col, err := buildCollection(r.Network, r.Workload, wlSrc)
	if err != nil {
		return nil, err
	}
	p := r.Protocol
	rule, err := optical.ParseRule(p.Rule)
	if err != nil {
		return nil, fmt.Errorf("jobs: %w", err)
	}
	wreckage, err := sim.ParseWreckage(p.Wreckage)
	if err != nil {
		return nil, fmt.Errorf("jobs: %w", err)
	}
	cfg := core.Config{
		Bandwidth: p.Bandwidth,
		Length:    p.Length,
		Rule:      rule,
		Wreckage:  wreckage,
		AckLength: p.AckLength,
		MaxRounds: p.MaxRounds,
		Faults:    r.Faults,
	}
	if p.Tie == "arbitrary-winner" {
		cfg.Tie = optical.TieArbitraryWinner
	}
	cfg.Schedule = schedules[p.Schedule]
	if p.Conversion {
		cfg.Conversion = sim.FullConversion
	}
	if cfg.Faults != nil {
		if err := cfg.Faults.Validate(col.Graph(), cfg.Bandwidth); err != nil {
			return nil, fmt.Errorf("jobs: %w", err)
		}
	}
	return &runSetup{col: col, cfg: cfg, trialSrcs: trialSrcs}, nil
}

// schedules maps each schedule name a route spec may give to its delay
// schedule.
var schedules = map[string]core.DelaySchedule{
	"halving":  core.HalvingSchedule{},
	"fixed":    core.FixedSchedule{},
	"doubling": core.DoublingSchedule{},
}

// buildCollection builds the network, draws the workload from the
// dedicated stream and routes it with the network's canonical selector.
// A butterfly draws from its inputs to its outputs.
func buildCollection(n NetworkSpec, w WorkloadSpec, src *rng.Source) (*paths.Collection, error) {
	t, sel, err := n.Build()
	if err != nil {
		return nil, err
	}
	var prs []paths.Pair
	if b, ok := t.(*topology.Butterfly); ok {
		switch w.Kind {
		case "permutation":
			prs = paths.ButterflyPermutation(b, src.Perm(len(b.Inputs())))
		case "function":
			prs = paths.ButterflyRandomQFunction(b, 1, src)
		case "qfunction":
			prs = paths.ButterflyRandomQFunction(b, w.Q, src)
		default:
			return nil, fmt.Errorf("jobs: unknown workload kind %q", w.Kind)
		}
	} else {
		nodes := t.Graph().NumNodes()
		switch w.Kind {
		case "permutation":
			prs = paths.RandomPermutation(nodes, src)
		case "function":
			prs = paths.RandomFunction(nodes, src)
		case "qfunction":
			prs = paths.RandomQFunction(w.Q, nodes, src)
		default:
			return nil, fmt.Errorf("jobs: unknown workload kind %q", w.Kind)
		}
	}
	return paths.Build(t.Graph(), prs, sel)
}
