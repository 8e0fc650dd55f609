// Package jobs turns simulation requests into an online workload: a
// canonical job specification is content-addressed into a key, results
// are memoized in a disk-backed store, and a bounded scheduler serves
// concurrent submissions on per-worker reused engines with per-trial
// checkpointing, so identical requests are cache hits and killed sweeps
// resume byte-identically.
//
// The package sits above the simulation internals (core, paths, sim,
// telemetry, faults) and below the serving layer (cmd/optnetd and the
// optnet re-exports); it must not import internal/experiments — the
// experiment harness instead injects an ExperimentRunner.
package jobs

import (
	"fmt"

	"repro/internal/canon"
	"repro/internal/core"
	"repro/internal/faults"
	"repro/internal/graph"
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
			r.Protocol.Rule = "serve-first"
		}
		if r.Protocol.Tie == "" {
			r.Protocol.Tie = "eliminate-all"
		}
		if r.Protocol.Wreckage == "" {
			r.Protocol.Wreckage = "drain"
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
		return nil
	}
	if s.Dynamic != nil {
		return s.Dynamic.validate()
	}
	r := s.Route
	if r.Trials < 0 || r.Trials > 10000 {
		return fmt.Errorf("jobs: trials %d out of range [0, 10000]", r.Trials)
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
	if p.AckLength < 0 || p.MaxRounds < 0 {
		return fmt.Errorf("jobs: ack_length and max_rounds must be >= 0")
	}
	switch p.Rule {
	case "", "serve-first", "priority":
	default:
		return fmt.Errorf("jobs: unknown rule %q", p.Rule)
	}
	switch p.Tie {
	case "", "eliminate-all", "arbitrary-winner":
	default:
		return fmt.Errorf("jobs: unknown tie policy %q", p.Tie)
	}
	switch p.Wreckage {
	case "", "drain", "vanish":
	default:
		return fmt.Errorf("jobs: unknown wreckage policy %q", p.Wreckage)
	}
	switch p.Schedule {
	case "", "halving", "fixed", "doubling":
	default:
		return fmt.Errorf("jobs: unknown schedule %q", p.Schedule)
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
	switch n.Kind {
	case "torus", "mesh":
		if err := inRange("dims", n.Dims, 1, 4); err != nil {
			return err
		}
		return inRange("side", n.Side, 2, 64)
	case "hypercube":
		return inRange("dim", n.Dim, 1, 12)
	case "butterfly":
		return inRange("dim", n.Dim, 1, 8)
	case "ring":
		return inRange("size", n.Size, 2, 4096)
	case "circulant":
		if len(n.Offsets) == 0 || len(n.Offsets) > 8 {
			return fmt.Errorf("jobs: circulant needs 1..8 offsets")
		}
		for _, o := range n.Offsets {
			if o < 1 || o >= n.Size {
				return fmt.Errorf("jobs: circulant offset %d out of range [1, size)", o)
			}
		}
		return inRange("size", n.Size, 3, 4096)
	case "ccc":
		return inRange("dim", n.Dim, 2, 8)
	case "star":
		return inRange("dim", n.Dim, 2, 7)
	default:
		return fmt.Errorf("jobs: unknown network kind %q", n.Kind)
	}
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
	cfg := core.Config{
		Bandwidth: p.Bandwidth,
		Length:    p.Length,
		AckLength: p.AckLength,
		MaxRounds: p.MaxRounds,
		Faults:    r.Faults,
	}
	if p.Rule == "priority" {
		cfg.Rule = optical.Priority
	}
	if p.Tie == "arbitrary-winner" {
		cfg.Tie = optical.TieArbitraryWinner
	}
	if p.Wreckage == "vanish" {
		cfg.Wreckage = sim.Vanish
	}
	switch p.Schedule {
	case "fixed":
		cfg.Schedule = core.FixedSchedule{}
	case "doubling":
		cfg.Schedule = core.DoublingSchedule{}
	}
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

// buildCollection constructs the network, draws the workload from the
// dedicated stream and routes it with the topology's canonical selector.
func buildCollection(n NetworkSpec, w WorkloadSpec, src *rng.Source) (*paths.Collection, error) {
	if n.Kind == "butterfly" {
		b := topology.NewButterfly(n.Dim)
		var prs []paths.Pair
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
		return paths.Build(b.Graph(), prs, paths.ButterflySelector(b))
	}

	g, sel, err := buildNetwork(n)
	if err != nil {
		return nil, err
	}
	var prs []paths.Pair
	switch w.Kind {
	case "permutation":
		prs = paths.RandomPermutation(g.NumNodes(), src)
	case "function":
		prs = paths.RandomFunction(g.NumNodes(), src)
	case "qfunction":
		prs = paths.RandomQFunction(w.Q, g.NumNodes(), src)
	default:
		return nil, fmt.Errorf("jobs: unknown workload kind %q", w.Kind)
	}
	return paths.Build(g, prs, sel)
}

// buildNetwork constructs a node-addressed topology's graph and its
// canonical selector. Butterflies are excluded: their selector routes
// input terminals to output terminals, not node to node, so they get a
// dedicated path in buildCollection (and are rejected for dynamic jobs).
func buildNetwork(n NetworkSpec) (*graph.Graph, paths.Selector, error) {
	switch n.Kind {
	case "torus":
		t := topology.NewTorus(n.Dims, n.Side)
		return t.Graph(), paths.DimOrderTorus(t), nil
	case "mesh":
		m := topology.NewMesh(n.Dims, n.Side)
		return m.Graph(), paths.DimOrderMesh(m), nil
	case "hypercube":
		h := topology.NewHypercube(n.Dim)
		return h.Graph(), paths.BitFixing(h), nil
	case "ring":
		r := topology.NewRing(n.Size)
		return r.Graph(), paths.TranslationSystem(r), nil
	case "circulant":
		c := topology.NewCirculant(n.Size, n.Offsets)
		return c.Graph(), paths.TranslationSystem(c), nil
	case "ccc":
		c := topology.NewCCC(n.Dim)
		return c.Graph(), paths.TranslationSystem(c), nil
	case "star":
		s := topology.NewStarGraph(n.Dim)
		return s.Graph(), paths.TranslationSystem(s), nil
	default:
		return nil, nil, fmt.Errorf("jobs: unknown network kind %q", n.Kind)
	}
}
