// Package sim implements the discrete-time simulator of bufferless
// all-optical wormhole routing from Section 1.1 of Flammini & Scheideler
// (SPAA'97).
//
// Worms are rigid trains of L flits moving one link per time step along a
// fixed path: the worm with startup delay s occupies link i of its path
// during steps [s+i, s+i+L-1] (flit j traverses link i during step s+i+j).
// Worms cannot be buffered: on a wavelength conflict at a link, the losing
// worm (the arriving one under the serve-first rule, the lower-ranked one
// under the priority rule) is cut at that link.
//
// The wreckage of a cut is modelled by the fragment system: the losing
// worm's flits that already passed the conflict link continue as a ghost
// train toward the destination (they still occupy links and contend); the
// flits behind keep flowing and are absorbed at the conflict link's
// coupler (a barrier). This is the Drain policy; the Vanish policy removes
// the loser instantly, which matches the pairwise accounting used in the
// paper's analysis. Both policies never deliver a cut worm.
//
// Acknowledgements travel the reversed links in a reserved second band of
// B wavelengths (the paper's simplification) and contend under the same
// rule; a source only learns of success when the ack fully arrives.
package sim

import (
	"fmt"
	"math"
	"math/bits"

	"repro/internal/faults"
	"repro/internal/graph"
	"repro/internal/optical"
	"repro/internal/telemetry"
)

// WreckagePolicy selects what happens to a worm that loses a collision.
type WreckagePolicy int

const (
	// Drain keeps the loser's wreckage in the network: downstream flits
	// continue as a ghost, upstream flits drain into the conflict link's
	// coupler. The physically faithful default.
	Drain WreckagePolicy = iota
	// Vanish removes the loser's occupancy instantly — the clean model
	// that matches the paper's analysis of pairwise collisions.
	Vanish
)

// String names the policy.
func (w WreckagePolicy) String() string {
	switch w {
	case Drain:
		return "drain"
	case Vanish:
		return "vanish"
	default:
		return fmt.Sprintf("WreckagePolicy(%d)", int(w))
	}
}

// ParseWreckage returns the policy whose String is name, the inverse of
// String.
func ParseWreckage(name string) (WreckagePolicy, error) {
	for _, w := range []WreckagePolicy{Drain, Vanish} {
		if w.String() == name {
			return w, nil
		}
	}
	return 0, fmt.Errorf("sim: unknown wreckage policy %q (want drain or vanish)", name)
}

// Config parameterizes one simulation run (one protocol round).
type Config struct {
	// Bandwidth is B, the number of wavelengths per band. Required >= 1.
	Bandwidth int
	// Rule is the contention-resolution rule of all couplers.
	Rule optical.Rule
	// Tie is the serve-first policy for simultaneous arrivals on a free
	// wavelength (default TieEliminateAll).
	Tie optical.TiePolicy
	// Wreckage selects the Drain (default) or Vanish policy.
	Wreckage WreckagePolicy
	// AckLength is the flit length of acknowledgement worms. 0 selects
	// oracle acknowledgements: sources learn success instantly and
	// without contention.
	AckLength int
	// Conversion enables wavelength conversion (the paper's Section 4
	// extension and the model of Cypher et al. [11]): when non-nil, a
	// worm whose head would lose a conflict entering a link may shift to
	// a free wavelength, provided Conversion(u) is true for the router u
	// the link leaves from. Only arriving heads convert — a preempted
	// incumbent is already mid-link and cannot. The worm keeps the new
	// wavelength from that link onward; its acknowledgement uses the
	// final wavelength. Use FullConversion for conversion everywhere.
	Conversion func(node graph.NodeID) bool
	// RecordCollisions retains a Collision entry for every lost conflict.
	RecordCollisions bool
	// Faults optionally attaches a compiled fault schedule (see
	// internal/faults): link and wavelength outages destroy and then block
	// traffic for their windows, ack-loss faults swallow acknowledgement
	// trains, stuck couplers freeze contention at a node. The schedule
	// must be compiled for this graph and bandwidth. A nil Faults — or a
	// compiled empty plan — keeps the run byte-for-byte identical to the
	// fault-free engine and allocation-free in steady state. Fault
	// timestamps are steps of this run (the protocol core re-anchors
	// plans per round via faults.Plan.Shift).
	Faults *faults.Schedule
	// Probe optionally receives engine events (see internal/telemetry):
	// run boundaries, per-step busy totals, cuts, deliveries, ack
	// completions and faults. A nil probe costs one predictable branch per
	// hook site; attaching a probe never changes the simulation result.
	Probe *telemetry.Collector
	// CheckInvariants enables per-step internal consistency checks
	// (occupancy table vs. fragment windows). For tests; slows the run.
	CheckInvariants bool
	// MaxSteps optionally bounds the simulation; 0 derives a safe bound
	// from the input. Exceeding the bound returns an error (a bug guard,
	// not an expected outcome).
	MaxSteps int
}

// Worm is one message to route in this round. A worm is named by its
// index in the batch passed to Run: outcomes, collisions and the
// arbitrary-winner tie rule all use that index.
type Worm struct {
	// Route is the worm's path, checked against the run's graph
	// (graph.AppendRoute, or a collection's Route) and not revisiting a
	// directed link. The engine reads its links without copying them.
	Route graph.Route
	// Length is L >= 1, the number of flits.
	Length int
	// Delay is the startup delay s >= 0: the head enters the first link
	// at step s.
	Delay int
	// Wavelength in [0, Bandwidth).
	Wavelength int
	// Rank is the priority (higher wins) under the Priority rule.
	Rank int
}

// FullConversion enables wavelength conversion at every router.
func FullConversion(graph.NodeID) bool { return true }

// Band distinguishes the message band from the reserved ack band.
type Band int

const (
	// MessageBand carries the worms.
	MessageBand Band = iota
	// AckBand carries the acknowledgements.
	AckBand
)

// Collision records one lost conflict.
type Collision struct {
	Time       int          // step at which the loser was cut
	Link       graph.LinkID // physical directed link
	Wavelength int
	Band       Band
	Loser      int  // batch index of the worm that was cut
	Blocker    int  // batch index of the worm that stopped it (may also have lost, on ties)
	LoserIsAck bool // the cut train was an acknowledgement
}

// Outcome is the fate of one worm in this round.
type Outcome struct {
	Delivered   bool // all L flits reached the destination
	Acked       bool // the source received the acknowledgement
	DeliveredAt int  // completion step; -1 if not delivered
	AckedAt     int  // ack completion step; -1 if not acked
	// CutLink and CutTime record the first cut of the MESSAGE worm only;
	// -1 if the message was never cut. A delivered worm whose
	// acknowledgement was destroyed keeps CutTime == -1.
	CutLink int // message path link index of the first cut
	CutTime int // step of the first message cut
	// AckCutLink and AckCutTime record the first cut of the worm's
	// acknowledgement train (an index into the REVERSED ack path); -1 if
	// the ack was never cut. A round with Delivered && !Acked &&
	// AckCutTime >= 0 lost the delivery notice to ack-band contention.
	AckCutLink int
	AckCutTime int
}

// Result is the full account of one simulated round.
type Result struct {
	// Outcomes[i] corresponds to worms[i] of the Run call.
	Outcomes []Outcome
	// Collisions in time order (only when RecordCollisions).
	Collisions []Collision
	// CollisionCount counts lost conflicts regardless of recording.
	CollisionCount int
	// FaultKillCount counts trains (messages and acks) destroyed by
	// injected faults. Fault kills are not collisions: they do not count
	// in CollisionCount, appear in Collisions, or set the outcome's
	// CutLink/CutTime, so contention statistics stay comparable between
	// faulty and fault-free runs.
	FaultKillCount int
	// Makespan is the last step at which anything happened.
	Makespan int
	// MessageBusySlotSteps counts occupied message-band slots summed over
	// steps — the numerator of message-band link utilization.
	MessageBusySlotSteps int
	// AckBusySlotSteps counts occupied ack-band slots summed over steps.
	AckBusySlotSteps int
	// DeliveredCount and AckedCount summarize the outcomes.
	DeliveredCount, AckedCount int
}

// Utilization returns MessageBusySlotSteps normalized by the message-band
// capacity links*B*(makespan+1). Acknowledgement traffic occupies the
// reserved second band and is reported by AckUtilization; earlier
// versions mixed it into this numerator, overstating message-band load.
func (r *Result) Utilization(links, bandwidth int) float64 {
	return bandUtilization(r.MessageBusySlotSteps, links, bandwidth, r.Makespan)
}

// AckUtilization returns AckBusySlotSteps normalized by the ack-band
// capacity links*B*(makespan+1).
func (r *Result) AckUtilization(links, bandwidth int) float64 {
	return bandUtilization(r.AckBusySlotSteps, links, bandwidth, r.Makespan)
}

// bandUtilization normalizes one band's busy-slot total by that band's
// capacity links*B*(makespan+1).
func bandUtilization(busy, links, bandwidth, makespan int) float64 {
	if links <= 0 || bandwidth <= 0 || makespan < 0 {
		return 0
	}
	return float64(busy) / (float64(links) * float64(bandwidth) * float64(makespan+1))
}

// checkWorms validates a batch of worms: each route was checked against
// g when it was made and revisits no directed link, and the round fields
// are valid. Errors name a worm by its batch index.
func checkWorms(g *graph.Graph, worms []Worm, cfg Config) error {
	if err := checkConfig(g, cfg); err != nil {
		return err
	}
	for i := range worms {
		w := &worms[i]
		if !w.Route.On(g) {
			return fmt.Errorf("sim: worm %d has no route checked against this graph", i)
		}
		if w.Route.Revisits() {
			return fmt.Errorf("sim: worm %d revisits a directed link", i)
		}
		if w.Length < 1 {
			return fmt.Errorf("sim: worm %d has length %d < 1", i, w.Length)
		}
		if w.Delay < 0 {
			return fmt.Errorf("sim: worm %d has negative delay %d", i, w.Delay)
		}
		if w.Wavelength < 0 || w.Wavelength >= cfg.Bandwidth {
			return fmt.Errorf("sim: worm %d wavelength %d out of [0,%d)", i, w.Wavelength, cfg.Bandwidth)
		}
	}
	return nil
}

// checkRequests validates the requests of a dynamic run as checkWorms
// validates worms: each route was checked against g when it was made and
// revisits no directed link, and the length and arrival are valid.
func checkRequests(g *graph.Graph, reqs []Request, cfg Config) error {
	if err := checkConfig(g, cfg); err != nil {
		return err
	}
	for i := range reqs {
		r := &reqs[i]
		if !r.Route.On(g) {
			return fmt.Errorf("sim: request %d has no route checked against this graph", i)
		}
		if r.Route.Revisits() {
			return fmt.Errorf("sim: request %d revisits a directed link", i)
		}
		if r.Length < 1 || r.Arrival < 0 {
			return fmt.Errorf("sim: request %d has invalid parameters", i)
		}
	}
	return nil
}

// checkConfig checks the run-wide configuration.
func checkConfig(g *graph.Graph, cfg Config) error {
	if cfg.Bandwidth < 1 {
		return fmt.Errorf("sim: bandwidth %d < 1", cfg.Bandwidth)
	}
	if cfg.AckLength < 0 {
		return fmt.Errorf("sim: negative ack length %d", cfg.AckLength)
	}
	// The engine caches slot keys as int32 (train.keys): bound the whole
	// padded key space accordingly. Any geometry near this limit is
	// unrunnable anyway — the occupant table alone would need tens of
	// gigabytes. Link IDs then fit an int32 too.
	if shift := uint(bits.Len(uint(cfg.Bandwidth - 1))); uint64(2*g.NumLinks())<<shift > math.MaxInt32 {
		return fmt.Errorf("sim: occupancy key space (%d links, bandwidth %d) exceeds int32",
			g.NumLinks(), cfg.Bandwidth)
	}
	if cfg.Faults != nil && !cfg.Faults.Matches(g.NumLinks(), g.NumNodes(), cfg.Bandwidth) {
		return fmt.Errorf("sim: fault schedule compiled for a different graph or bandwidth")
	}
	return nil
}
