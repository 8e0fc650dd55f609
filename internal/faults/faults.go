// Package faults provides deterministic fault injection for the routing
// simulator: declarative failure plans (link outages and repairs,
// per-wavelength outages, acknowledgement loss, stuck couplers) compiled
// into a step-indexed event schedule the simulator consumes, plus random
// plan generators driven by internal/rng so a single seed reproduces an
// entire faulty run.
//
// A Plan speaks protocol time: fault windows are absolute step intervals
// [Start, End) measured from the start of the run the plan is attached
// to. The protocol core re-anchors a plan per round with Shift, so one
// plan describes the whole protocol execution while each round's
// simulation sees only the window that overlaps it.
//
// The package sits below the simulator (it depends only on internal/graph
// and internal/rng), so sim, core and the experiment harness can all
// share the same plan types without import cycles.
package faults

import (
	"fmt"
	"sort"

	"repro/internal/graph"
)

// Kind enumerates the failure modes the simulator can inject.
type Kind int

const (
	// LinkOutage takes one directed link dark for the fault window: flits
	// occupying the link are destroyed at activation, and no train (message
	// or acknowledgement) may enter it until repair.
	LinkOutage Kind = iota
	// WavelengthOutage darkens a single (band, link, wavelength) slot —
	// the failure of one laser or filter rather than the whole fiber.
	WavelengthOutage
	// AckLoss makes acknowledgement trains entering the link vanish for
	// the window (a failed detector on the reserved ack band). Message
	// traffic on the link is unaffected, as are acks already in flight
	// past the link.
	AckLoss
	// StuckCoupler freezes the contention logic of one router: while
	// active, every conflict at links leaving the node keeps the current
	// occupant (or admits the lowest-ID entrant when the slot is free),
	// regardless of the configured rule, tie policy, or ranks, and
	// wavelength conversion at the node is disabled.
	StuckCoupler
)

// String names the kind.
func (k Kind) String() string {
	switch k {
	case LinkOutage:
		return "link-outage"
	case WavelengthOutage:
		return "wavelength-outage"
	case AckLoss:
		return "ack-loss"
	case StuckCoupler:
		return "stuck-coupler"
	default:
		return fmt.Sprintf("Kind(%d)", int(k))
	}
}

// Fault is one failure with a half-open activity window [Start, End).
// End <= 0 means the fault is never repaired.
type Fault struct {
	// Kind selects the failure mode.
	Kind Kind
	// Link is the directed link affected (LinkOutage, WavelengthOutage,
	// AckLoss).
	Link graph.LinkID
	// Node is the router affected (StuckCoupler only).
	Node graph.NodeID
	// Band is the wavelength band of a WavelengthOutage: 0 for the
	// message band, 1 for the reserved ack band.
	Band int
	// Wavelength is the darkened wavelength of a WavelengthOutage.
	Wavelength int
	// Start is the first step the fault is active; must be >= 0.
	Start int
	// End is the first step the fault is repaired; End <= 0 means never.
	End int
}

// ActiveAt reports whether the fault is active at step t.
func (f Fault) ActiveAt(t int) bool {
	return t >= f.Start && (f.End <= 0 || t < f.End)
}

// validate checks one fault against the target geometry.
func (f Fault) validate(links, nodes, bandwidth int) error {
	switch f.Kind {
	case LinkOutage, AckLoss:
		if f.Link < 0 || f.Link >= links {
			return fmt.Errorf("link %d out of [0,%d)", f.Link, links)
		}
	case WavelengthOutage:
		if f.Link < 0 || f.Link >= links {
			return fmt.Errorf("link %d out of [0,%d)", f.Link, links)
		}
		if f.Band < 0 || f.Band > 1 {
			return fmt.Errorf("band %d out of [0,2)", f.Band)
		}
		if f.Wavelength < 0 || f.Wavelength >= bandwidth {
			return fmt.Errorf("wavelength %d out of [0,%d)", f.Wavelength, bandwidth)
		}
	case StuckCoupler:
		if f.Node < 0 || f.Node >= nodes {
			return fmt.Errorf("node %d out of [0,%d)", f.Node, nodes)
		}
	default:
		return fmt.Errorf("unknown kind %d", int(f.Kind))
	}
	if f.Start < 0 {
		return fmt.Errorf("negative start %d", f.Start)
	}
	if f.End > 0 && f.End <= f.Start {
		return fmt.Errorf("empty window [%d,%d)", f.Start, f.End)
	}
	return nil
}

// Plan is a declarative set of faults. The zero value (and nil) is the
// empty plan. Plans are immutable once shared; Shift returns new plans.
type Plan struct {
	Faults []Fault
}

// Empty reports whether the plan injects nothing.
func (p *Plan) Empty() bool { return p == nil || len(p.Faults) == 0 }

// Validate checks every fault against the graph and bandwidth.
func (p *Plan) Validate(g *graph.Graph, bandwidth int) error {
	if p == nil {
		return nil
	}
	if bandwidth < 1 {
		return fmt.Errorf("faults: bandwidth %d < 1", bandwidth)
	}
	for i, f := range p.Faults {
		if err := f.validate(g.NumLinks(), g.NumNodes(), bandwidth); err != nil {
			return fmt.Errorf("faults: fault %d (%s): %w", i, f.Kind, err)
		}
	}
	return nil
}

// Shift returns the plan as seen from protocol time offset: faults fully
// repaired before offset are dropped, and the remaining windows are
// translated by -offset (Start clamped at 0, open ends stay open). The
// protocol core uses this to hand each round the sub-plan overlapping it.
func (p *Plan) Shift(offset int) *Plan {
	if p == nil || offset <= 0 {
		return p
	}
	q := &Plan{}
	for _, f := range p.Faults {
		if f.End > 0 && f.End <= offset {
			continue
		}
		f.Start -= offset
		if f.Start < 0 {
			f.Start = 0
		}
		if f.End > 0 {
			f.End -= offset
		}
		q.Faults = append(q.Faults, f)
	}
	return q
}

// DownLinksAt returns the sorted, deduplicated directed links taken dark
// by a LinkOutage active at step t. Degraded-mode path selection uses
// this to route around links known down at round start.
func (p *Plan) DownLinksAt(t int) []graph.LinkID {
	if p == nil {
		return nil
	}
	var down []graph.LinkID
	for _, f := range p.Faults {
		if f.Kind == LinkOutage && f.ActiveAt(t) {
			down = append(down, f.Link)
		}
	}
	sort.Ints(down)
	out := down[:0]
	for i, id := range down {
		if i == 0 || id != down[i-1] {
			out = append(out, id)
		}
	}
	return out
}

// Event is one schedule entry: fault ev.Fault activates (Start true) or
// is repaired (Start false) at step ev.Step.
type Event struct {
	Step  int
	Start bool
	Fault Fault
}

// Schedule is a compiled, immutable plan: events sorted by step with
// repairs ordered before activations at the same step, pinned to the
// geometry it was compiled for so the simulator can reject mismatched
// attachments.
type Schedule struct {
	events []Event
	links  int
	nodes  int
	bw     int
}

// Compile validates the plan against g and bandwidth and flattens it into
// a step-indexed schedule. A nil or empty plan compiles to an empty
// schedule, which the simulator treats exactly like no schedule at all.
func (p *Plan) Compile(g *graph.Graph, bandwidth int) (*Schedule, error) {
	if err := p.Validate(g, bandwidth); err != nil {
		return nil, err
	}
	s := &Schedule{links: g.NumLinks(), nodes: g.NumNodes(), bw: bandwidth}
	if p == nil {
		return s, nil
	}
	for _, f := range p.Faults {
		s.events = append(s.events, Event{Step: f.Start, Start: true, Fault: f})
		if f.End > 0 {
			s.events = append(s.events, Event{Step: f.End, Start: false, Fault: f})
		}
	}
	// Repairs sort before activations at the same step so a link repaired
	// and re-failed at one step ends up dark, not doubly counted. The
	// stable sort keeps plan order among equal keys, making compilation a
	// pure function of the plan.
	sort.SliceStable(s.events, func(i, j int) bool {
		a, b := s.events[i], s.events[j]
		if a.Step != b.Step {
			return a.Step < b.Step
		}
		return !a.Start && b.Start
	})
	return s, nil
}

// MustCompile is Compile that panics on error; for plans correct by
// construction (e.g. generator output).
func (p *Plan) MustCompile(g *graph.Graph, bandwidth int) *Schedule {
	s, err := p.Compile(g, bandwidth)
	if err != nil {
		panic(err)
	}
	return s
}

// Events returns the compiled events in application order. The caller
// must not modify the result.
func (s *Schedule) Events() []Event { return s.events }

// Matches reports whether the schedule was compiled for the given
// geometry. The simulator rejects schedules compiled for a different
// graph or bandwidth instead of silently indexing out of range.
func (s *Schedule) Matches(links, nodes, bandwidth int) bool {
	return s.links == links && s.nodes == nodes && s.bw == bandwidth
}
