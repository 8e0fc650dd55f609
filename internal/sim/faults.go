package sim

// Fault-injection runtime: the engine-resident state of a compiled
// faults.Schedule. The engine keeps one engineFaults value and exposes it
// through the nil-able pointer Engine.flt, mirroring the probe pattern:
// every hot-path consultation is a single nil check, so a run without a
// schedule is byte-for-byte and allocation-for-allocation identical to
// the pre-fault engine.
//
// Semantics, in step order (see Engine.step; RunReference models the same
// rules per flit, from the faults active at each step, and is the oracle
// the engine's fault handling is tested against):
//
//   - Fault events apply after releases and before activations/entries,
//     so the whole step sees one consistent fault set. Repairs order
//     before activations at the same step (schedule compilation).
//   - A LinkOutage activation destroys the flits currently occupying the
//     dark link in both bands: the occupant is cut there like a preempted
//     incumbent, except the kill is accounted as a fault kill, not a
//     collision. While dark, no train may enter the link.
//   - A WavelengthOutage does the same for its single (band, link,
//     wavelength) slot, and conversion scans skip dark slots.
//   - AckLoss destroys acknowledgement trains as they enter the link;
//     acks already on the link are unaffected.
//   - A StuckCoupler freezes contention at links leaving the node: the
//     current occupant always keeps the slot, a free slot goes to the
//     lowest-ID entrant, and losers are cut without conversion rescue.
//     These cuts ARE contention collisions (the coupler eliminated the
//     train; the component did not destroy it directly).
//
// Fault kills never touch Outcome.CutLink/CutTime or CollisionCount;
// they are counted in Result.FaultKillCount and reported through the
// probe's WormKilledByFault hook.

import (
	"repro/internal/faults"
)

// engineFaults holds the active fault counters, indexed to match the
// engine's occupancy layout. Counters (not booleans) make overlapping
// same-target windows compose correctly.
type engineFaults struct {
	events []faults.Event
	cursor int
	// linkDark[link] counts active LinkOutages on the directed link.
	linkDark []int32
	// slotDark counts active WavelengthOutages, indexed by the engine's
	// dense slot key (band*nLinks + link)*Bandwidth + wavelength.
	slotDark []int32
	// ackLoss[link] counts active AckLoss faults on the directed link.
	ackLoss []int32
	// stuck[node] counts active StuckCouplers at the node; nStuck is the
	// total so the per-group hot path can skip the node lookup entirely
	// while no coupler is stuck.
	stuck  []int32
	nStuck int
}

// attach resets the runtime for a new run over sched. Growth is
// capacity-guarded like the occupancy table: only the first run on a
// larger geometry allocates.
//
//optlint:hotpath
func (fl *engineFaults) attach(sched *faults.Schedule, nLinks, nNodes, slots int) {
	fl.events = sched.Events()
	fl.cursor = 0
	fl.nStuck = 0
	fl.linkDark = growCounters(fl.linkDark, nLinks)
	fl.ackLoss = growCounters(fl.ackLoss, nLinks)
	fl.slotDark = growCounters(fl.slotDark, slots)
	fl.stuck = growCounters(fl.stuck, nNodes)
}

// growCounters returns s resized to n and zeroed, reusing capacity.
//
//optlint:hotpath
func growCounters(s []int32, n int) []int32 {
	if cap(s) < n {
		//optlint:allow hotpath capacity-guarded growth: only the first run on a larger graph allocates
		return make([]int32, n)
	}
	s = s[:n]
	clear(s)
	return s
}

// advanceFaults applies every schedule event due at or before step t.
// Events skipped over during idle-time jumps are caught up here against
// an empty network (no occupants exist while the engine idles), so late
// application cannot change behavior.
//
//optlint:hotpath
func (e *Engine) advanceFaults(t int) {
	fl := e.flt
	for fl.cursor < len(fl.events) {
		ev := &fl.events[fl.cursor]
		if ev.Step > t {
			return
		}
		fl.cursor++
		e.applyFaultEvent(ev, t)
	}
}

// applyFaultEvent updates the counters for one activation or repair and,
// for outage activations, destroys the current occupants of the newly
// dark slots at the engine's current step t, which is when they
// physically happen.
//
//optlint:hotpath
func (e *Engine) applyFaultEvent(ev *faults.Event, t int) {
	fl := e.flt
	f := &ev.Fault
	d := int32(1)
	if !ev.Start {
		d = -1
	}
	switch f.Kind {
	case faults.LinkOutage:
		fl.linkDark[f.Link] += d
		if ev.Start {
			e.killLinkOccupants(f.Link, t)
		}
	case faults.WavelengthOutage:
		k := e.key(Band(f.Band), f.Link, f.Wavelength)
		fl.slotDark[k] += d
		// Mirror the counter into the packed dark mask: a dark slot reads
		// as occupied-but-unclaimable, so word scans can never pick it.
		if fl.slotDark[k] > 0 {
			e.darkBits[k>>e.wordShift] |= 1 << uint(k&e.wordMask)
			e.darkDirty = true
		} else {
			e.darkBits[k>>e.wordShift] &^= 1 << uint(k&e.wordMask)
		}
		if ev.Start {
			e.killSlotOccupant(k, t)
		}
	case faults.AckLoss:
		fl.ackLoss[f.Link] += d
	case faults.StuckCoupler:
		fl.stuck[f.Node] += d
		fl.nStuck += int(d)
	}
	if e.probe != nil {
		if ev.Start {
			e.probe.FaultStarted()
		} else {
			e.probe.FaultEnded()
		}
	}
}

// killLinkOccupants destroys the flits occupying any wavelength of the
// dark link, in both bands.
//
//optlint:hotpath
func (e *Engine) killLinkOccupants(link, t int) {
	base := link << e.waveShift
	for w := 0; w < e.cfg.Bandwidth; w++ {
		e.killSlotOccupant(base+w, t)            // message band
		e.killSlotOccupant(e.msgSlots+base+w, t) // ack band
	}
}

// killSlotOccupant destroys the flit currently traversing slot k, if any:
// the train is cut mid-body like a preempted incumbent (flits already
// past the failure continue as a ghost, flits behind drain at the dark
// link), but accounted as a fault kill rather than a collision.
//
//optlint:hotpath
func (e *Engine) killSlotOccupant(k, t int) {
	if e.occBits[k>>e.wordShift]&(1<<uint(k&e.wordMask)) == 0 {
		return
	}
	oc := e.occ[k]
	f, idx := e.fragAt(oc.fi), int(oc.idx)
	e.recordFaultKill(f)
	jCut := t - f.t.start - idx
	e.split(f, idx, jCut, t, false)
}

// faultKillEntrant destroys a fragment whose head flit tried to enter a
// dark link or slot (or an ack entering an AckLoss link) at step t.
//
//optlint:hotpath
func (e *Engine) faultKillEntrant(f *fragment, idx, t int) {
	e.recordFaultKill(f)
	e.split(f, idx, int(f.jMin), t, false)
}

// recordFaultKill accounts one fault kill. Unlike recordCut it does not
// touch CollisionCount, the Collisions list, or the outcome's
// CutLink/CutTime fields: those report contention, and mixing component
// failures into them would skew every collision-based statistic.
//
//optlint:hotpath
func (e *Engine) recordFaultKill(f *fragment) {
	tr := f.t
	tr.cut = true
	e.res.FaultKillCount++
	if e.probe != nil {
		e.probe.WormKilledByFault(int(tr.band))
	}
}
