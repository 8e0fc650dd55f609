package telemetry

import (
	"fmt"
	"math"
)

// Collector is the telemetry sink: the engine and the protocol call its
// hooks at event points, and it folds those events into counters,
// per-slot collision heatmaps, per-link busy integrals and fixed-bucket
// histograms. All state is sized in BeginRun (growing only when a larger
// graph appears), so the per-event path is allocation-free in steady
// state. A Collector must come from NewCollector: the zero value has no
// histogram buckets and panics at the first delivery, acknowledgement or
// run end it records. A Collector is single-goroutine; use AddSnapshot
// or Live to combine collectors from concurrent workers.
//
// Per-link state is indexed by physical directed link ID, so a collector
// fed runs on different graphs mixes their heatmaps; use one collector
// per topology (or Reset between them) for meaningful per-link data.
type Collector struct {
	links     int // per-link state currently provisioned
	bandwidth int

	runs           uint64
	steps          uint64
	msgBusy        uint64 // busy-slot-steps, message band (from StepAdvanced)
	ackBusy        uint64 // busy-slot-steps, ack band
	cuts           [NumBands]uint64
	splits         uint64
	delivered      uint64
	acked          uint64
	wormsLaunched  uint64
	roundsObserved uint64
	faultsStarted  uint64
	faultsEnded    uint64
	faultKills     [NumBands]uint64

	// collisions is the cut heatmap, indexed (band*links + link)*B + wave.
	collisions []uint64
	// linkBusy integrates per-(band, link) busy-slot time from the
	// claim/release event stream, indexed band*links + link.
	linkBusy []linkBusyState

	retries     Histogram // rounds before the successful one, per acked worm
	roundsToAck Histogram // 1-based round of the acknowledgement
	delivery    Histogram // steps from launch to full delivery
	ackLatency  Histogram // ack-train residence steps (0 = oracle)
	makespan    Histogram // per-run makespan

	// rounds keeps the most recent per-round summaries up to its fixed
	// capacity; older entries are dropped and counted in roundsDropped so
	// the protocol path stays allocation-free.
	rounds        []RoundInfo
	roundsDropped uint64
	curRound      int // 1-based round in flight; 0 = outside a protocol
}

// linkBusyState integrates one (band, link)'s busy-slot time: occupied
// holds the current number of busy wavelength slots, lastT the step of
// the last transition, and busySteps the integral so far.
type linkBusyState struct {
	occupied  int
	lastT     int
	busySteps uint64
}

// maxTrackedRounds bounds the per-round summary buffer of one Collector.
const maxTrackedRounds = 512

// NewCollector returns a collector with the default histogram layouts:
// power-of-two buckets for latencies and makespans, linear buckets for
// round counts.
func NewCollector() *Collector {
	return &Collector{
		retries:     NewHistogram(LinearBuckets(0, 1, 16)),
		roundsToAck: NewHistogram(LinearBuckets(1, 1, 16)),
		delivery:    NewHistogram(ExpBuckets(1, 2, 20)),
		ackLatency:  NewHistogram(ExpBuckets(1, 2, 20)),
		makespan:    NewHistogram(ExpBuckets(1, 2, 24)),
		rounds:      make([]RoundInfo, 0, maxTrackedRounds),
	}
}

// BeginRun opens a run of worms worms on a graph of links directed links
// with bandwidth wavelengths per band, (re)provisioning the per-slot and
// per-link state for those dimensions. Growth allocates; a steady state
// of same-sized runs does not. worms is 0 for a dynamic run, whose
// attempts launch over time.
func (c *Collector) BeginRun(links, bandwidth, worms int) {
	c.runs++
	c.wormsLaunched += uint64(worms)
	c.provision(links, bandwidth)
}

// provision grows the per-slot and per-link tables to cover at least the
// given geometry. Per-link data survives growth; the per-wavelength
// collision heatmap survives only while the wavelength stride (bandwidth)
// is unchanged — re-binning counts across strides is not meaningful, and
// mixed-geometry collectors are documented as per-topology anyway.
func (c *Collector) provision(links, bandwidth int) {
	if links <= c.links && bandwidth <= c.bandwidth {
		return
	}
	links = max(links, c.links)
	bandwidth = max(bandwidth, c.bandwidth)
	collisions := make([]uint64, NumBands*links*bandwidth)
	linkBusy := make([]linkBusyState, NumBands*links)
	for band := 0; band < NumBands && c.links > 0; band++ {
		copy(linkBusy[band*links:], c.linkBusy[band*c.links:(band+1)*c.links])
		if bandwidth == c.bandwidth {
			copy(collisions[band*links*bandwidth:], c.collisions[band*c.links*bandwidth:(band+1)*c.links*bandwidth])
		}
	}
	c.collisions = collisions
	c.linkBusy = linkBusy
	c.links, c.bandwidth = links, bandwidth
}

// StepAdvanced records one executed simulation step with the number of
// occupied (link, wavelength) slots per band at step end.
func (c *Collector) StepAdvanced(msgBusy, ackBusy int) {
	c.steps++
	c.msgBusy += uint64(msgBusy)
	c.ackBusy += uint64(ackBusy)
}

// SlotClaimed records that a free wavelength slot of link in band became
// occupied during step t. With SlotReleased it integrates exact per-link
// busy time in O(1) per event.
func (c *Collector) SlotClaimed(t, band, link int) {
	lb := &c.linkBusy[band*c.links+link]
	lb.busySteps += uint64(lb.occupied) * uint64(t-lb.lastT)
	lb.lastT = t
	lb.occupied++
}

// SlotReleased records that an occupied wavelength slot of link in band
// became free during step t. A slot handed from one fragment to another
// without going free (a preemption, a same-train reassignment) is
// neither released nor claimed.
func (c *Collector) SlotReleased(t, band, link int) {
	lb := &c.linkBusy[band*c.links+link]
	lb.busySteps += uint64(lb.occupied) * uint64(t-lb.lastT)
	lb.lastT = t
	lb.occupied--
}

// WormCut records one lost conflict: a train lost a flit entering link
// on the given band and wavelength.
func (c *Collector) WormCut(band, link, wavelength int) {
	c.cuts[band]++
	c.collisions[(band*c.links+link)*c.bandwidth+wavelength]++
}

// FragmentSplit records a cut or fault kill splitting a train's
// surviving flits into wreckage fragments.
func (c *Collector) FragmentSplit() { c.splits++ }

// WormDelivered records a message worm whose flits all reached the
// destination residence steps after launch.
func (c *Collector) WormDelivered(residence int) {
	c.delivered++
	c.delivery.Observe(residence)
}

// AckCompleted records a source learning of its delivery: residence is
// the ack train's steps after launch (0 for oracle acks). Inside a
// protocol round it also records the round of the acknowledgement.
func (c *Collector) AckCompleted(residence int) {
	c.acked++
	c.ackLatency.Observe(residence)
	if c.curRound > 0 {
		c.roundsToAck.Observe(c.curRound)
		c.retries.Observe(c.curRound - 1)
	}
}

// FaultStarted records an injected fault becoming active.
func (c *Collector) FaultStarted() { c.faultsStarted++ }

// FaultEnded records an injected fault being repaired.
func (c *Collector) FaultEnded() { c.faultsEnded++ }

// WormKilledByFault records an injected fault destroying flits of a
// train in band. Fault kills are never recorded as WormCut: the two
// streams keep component failures apart from lost contentions.
func (c *Collector) WormKilledByFault(band int) { c.faultKills[band]++ }

// EndRun closes the run opened by BeginRun with its final makespan.
func (c *Collector) EndRun(makespan int) { c.makespan.Observe(makespan) }

// RoundStarted opens protocol round round (1-based); acknowledgements
// until RoundFinished count toward it.
func (c *Collector) RoundStarted(round int) { c.curRound = round }

// RoundFinished records the finished round's summary, keeping the most
// recent ones up to the retention cap.
func (c *Collector) RoundFinished(info RoundInfo) {
	c.roundsObserved++
	c.curRound = 0
	if len(c.rounds) < cap(c.rounds) {
		c.rounds = append(c.rounds, info)
	} else {
		c.roundsDropped++
	}
}

// AddSnapshot folds s's observations into c. It is the one merge:
// another collector's delta (c.AddSnapshot(o.Snapshot())), a stored
// checkpoint, or a peer's trial. Tables grow to the larger geometry as
// in BeginRun, and per-link cells fold only while the bandwidths agree.
// s is checked before anything changes — its geometry must be sizable,
// its cells inside that geometry and its histograms in c's bucket
// layouts — so on error c is unchanged. The tables are sized from s's
// declared geometry: a caller folding outside input bounds it first.
// Rounds are retained up to the collector's cap, the surplus counted in
// RoundsDropped.
func (c *Collector) AddSnapshot(s *Snapshot) error {
	if err := c.check(s); err != nil {
		return err
	}
	c.provision(s.Links, s.Bandwidth)
	c.runs += s.Runs
	c.steps += s.Steps
	c.wormsLaunched += s.WormsLaunched
	c.msgBusy += s.MessageBusySlotSteps
	c.ackBusy += s.AckBusySlotSteps
	c.cuts[MessageBand] += s.MessageCuts
	c.cuts[AckBand] += s.AckCuts
	c.splits += s.FragmentSplits
	c.delivered += s.Delivered
	c.acked += s.Acked
	c.roundsObserved += s.RoundsObserved
	c.faultsStarted += s.FaultsStarted
	c.faultsEnded += s.FaultsEnded
	c.faultKills[MessageBand] += s.MessageFaultKills
	c.faultKills[AckBand] += s.AckFaultKills
	if s.Links > 0 && c.bandwidth == s.Bandwidth {
		for _, x := range s.Collisions {
			c.collisions[(x.Band*c.links+x.Link)*c.bandwidth+x.Wavelength] += x.Count
		}
		for _, x := range s.LinkBusySteps {
			c.linkBusy[x.Band*c.links+x.Link].busySteps += x.BusySlotSteps
		}
	}
	c.retries.add(&s.Retries)
	c.roundsToAck.add(&s.RoundsToAck)
	c.delivery.add(&s.StepsToDelivery)
	c.ackLatency.add(&s.AckResidence)
	c.makespan.add(&s.Makespan)
	for _, r := range s.Rounds {
		if len(c.rounds) < cap(c.rounds) {
			c.rounds = append(c.rounds, r)
		} else {
			c.roundsDropped++
		}
	}
	c.roundsDropped += s.RoundsDropped
	return nil
}

// check reports why AddSnapshot cannot fold s, before anything changes.
func (c *Collector) check(s *Snapshot) error {
	links, bandwidth := max(s.Links, c.links), max(s.Bandwidth, c.bandwidth)
	if s.Links < 0 || s.Bandwidth < 0 || links > math.MaxInt/NumBands/max(bandwidth, 1) {
		return fmt.Errorf("telemetry: snapshot geometry %dx%d cannot be sized", s.Links, s.Bandwidth)
	}
	for _, x := range s.Collisions {
		if x.Band < 0 || x.Band >= NumBands || x.Link < 0 || x.Link >= s.Links || x.Wavelength < 0 || x.Wavelength >= s.Bandwidth {
			return fmt.Errorf("telemetry: collision cell (%d, %d, %d) outside the snapshot's %dx%d geometry",
				x.Band, x.Link, x.Wavelength, s.Links, s.Bandwidth)
		}
	}
	for _, x := range s.LinkBusySteps {
		if x.Band < 0 || x.Band >= NumBands || x.Link < 0 || x.Link >= s.Links {
			return fmt.Errorf("telemetry: busy cell (%d, %d) outside the snapshot's %d links", x.Band, x.Link, s.Links)
		}
	}
	if !c.retries.fits(&s.Retries) || !c.roundsToAck.fits(&s.RoundsToAck) || !c.delivery.fits(&s.StepsToDelivery) ||
		!c.ackLatency.fits(&s.AckResidence) || !c.makespan.fits(&s.Makespan) {
		return fmt.Errorf("telemetry: snapshot histograms have different bucket layouts")
	}
	return nil
}

// Reset zeroes all observations, keeping every buffer's capacity so the
// collector can be reused without reallocating.
func (c *Collector) Reset() {
	c.runs, c.steps, c.msgBusy, c.ackBusy = 0, 0, 0, 0
	c.cuts = [NumBands]uint64{}
	c.splits, c.delivered, c.acked = 0, 0, 0
	c.wormsLaunched, c.roundsObserved = 0, 0
	c.faultsStarted, c.faultsEnded = 0, 0
	c.faultKills = [NumBands]uint64{}
	for i := range c.collisions {
		c.collisions[i] = 0
	}
	for i := range c.linkBusy {
		c.linkBusy[i] = linkBusyState{}
	}
	c.retries.Reset()
	c.roundsToAck.Reset()
	c.delivery.Reset()
	c.ackLatency.Reset()
	c.makespan.Reset()
	c.rounds = c.rounds[:0]
	c.roundsDropped = 0
	c.curRound = 0
}

// SlotCount is one nonzero cell of the collision heatmap.
type SlotCount struct {
	// Band is MessageBand or AckBand.
	Band int `json:"band"`
	// Link is the physical directed link ID.
	Link int `json:"link"`
	// Wavelength indexes the band's wavelengths.
	Wavelength int `json:"wavelength"`
	// Count is the number of cuts at this slot.
	Count uint64 `json:"count"`
}

// LinkBusy is one nonzero cell of the per-link busy integral.
type LinkBusy struct {
	// Band is MessageBand or AckBand.
	Band int `json:"band"`
	// Link is the physical directed link ID.
	Link int `json:"link"`
	// BusySlotSteps is the link's occupied (wavelength, step) slot count.
	BusySlotSteps uint64 `json:"busy_slot_steps"`
}

// Snapshot is a self-contained, serializable copy of a Collector's
// state, safe to hold after the collector moves on.
type Snapshot struct {
	// Links and Bandwidth give the provisioned heatmap geometry.
	Links int `json:"links"`
	// Bandwidth is the number of wavelengths per band.
	Bandwidth int `json:"bandwidth"`
	// Runs counts simulation runs observed (protocol rounds each count
	// one run).
	Runs uint64 `json:"runs"`
	// Steps counts executed simulation steps.
	Steps uint64 `json:"steps"`
	// WormsLaunched counts worms launched across runs.
	WormsLaunched uint64 `json:"worms_launched"`
	// MessageBusySlotSteps and AckBusySlotSteps total the occupied
	// (link, wavelength, step) slots per band.
	MessageBusySlotSteps uint64 `json:"message_busy_slot_steps"`
	// AckBusySlotSteps is the ack-band total.
	AckBusySlotSteps uint64 `json:"ack_busy_slot_steps"`
	// MessageCuts and AckCuts count lost conflicts per band.
	MessageCuts uint64 `json:"message_cuts"`
	// AckCuts counts ack-band cuts.
	AckCuts uint64 `json:"ack_cuts"`
	// FragmentSplits counts wreckage splits (Drain-policy cuts).
	FragmentSplits uint64 `json:"fragment_splits"`
	// Delivered and Acked count worm completions.
	Delivered uint64 `json:"delivered"`
	// Acked counts acknowledged worms.
	Acked uint64 `json:"acked"`
	// RoundsObserved counts finished protocol rounds.
	RoundsObserved uint64 `json:"rounds_observed"`
	// FaultsStarted and FaultsEnded count injected fault activations and
	// repairs observed across runs.
	FaultsStarted uint64 `json:"faults_started"`
	// FaultsEnded counts fault repairs.
	FaultsEnded uint64 `json:"faults_ended"`
	// MessageFaultKills and AckFaultKills count trains destroyed by
	// injected faults per band — kept apart from MessageCuts/AckCuts,
	// which count only lost contentions.
	MessageFaultKills uint64 `json:"message_fault_kills"`
	// AckFaultKills is the ack-band fault-kill total.
	AckFaultKills uint64 `json:"ack_fault_kills"`
	// Collisions lists the nonzero cut-heatmap cells.
	Collisions []SlotCount `json:"collisions,omitempty"`
	// LinkBusySteps lists the nonzero per-link busy integrals.
	LinkBusySteps []LinkBusy `json:"link_busy_steps,omitempty"`
	// Retries is the per-acked-worm failed-round count distribution.
	Retries HistogramSnapshot `json:"retries"`
	// RoundsToAck is the 1-based acknowledgement round distribution.
	RoundsToAck HistogramSnapshot `json:"rounds_to_ack"`
	// StepsToDelivery is the launch-to-delivery residence distribution.
	StepsToDelivery HistogramSnapshot `json:"steps_to_delivery"`
	// AckResidence is the ack-train residence distribution.
	AckResidence HistogramSnapshot `json:"ack_residence"`
	// Makespan is the per-run makespan distribution.
	Makespan HistogramSnapshot `json:"makespan"`
	// Rounds holds the retained per-round summaries (newest runs last).
	Rounds []RoundInfo `json:"rounds,omitempty"`
	// RoundsDropped counts summaries dropped beyond the retention cap.
	RoundsDropped uint64 `json:"rounds_dropped"`
}

// Snapshot copies the collector's state into a Snapshot. It allocates
// (it is the cold read path) and may be called between runs or after
// AddSnapshot; it must not race with hooks on the same collector.
func (c *Collector) Snapshot() *Snapshot {
	s := &Snapshot{
		Links:                c.links,
		Bandwidth:            c.bandwidth,
		Runs:                 c.runs,
		Steps:                c.steps,
		WormsLaunched:        c.wormsLaunched,
		MessageBusySlotSteps: c.msgBusy,
		AckBusySlotSteps:     c.ackBusy,
		MessageCuts:          c.cuts[MessageBand],
		AckCuts:              c.cuts[AckBand],
		FragmentSplits:       c.splits,
		Delivered:            c.delivered,
		Acked:                c.acked,
		RoundsObserved:       c.roundsObserved,
		FaultsStarted:        c.faultsStarted,
		FaultsEnded:          c.faultsEnded,
		MessageFaultKills:    c.faultKills[MessageBand],
		AckFaultKills:        c.faultKills[AckBand],
		Retries:              c.retries.Snapshot(),
		RoundsToAck:          c.roundsToAck.Snapshot(),
		StepsToDelivery:      c.delivery.Snapshot(),
		AckResidence:         c.ackLatency.Snapshot(),
		Makespan:             c.makespan.Snapshot(),
		Rounds:               append([]RoundInfo(nil), c.rounds...),
		RoundsDropped:        c.roundsDropped,
	}
	for band := 0; band < NumBands; band++ {
		for l := 0; l < c.links; l++ {
			for w := 0; w < c.bandwidth; w++ {
				if n := c.collisions[(band*c.links+l)*c.bandwidth+w]; n > 0 {
					s.Collisions = append(s.Collisions, SlotCount{Band: band, Link: l, Wavelength: w, Count: n})
				}
			}
			if lb := c.linkBusy[band*c.links+l]; lb.busySteps > 0 {
				s.LinkBusySteps = append(s.LinkBusySteps, LinkBusy{Band: band, Link: l, BusySlotSteps: lb.busySteps})
			}
		}
	}
	return s
}
