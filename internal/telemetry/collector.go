package telemetry

// Collector is the concrete Probe: it folds engine and protocol events
// into counters, per-slot collision heatmaps, per-link busy integrals and
// fixed-bucket histograms. All state is sized in BeginRun (growing only
// when a larger graph appears), so the per-event path is allocation-free
// in steady state. A Collector is single-goroutine like any Probe; use
// Merge or Live to combine collectors from concurrent workers.
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

// BeginRun implements Probe: it (re)provisions the per-slot and per-link
// state for the run's dimensions. Growth allocates; a steady state of
// same-sized runs does not.
func (c *Collector) BeginRun(meta RunMeta) {
	c.runs++
	c.wormsLaunched += uint64(meta.Worms)
	c.provision(meta.Links, meta.Bandwidth)
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

// StepAdvanced implements Probe.
func (c *Collector) StepAdvanced(t, msgBusy, ackBusy int) {
	c.steps++
	c.msgBusy += uint64(msgBusy)
	c.ackBusy += uint64(ackBusy)
}

// SlotClaimed implements Probe.
func (c *Collector) SlotClaimed(t, band, link, wavelength int) {
	lb := &c.linkBusy[band*c.links+link]
	lb.busySteps += uint64(lb.occupied) * uint64(t-lb.lastT)
	lb.lastT = t
	lb.occupied++
}

// SlotReleased implements Probe.
func (c *Collector) SlotReleased(t, band, link, wavelength int) {
	lb := &c.linkBusy[band*c.links+link]
	lb.busySteps += uint64(lb.occupied) * uint64(t-lb.lastT)
	lb.lastT = t
	lb.occupied--
}

// WormCut implements Probe.
func (c *Collector) WormCut(t, band, link, wavelength, worm int, isAck bool) {
	c.cuts[band]++
	c.collisions[(band*c.links+link)*c.bandwidth+wavelength]++
}

// FragmentSplit implements Probe.
func (c *Collector) FragmentSplit(t, worm int) { c.splits++ }

// WormDelivered implements Probe.
func (c *Collector) WormDelivered(t, worm, pathLen, residence int) {
	c.delivered++
	c.delivery.Observe(residence)
}

// AckCompleted implements Probe.
func (c *Collector) AckCompleted(t, worm, residence int) {
	c.acked++
	c.ackLatency.Observe(residence)
	if c.curRound > 0 {
		c.roundsToAck.Observe(c.curRound)
		c.retries.Observe(c.curRound - 1)
	}
}

// FaultStarted implements Probe.
func (c *Collector) FaultStarted(t, kind, target int) { c.faultsStarted++ }

// FaultEnded implements Probe.
func (c *Collector) FaultEnded(t, kind, target int) { c.faultsEnded++ }

// WormKilledByFault implements Probe.
func (c *Collector) WormKilledByFault(t, band, link, worm int, isAck bool) {
	c.faultKills[band]++
}

// EndRun implements Probe.
func (c *Collector) EndRun(makespan int) { c.makespan.Observe(makespan) }

// RoundStarted implements Probe.
func (c *Collector) RoundStarted(round, delayRange, active int) {
	c.curRound = round
}

// RoundFinished implements Probe.
func (c *Collector) RoundFinished(info RoundInfo) {
	c.roundsObserved++
	c.curRound = 0
	if len(c.rounds) < cap(c.rounds) {
		c.rounds = append(c.rounds, info)
	} else {
		c.roundsDropped++
	}
}

// Merge folds o's observations into c; o is left untouched. Histograms
// must share layouts (true for NewCollector-built collectors). Per-link
// tables grow to the larger geometry following the BeginRun rules.
func (c *Collector) Merge(o *Collector) {
	c.provision(o.links, o.bandwidth)
	c.runs += o.runs
	c.steps += o.steps
	c.msgBusy += o.msgBusy
	c.ackBusy += o.ackBusy
	for b := range c.cuts {
		c.cuts[b] += o.cuts[b]
	}
	c.splits += o.splits
	c.delivered += o.delivered
	c.acked += o.acked
	c.wormsLaunched += o.wormsLaunched
	c.roundsObserved += o.roundsObserved
	c.faultsStarted += o.faultsStarted
	c.faultsEnded += o.faultsEnded
	for b := range c.faultKills {
		c.faultKills[b] += o.faultKills[b]
	}
	if o.links > 0 && c.bandwidth == o.bandwidth {
		for band := 0; band < NumBands; band++ {
			for l := 0; l < o.links; l++ {
				c.linkBusy[band*c.links+l].busySteps += o.linkBusy[band*o.links+l].busySteps
				for w := 0; w < o.bandwidth; w++ {
					c.collisions[(band*c.links+l)*c.bandwidth+w] +=
						o.collisions[(band*o.links+l)*o.bandwidth+w]
				}
			}
		}
	}
	c.retries.Merge(&o.retries)
	c.roundsToAck.Merge(&o.roundsToAck)
	c.delivery.Merge(&o.delivery)
	c.ackLatency.Merge(&o.ackLatency)
	c.makespan.Merge(&o.makespan)
	for _, r := range o.rounds {
		if len(c.rounds) < cap(c.rounds) {
			c.rounds = append(c.rounds, r)
		} else {
			c.roundsDropped++
		}
	}
	c.roundsDropped += o.roundsDropped
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
// Merge; it must not race with hooks on the same collector.
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
