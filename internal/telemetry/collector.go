package telemetry

import "fmt"

// Collector is the telemetry sink: the engine and the protocol call its
// hooks at event points, and it folds those events into per-band
// counters, fixed-bucket histograms and per-round summaries. Its state
// is fixed-size, independent of the graph, so every hook is
// allocation-free and collectors fed runs on different graphs fold into
// one meaningful aggregate. A Collector must come from NewCollector: the
// zero value has no histogram buckets and panics at the first delivery,
// acknowledgement or run end it records. A Collector is
// single-goroutine; use AddSnapshot or Live to combine collectors from
// concurrent workers.
type Collector struct {
	runs           uint64
	steps          uint64
	msgBusy        uint64 // busy-slot-steps, message band (from StepAdvanced)
	ackBusy        uint64 // busy-slot-steps, ack band
	cuts           [NumBands]uint64
	delivered      uint64
	acked          uint64
	wormsLaunched  uint64
	roundsObserved uint64
	faultsStarted  uint64
	faultsEnded    uint64
	faultKills     [NumBands]uint64

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

// BeginRun opens a run of worms worms. worms is 0 for a dynamic run,
// whose attempts launch over time.
func (c *Collector) BeginRun(worms int) {
	c.runs++
	c.wormsLaunched += uint64(worms)
}

// StepAdvanced records one executed simulation step with the number of
// occupied (link, wavelength) slots per band at step end.
func (c *Collector) StepAdvanced(msgBusy, ackBusy int) {
	c.steps++
	c.msgBusy += uint64(msgBusy)
	c.ackBusy += uint64(ackBusy)
}

// WormCut records one lost conflict: a train of band lost a flit.
func (c *Collector) WormCut(band int) { c.cuts[band]++ }

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
// checkpoint, or a peer's trial. s is checked before anything changes —
// its histograms must have c's bucket layouts — so on error c is
// unchanged. Nothing is sized from s. Rounds are retained up to the
// collector's cap, the surplus counted in RoundsDropped.
func (c *Collector) AddSnapshot(s *Snapshot) error {
	if !c.retries.fits(&s.Retries) || !c.roundsToAck.fits(&s.RoundsToAck) || !c.delivery.fits(&s.StepsToDelivery) ||
		!c.ackLatency.fits(&s.AckResidence) || !c.makespan.fits(&s.Makespan) {
		return fmt.Errorf("telemetry: snapshot histograms have different bucket layouts")
	}
	c.runs += s.Runs
	c.steps += s.Steps
	c.wormsLaunched += s.WormsLaunched
	c.msgBusy += s.MessageBusySlotSteps
	c.ackBusy += s.AckBusySlotSteps
	c.cuts[MessageBand] += s.MessageCuts
	c.cuts[AckBand] += s.AckCuts
	c.delivered += s.Delivered
	c.acked += s.Acked
	c.roundsObserved += s.RoundsObserved
	c.faultsStarted += s.FaultsStarted
	c.faultsEnded += s.FaultsEnded
	c.faultKills[MessageBand] += s.MessageFaultKills
	c.faultKills[AckBand] += s.AckFaultKills
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

// Reset zeroes all observations, keeping every buffer's capacity so the
// collector can be reused without reallocating.
func (c *Collector) Reset() {
	c.runs, c.steps, c.msgBusy, c.ackBusy = 0, 0, 0, 0
	c.cuts = [NumBands]uint64{}
	c.delivered, c.acked = 0, 0
	c.wormsLaunched, c.roundsObserved = 0, 0
	c.faultsStarted, c.faultsEnded = 0, 0
	c.faultKills = [NumBands]uint64{}
	c.retries.Reset()
	c.roundsToAck.Reset()
	c.delivery.Reset()
	c.ackLatency.Reset()
	c.makespan.Reset()
	c.rounds = c.rounds[:0]
	c.roundsDropped = 0
	c.curRound = 0
}

// Snapshot is a self-contained, serializable copy of a Collector's
// state, safe to hold after the collector moves on.
type Snapshot struct {
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
	return &Snapshot{
		Runs:                 c.runs,
		Steps:                c.steps,
		WormsLaunched:        c.wormsLaunched,
		MessageBusySlotSteps: c.msgBusy,
		AckBusySlotSteps:     c.ackBusy,
		MessageCuts:          c.cuts[MessageBand],
		AckCuts:              c.cuts[AckBand],
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
}
