package telemetry

import "errors"

// Collector is the telemetry sink: the engine and the protocol call its
// hooks at event points, and it folds those events into per-band
// counters, fixed-bucket histograms and per-round summaries, recorded
// straight into the Snapshot it holds. Its state is fixed-size,
// independent of the graph, so every hook is allocation-free and
// collectors fed runs on different graphs fold into one meaningful
// aggregate. A Collector must come from NewCollector: the zero value has
// no histogram buckets and panics at the first delivery, acknowledgement
// or run end it records. A Collector is single-goroutine; use
// AddSnapshot or Live to combine collectors from concurrent workers.
type Collector struct {
	// s is every observation. Its Rounds buffer has a fixed capacity:
	// rounds beyond it are counted in RoundsDropped, so the protocol path
	// stays allocation-free.
	s        Snapshot
	curRound int // 1-based round in flight; 0 = outside a protocol
}

// maxTrackedRounds bounds the per-round summary buffer of one Collector.
const maxTrackedRounds = 512

// NewCollector returns a collector with the default histogram layouts:
// power-of-two buckets for latencies and makespans, linear buckets for
// round counts.
func NewCollector() *Collector {
	return &Collector{s: Snapshot{
		Retries:         NewHistogram(LinearBuckets(0, 1, 16)),
		RoundsToAck:     NewHistogram(LinearBuckets(1, 1, 16)),
		StepsToDelivery: NewHistogram(ExpBuckets(1, 2, 20)),
		AckResidence:    NewHistogram(ExpBuckets(1, 2, 20)),
		Makespan:        NewHistogram(ExpBuckets(1, 2, 24)),
		Rounds:          make([]RoundInfo, 0, maxTrackedRounds),
	}}
}

// BeginRun opens a run of worms worms. worms is 0 for a dynamic run,
// whose attempts launch over time.
func (c *Collector) BeginRun(worms int) {
	c.s.Runs++
	c.s.WormsLaunched += uint64(worms)
}

// StepAdvanced records one executed simulation step with the number of
// occupied (link, wavelength) slots per band at step end.
func (c *Collector) StepAdvanced(msgBusy, ackBusy int) {
	c.s.Steps++
	c.s.MessageBusySlotSteps += uint64(msgBusy)
	c.s.AckBusySlotSteps += uint64(ackBusy)
}

// WormCut records one lost conflict: a train of band lost a flit.
func (c *Collector) WormCut(band int) {
	if band == AckBand {
		c.s.AckCuts++
	} else {
		c.s.MessageCuts++
	}
}

// WormDelivered records a message worm whose flits all reached the
// destination residence steps after launch.
func (c *Collector) WormDelivered(residence int) {
	c.s.Delivered++
	c.s.StepsToDelivery.Observe(residence)
}

// AckCompleted records a source learning of its delivery: residence is
// the ack train's steps after launch (0 for oracle acks). Inside a
// protocol round it also records the round of the acknowledgement.
func (c *Collector) AckCompleted(residence int) {
	c.s.Acked++
	c.s.AckResidence.Observe(residence)
	if c.curRound > 0 {
		c.s.RoundsToAck.Observe(c.curRound)
		c.s.Retries.Observe(c.curRound - 1)
	}
}

// FaultStarted records an injected fault becoming active.
func (c *Collector) FaultStarted() { c.s.FaultsStarted++ }

// FaultEnded records an injected fault being repaired.
func (c *Collector) FaultEnded() { c.s.FaultsEnded++ }

// WormKilledByFault records an injected fault destroying flits of a
// train in band. Fault kills are never recorded as WormCut: the two
// streams keep component failures apart from lost contentions.
func (c *Collector) WormKilledByFault(band int) {
	if band == AckBand {
		c.s.AckFaultKills++
	} else {
		c.s.MessageFaultKills++
	}
}

// EndRun closes the run opened by BeginRun with its final makespan.
func (c *Collector) EndRun(makespan int) { c.s.Makespan.Observe(makespan) }

// RoundStarted opens protocol round round (1-based); acknowledgements
// until RoundFinished count toward it.
func (c *Collector) RoundStarted(round int) { c.curRound = round }

// RoundFinished records the finished round's summary, keeping the most
// recent ones up to the retention cap.
func (c *Collector) RoundFinished(info RoundInfo) {
	c.s.RoundsObserved++
	c.curRound = 0
	c.keepRound(info)
}

// keepRound retains r while the rounds buffer has room and counts it
// dropped otherwise.
func (c *Collector) keepRound(r RoundInfo) {
	if len(c.s.Rounds) < cap(c.s.Rounds) {
		c.s.Rounds = append(c.s.Rounds, r)
	} else {
		c.s.RoundsDropped++
	}
}

// AddSnapshot folds s's observations into c. It is the one merge:
// another collector's delta (c.AddSnapshot(o.Snapshot())), a stored
// checkpoint, or a peer's trial. s is checked before anything changes —
// each of its histograms must have c's bucket layout (or be empty),
// counts that sum to its Count, and no Sum without observations — so on
// error c is unchanged. Nothing is
// sized from s. Rounds are retained up to the collector's cap, the
// surplus counted in RoundsDropped.
func (c *Collector) AddSnapshot(s *Snapshot) error {
	into, from := c.s.histograms(), s.histograms()
	for i, h := range into {
		if !h.fits(from[i]) {
			return errors.New("telemetry: a snapshot histogram has another bucket layout, or counts that disagree with its count and sum")
		}
	}
	c.s.Runs += s.Runs
	c.s.Steps += s.Steps
	c.s.WormsLaunched += s.WormsLaunched
	c.s.MessageBusySlotSteps += s.MessageBusySlotSteps
	c.s.AckBusySlotSteps += s.AckBusySlotSteps
	c.s.MessageCuts += s.MessageCuts
	c.s.AckCuts += s.AckCuts
	c.s.Delivered += s.Delivered
	c.s.Acked += s.Acked
	c.s.RoundsObserved += s.RoundsObserved
	c.s.FaultsStarted += s.FaultsStarted
	c.s.FaultsEnded += s.FaultsEnded
	c.s.MessageFaultKills += s.MessageFaultKills
	c.s.AckFaultKills += s.AckFaultKills
	for i, h := range into {
		h.add(from[i])
	}
	for _, r := range s.Rounds {
		c.keepRound(r)
	}
	c.s.RoundsDropped += s.RoundsDropped
	return nil
}

// Reset zeroes every counter and observation, keeping each histogram's
// bucket layout and the rounds buffer's capacity, so the collector can
// be reused without allocating.
func (c *Collector) Reset() {
	kept := c.s
	c.s = Snapshot{Rounds: kept.Rounds[:0]}
	from := kept.histograms()
	for i, h := range c.s.histograms() {
		*h = *from[i]
		h.Reset()
	}
	c.curRound = 0
}

// Snapshot is a Collector's state in its serializable form. A Collector
// records into the Snapshot it holds; Collector.Snapshot returns a deep
// copy, safe to hold after the collector moves on.
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
	Retries Histogram `json:"retries"`
	// RoundsToAck is the 1-based acknowledgement round distribution.
	RoundsToAck Histogram `json:"rounds_to_ack"`
	// StepsToDelivery is the launch-to-delivery residence distribution.
	StepsToDelivery Histogram `json:"steps_to_delivery"`
	// AckResidence is the ack-train residence distribution.
	AckResidence Histogram `json:"ack_residence"`
	// Makespan is the per-run makespan distribution.
	Makespan Histogram `json:"makespan"`
	// Rounds holds the retained per-round summaries (newest runs last).
	Rounds []RoundInfo `json:"rounds,omitempty"`
	// RoundsDropped counts summaries dropped beyond the retention cap.
	RoundsDropped uint64 `json:"rounds_dropped"`
}

// histograms lists the snapshot's histograms in field order, for the
// fold, reset and copy that treat them alike.
func (s *Snapshot) histograms() [5]*Histogram {
	return [5]*Histogram{&s.Retries, &s.RoundsToAck, &s.StepsToDelivery, &s.AckResidence, &s.Makespan}
}

// Snapshot returns a deep copy of the collector's state. It allocates
// (it is the cold read path) and may be called between runs or after
// AddSnapshot; it must not race with hooks on the same collector. The
// copy's Rounds is nil when no round is retained.
func (c *Collector) Snapshot() *Snapshot {
	s := c.s
	for _, h := range s.histograms() {
		*h = h.Snapshot()
	}
	s.Rounds = append([]RoundInfo(nil), c.s.Rounds...)
	return &s
}
