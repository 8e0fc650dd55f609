// Package telemetry is the observability layer of the routing system: a
// Probe interface the simulator engine and the protocol core invoke at
// well-defined event points, a Collector that turns those events into
// counters, heatmaps and fixed-bucket histograms without allocating in
// steady state, and exporters that publish snapshots in Prometheus
// text format and JSON (optionally over HTTP, for scraping long runs).
//
// The hook surface is deliberately flat — small integers only, no
// simulator types — so the package has no dependency on the engine and
// the engine pays one predictable nil-check branch per hook site when no
// probe is attached. Attaching a probe never changes simulation results;
// probes observe, they do not steer.
//
// Concurrency: a Probe attached to one engine is driven from that
// engine's goroutine only and must not be shared. Monte-Carlo harnesses
// give each worker its own Collector and either fold their snapshots
// together with AddSnapshot at the end or publish deltas into a
// mutex-guarded Live aggregate as they go.
package telemetry

// Band indices mirror the simulator's two wavelength bands. They are
// plain ints so this package stays independent of the engine's types.
const (
	// MessageBand is the band carrying message worms (sim.MessageBand).
	MessageBand = 0
	// AckBand is the reserved acknowledgement band (sim.AckBand).
	AckBand = 1
	// NumBands is the number of wavelength bands.
	NumBands = 2
)

// RunMeta describes the simulation a probe is about to observe; it gives
// collectors the dimensions they need to pre-size their state so the
// per-event path allocates nothing.
type RunMeta struct {
	// Links is the number of directed links in the graph.
	Links int
	// Bandwidth is B, the number of wavelengths per band.
	Bandwidth int
	// Worms is the number of worms launched this run (0 when the run is
	// driven incrementally, as in dynamic operation).
	Worms int
}

// RoundInfo summarizes one finished protocol round for RoundFinished.
type RoundInfo struct {
	// Round is the 1-based protocol round number.
	Round int `json:"round"`
	// DelayRange is Delta_t, the round's startup-delay range.
	DelayRange int `json:"delay_range"`
	// Active is the number of worms launched this round.
	Active int `json:"active"`
	// Delivered counts worms fully delivered this round.
	Delivered int `json:"delivered"`
	// Acked counts worms acknowledged this round (they become inactive).
	Acked int `json:"acked"`
	// Collisions counts lost conflicts in the round's simulation.
	Collisions int `json:"collisions"`
	// Makespan is the round simulation's last busy step.
	Makespan int `json:"makespan"`
	// ResidualCongestion is the active sub-collection's path congestion at
	// round start; -1 when the protocol run does not track it.
	ResidualCongestion int `json:"residual_congestion"`
	// FaultKills counts trains destroyed by injected faults in the round's
	// simulation (zero when no fault plan is attached). Fault kills are
	// accounted separately from Collisions: they are component failures,
	// not lost contentions.
	FaultKills int `json:"fault_kills,omitempty"`
	// Rerouted counts worms launched on a detour around links down at
	// round start (degraded-mode path re-selection).
	Rerouted int `json:"rerouted,omitempty"`
}

// Probe receives simulation and protocol events. All hooks are invoked
// synchronously from the hot loop, so implementations must be O(1),
// allocation-free after warm-up, and must not block or retain arguments.
//
// Engine-level hooks fire for every simulated round (including rounds
// driven by the dynamic-operation loop); protocol-level hooks fire only
// when a protocol (core.RunWithSimulator) drives the engine. Hooks are never
// invoked concurrently for one probe instance.
type Probe interface {
	// BeginRun announces a new simulation run; collectors size their
	// state from meta here so later hooks never allocate.
	BeginRun(meta RunMeta)
	// StepAdvanced fires once per executed simulation step with the
	// number of occupied (link, wavelength) slots per band at step end.
	StepAdvanced(t, msgBusy, ackBusy int)
	// SlotClaimed fires when a free (band, link, wavelength) slot becomes
	// occupied during step t. Together with SlotReleased it lets a
	// collector integrate exact per-link busy time in O(1) per event.
	SlotClaimed(t, band, link, wavelength int)
	// SlotReleased fires when an occupied slot becomes free during step t.
	// A slot handed from one fragment to another without going free (a
	// preemption, a same-train reassignment) emits no events.
	SlotReleased(t, band, link, wavelength int)
	// WormCut fires for every lost conflict: train worm (an ack train
	// when isAck) lost a flit entering the physical link on the given
	// band and wavelength at step t.
	WormCut(t, band, link, wavelength, worm int, isAck bool)
	// FragmentSplit fires when a cut splits a train's surviving flits
	// into wreckage fragments (once per cut, before the split).
	FragmentSplit(t, worm int)
	// WormDelivered fires when a message worm's flits all reach the
	// destination: pathLen links traversed, residence steps after launch.
	WormDelivered(t, worm, pathLen, residence int)
	// AckCompleted fires when the source learns of a delivery: residence
	// is the ack train's steps after launch (0 for oracle acks).
	AckCompleted(t, worm, residence int)
	// FaultStarted fires when an injected fault becomes active at step t.
	// kind is the faults.Kind as a small integer; target is the directed
	// link ID for link-scoped faults and the node ID for stuck couplers.
	FaultStarted(t, kind, target int)
	// FaultEnded fires when an injected fault is repaired at step t, with
	// the same kind/target coordinates as FaultStarted.
	FaultEnded(t, kind, target int)
	// WormKilledByFault fires when an injected fault destroys flits of
	// train worm (an ack train when isAck) on the given band and physical
	// link at step t. Fault kills never fire WormCut; the two streams
	// separate component failures from lost contentions.
	WormKilledByFault(t, band, link, worm int, isAck bool)
	// EndRun closes the run opened by BeginRun with its final makespan.
	EndRun(makespan int)
	// RoundStarted announces protocol round `round` launching `active`
	// worms with startup delays drawn from [0, delayRange).
	RoundStarted(round, delayRange, active int)
	// RoundFinished reports the finished round's summary.
	RoundFinished(info RoundInfo)
}
