// Package telemetry is the observability layer of the routing system: a
// Collector whose hooks the simulator engine and the protocol core call
// at well-defined event points, turning those events into per-band
// counters, fixed-bucket histograms and per-round summaries without
// allocating, and exporters that publish snapshots in Prometheus text
// format and JSON (optionally over HTTP, for scraping long runs). No
// state is kept per link: the paper's analysis runs on per-round
// quantities (collisions and residual congestion per round, RoundInfo),
// and a snapshot's size does not grow with the network.
//
// The hook arguments are small integers only, no simulator types, so the
// package has no dependency on the engine, and the engine pays one
// predictable nil-check branch per hook site when no collector is
// attached. Attaching a collector never changes simulation results; it
// observes, it does not steer.
//
// Concurrency: a Collector attached to one engine is driven from that
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

// RoundInfo summarizes one finished protocol round: core reports it in
// its per-round stats and hands the same value to RoundFinished.
type RoundInfo struct {
	// Round is the 1-based protocol round number.
	Round int `json:"round"`
	// DelayRange is Delta_t, the round's startup-delay range.
	DelayRange int `json:"delay_range"`
	// ActiveBefore is the number of worms active at round start, all
	// launched this round.
	ActiveBefore int `json:"active"`
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
