package experiments

import (
	"repro/internal/telemetry"
)

// liveTelemetry, when set, receives the merged telemetry of every
// protocol trial the harness runs: each runTrials worker drives its own
// Collector (the hot path stays allocation-free and lock-free) and
// absorbs it into this aggregate after every trial, so an HTTP exporter
// scraping the aggregate sees progress while long experiments run.
var liveTelemetry *telemetry.Live

// SetLive installs (or, with nil, removes) the live telemetry aggregate
// the trial harness publishes into. Call it before running experiments;
// it must not be called while experiments are in flight.
func SetLive(l *telemetry.Live) { liveTelemetry = l }
