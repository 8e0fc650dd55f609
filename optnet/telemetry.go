package optnet

import (
	"repro/internal/telemetry"
)

// Collector is the telemetry sink. One installed via Advanced.Probe or
// DynamicParams.Probe receives engine events (worm cuts, deliveries,
// acknowledgements, faults) and protocol events (round boundaries) and
// keeps per-band counters, fixed-bucket latency histograms and per-round
// summaries, all updated without allocating. Its size does not depend
// on the network. A nil Probe costs one predictable branch per hook
// site, and a Collector never changes routing results. A Collector must
// come from NewCollector: the zero value has no histogram buckets and
// panics at the first delivery, acknowledgement or run end it records.
type Collector = telemetry.Collector

// NewCollector returns an empty Collector.
func NewCollector() *Collector { return telemetry.NewCollector() }

// Snapshot is an immutable copy of a Collector's state, serializable as
// JSON (WriteJSON) or Prometheus text format (WritePrometheus).
type Snapshot = telemetry.Snapshot

// HistogramSnapshot is one telemetry histogram, the type of a
// Snapshot's distributions (Retries, Makespan, ...): fixed bucket
// bounds and counts with the observations' count, sum, min and max, read
// through Mean and Quantile.
type HistogramSnapshot = telemetry.Histogram

// RoundInfo summarizes one protocol round to Collector.RoundFinished.
type RoundInfo = telemetry.RoundInfo

// Live is a mutex-guarded telemetry aggregate that concurrent workers
// publish into via Absorb; an Exporter can serve its Snapshot while
// routing runs elsewhere.
type Live = telemetry.Live

// NewLive returns an empty live aggregate.
func NewLive() *Live { return telemetry.NewLive() }

// Exporter serves telemetry snapshots over HTTP: Prometheus text format
// on /metrics and indented JSON on /snapshot.
type Exporter = telemetry.Exporter

// NewExporter returns an Exporter reading snapshots from source, for
// example NewExporter(live.Snapshot).
func NewExporter(source func() *Snapshot) *Exporter { return telemetry.NewExporter(source) }
