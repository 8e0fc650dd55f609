package telemetry

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"sync"
)

// WriteJSON serializes the snapshot as indented JSON.
func (s *Snapshot) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(s)
}

// WritePrometheus serializes the snapshot in the Prometheus text
// exposition format under the optnet_ metric namespace: run, step, worm
// and fault counters, per-band busy, cut and fault-kill totals as
// band-labeled series, and the latency distributions as cumulative-bucket
// histograms. optnet_fragment_splits_total is derived: every cut and
// every fault kill splits exactly one train.
func (s *Snapshot) WritePrometheus(w io.Writer) error {
	bw := bufio.NewWriter(w)
	counter := func(name, help string, v uint64) {
		fmt.Fprintf(bw, "# HELP %s %s\n# TYPE %s counter\n%s %d\n", name, help, name, name, v)
	}
	counter("optnet_runs_total", "Simulation runs observed.", s.Runs)
	counter("optnet_steps_total", "Executed simulation steps.", s.Steps)
	counter("optnet_worms_launched_total", "Worms launched across runs.", s.WormsLaunched)
	counter("optnet_worms_delivered_total", "Worms fully delivered.", s.Delivered)
	counter("optnet_worms_acked_total", "Worms acknowledged.", s.Acked)
	counter("optnet_fragment_splits_total", "Wreckage splits after cuts and fault kills.",
		s.MessageCuts+s.AckCuts+s.MessageFaultKills+s.AckFaultKills)
	counter("optnet_rounds_observed_total", "Finished protocol rounds.", s.RoundsObserved)

	fmt.Fprintf(bw, "# HELP optnet_busy_slot_steps_total Occupied (link, wavelength) slots summed over steps.\n")
	fmt.Fprintf(bw, "# TYPE optnet_busy_slot_steps_total counter\n")
	fmt.Fprintf(bw, "optnet_busy_slot_steps_total{band=\"message\"} %d\n", s.MessageBusySlotSteps)
	fmt.Fprintf(bw, "optnet_busy_slot_steps_total{band=\"ack\"} %d\n", s.AckBusySlotSteps)

	fmt.Fprintf(bw, "# HELP optnet_cuts_total Lost conflicts by band.\n# TYPE optnet_cuts_total counter\n")
	fmt.Fprintf(bw, "optnet_cuts_total{band=\"message\"} %d\n", s.MessageCuts)
	fmt.Fprintf(bw, "optnet_cuts_total{band=\"ack\"} %d\n", s.AckCuts)

	counter("optnet_faults_started_total", "Injected fault activations.", s.FaultsStarted)
	counter("optnet_faults_ended_total", "Injected fault repairs.", s.FaultsEnded)
	fmt.Fprintf(bw, "# HELP optnet_fault_kills_total Trains destroyed by injected faults, by band.\n")
	fmt.Fprintf(bw, "# TYPE optnet_fault_kills_total counter\n")
	fmt.Fprintf(bw, "optnet_fault_kills_total{band=\"message\"} %d\n", s.MessageFaultKills)
	fmt.Fprintf(bw, "optnet_fault_kills_total{band=\"ack\"} %d\n", s.AckFaultKills)

	writeHistogram(bw, "optnet_retries", "Failed rounds before the acknowledgement, per acked worm.", &s.Retries)
	writeHistogram(bw, "optnet_rounds_to_ack", "Round (1-based) in which each worm was acknowledged.", &s.RoundsToAck)
	writeHistogram(bw, "optnet_steps_to_delivery", "Steps from launch to full delivery.", &s.StepsToDelivery)
	writeHistogram(bw, "optnet_ack_residence_steps", "Ack-train residence steps (0 for oracle acks).", &s.AckResidence)
	writeHistogram(bw, "optnet_run_makespan_steps", "Per-run makespan in steps.", &s.Makespan)
	return bw.Flush()
}

// writeHistogram emits one histogram with Prometheus cumulative
// le buckets. It takes the concrete *bufio.Writer rather than io.Writer
// on purpose: buffered writes cannot fail here — errors are sticky and
// surface at the caller's checked Flush.
func writeHistogram(w *bufio.Writer, name, help string, h *Histogram) {
	fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s histogram\n", name, help, name)
	cum := uint64(0)
	for i, b := range h.Bounds {
		cum += h.Counts[i]
		fmt.Fprintf(w, "%s_bucket{le=\"%d\"} %d\n", name, b, cum)
	}
	if n := len(h.Bounds); n < len(h.Counts) {
		cum += h.Counts[n]
	}
	fmt.Fprintf(w, "%s_bucket{le=\"+Inf\"} %d\n", name, cum)
	fmt.Fprintf(w, "%s_sum %d\n%s_count %d\n", name, h.Sum, name, h.Count)
}

// Live is a mutex-guarded telemetry aggregate for concurrent producers:
// worker goroutines Absorb their per-goroutine collectors into it, or
// fold snapshots in through AddSnapshot, while an Exporter serves
// Snapshot to scrapers. The zero value is not usable; call NewLive.
type Live struct {
	mu  sync.Mutex
	agg *Collector //optlint:guardedby mu
}

// NewLive returns an empty live aggregate.
func NewLive() *Live { return &Live{agg: NewCollector()} }

// Absorb folds the collector's observations into the aggregate and
// resets the collector, so repeated Absorb calls publish deltas.
func (l *Live) Absorb(c *Collector) {
	if err := l.AddSnapshot(c.Snapshot()); err != nil {
		// A collector's own snapshot always fits: every Collector has
		// NewCollector's histogram layouts.
		panic(err)
	}
	c.Reset()
}

// AddSnapshot folds a snapshot — a job's trial, local or stolen — into
// the aggregate with Collector.AddSnapshot; on error the aggregate is
// unchanged.
func (l *Live) AddSnapshot(s *Snapshot) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.agg.AddSnapshot(s)
}

// Snapshot returns a consistent copy of the aggregate.
func (l *Live) Snapshot() *Snapshot {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.agg.Snapshot()
}

// Exporter serves telemetry snapshots over HTTP: /metrics in Prometheus
// text format and /snapshot as JSON. The source function is called per
// request and must be safe for concurrent use (Live.Snapshot is).
type Exporter struct {
	source func() *Snapshot
}

// NewExporter returns an exporter reading from the given snapshot
// source.
func NewExporter(source func() *Snapshot) *Exporter {
	return &Exporter{source: source}
}

// Handler returns the exporter's HTTP handler with the /metrics and
// /snapshot routes.
func (e *Exporter) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		if err := e.source().WritePrometheus(w); err != nil {
			http.Error(w, err.Error(), http.StatusInternalServerError)
		}
	})
	mux.HandleFunc("/snapshot", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		if err := e.source().WriteJSON(w); err != nil {
			http.Error(w, err.Error(), http.StatusInternalServerError)
		}
	})
	return mux
}

// ListenAndServe serves the exporter's handler on addr; it blocks like
// http.ListenAndServe.
func (e *Exporter) ListenAndServe(addr string) error {
	return http.ListenAndServe(addr, e.Handler())
}
