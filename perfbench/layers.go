package main

import (
	"fmt"
	"runtime/metrics"
	"sort"
	"strings"
	"sync"
	"time"

	"repro/internal/experiments"
)

// perLayer lists every per-layer metric a traced run reports.
func perLayer() []string {
	names := []string{
		"sim.run_calls", "sim.busy_s", "sim.worms", "sim.steps", "sim.ns_per_step", "sim.collisions", "sim.deliver_ratio",
		"core.trials", "core.rounds", "core.busy_s", "core.self_s", "core.ack_ratio",
		"topology.build_s", "paths.build_s", "paths.congestion_s",
		"runtime.alloc_bytes", "runtime.allocs", "runtime.gc_cpu_s", "runtime.gc_cycles", "runtime.heap_peak_bytes",
		"telemetry.probe_s", "telemetry.snapshot_s", "telemetry.snapshot_bytes",
		"jobs.key_s", "jobs.key_calls",
		"jobs.persist_s", "jobs.persist_bytes", "jobs.store_get_s", "jobs.result_bytes",
		"jobs.exec_s", "jobs.queue_wait_s", "jobs.cache_hit_ratio",
		"http.overhead_cold_s", "http.overhead_hit_s", "http.response_bytes",
		"cluster.trials_leased", "cluster.trials_stolen", "cluster.stolen_share", "cluster.forwards",
		"cluster.forward_fallbacks", "cluster.repl_records", "cluster.repl_drops",
		"trace.trial_overhead_s", "trace.trial_coverage", "trace.cold_overhead_s", "trace.cold_coverage",
	}
	for _, id := range experiments.IDs() {
		names = append(names, "experiments."+id+"_s")
	}
	return names
}

// layerUnit derives a per-layer metric's unit from its name.
func layerUnit(name string) string {
	switch {
	case strings.HasSuffix(name, "_s"):
		return "s"
	case strings.HasSuffix(name, "_bytes"):
		return "bytes"
	case strings.HasSuffix(name, "_ratio"), strings.HasSuffix(name, "_share"), strings.HasSuffix(name, "_coverage"):
		return "ratio"
	case name == "sim.ns_per_step":
		return "ns"
	default:
		return "count"
	}
}

// tracedRun measures w's layers at the run's size, then fills every layer
// w does not reach from the smoke-size traced run of the workload that
// does, so each traced run reports every per-layer metric. Lines of the
// proxy runs are not kept; their spans are.
func tracedRun(w workload, cfg runConfig, tr *tracer, r *report) (map[string]float64, error) {
	rt := startRuntimeProbe()
	layers, err := w.traced(cfg, tr, r)
	if err != nil {
		return nil, err
	}
	for name, v := range rt.stop() {
		layers[name] = v
	}
	var proxied []string
	for _, o := range workloads {
		if o.name == w.name {
			continue
		}
		scfg := cfg
		scfg.smoke = true
		sr := newReport()
		more, err := o.traced(scfg, tr, sr)
		if err != nil {
			return nil, fmt.Errorf("%s smoke layers: %w", o.name, err)
		}
		r.attempted += sr.attempted
		r.failed += sr.failed
		r.problems = append(r.problems, sr.problems...)
		var from []string
		for name, v := range more {
			if _, ok := layers[name]; !ok {
				layers[name] = v
				from = append(from, name)
			}
		}
		if len(from) > 0 {
			sort.Strings(from)
			proxied = append(proxied, fmt.Sprintf("%s (smoke): %d metrics", o.name, len(from)))
		}
	}
	r.line("layers not reached by %s were measured on smoke-size runs of: %s", w.name, strings.Join(proxied, "; "))
	for _, name := range perLayer() {
		if _, ok := layers[name]; !ok {
			return nil, fmt.Errorf("traced run measured no %s", name)
		}
	}
	return layers, nil
}

// runtimeProbe reads the Go runtime's allocation and GC counters around a
// section and samples the live heap for its peak.
type runtimeProbe struct {
	before []metrics.Sample
	stopc  chan struct{}
	wg     sync.WaitGroup
	peak   uint64
}

// runtimeCounters are the cumulative runtime/metrics a probe differences.
var runtimeCounters = []string{
	"/gc/heap/allocs:bytes",
	"/gc/heap/allocs:objects",
	"/cpu/classes/gc/total:cpu-seconds",
	"/gc/cycles/total:gc-cycles",
}

// heapObjects is the sampled live-heap metric.
const heapObjects = "/memory/classes/heap/objects:bytes"

// readCounters samples runtimeCounters now.
func readCounters() []metrics.Sample {
	s := make([]metrics.Sample, len(runtimeCounters))
	for i, n := range runtimeCounters {
		s[i].Name = n
	}
	metrics.Read(s)
	return s
}

// startRuntimeProbe starts a probe; stop ends it.
func startRuntimeProbe() *runtimeProbe {
	p := &runtimeProbe{before: readCounters(), stopc: make(chan struct{})}
	p.wg.Add(1)
	go func() {
		defer p.wg.Done()
		s := []metrics.Sample{{Name: heapObjects}}
		tick := time.NewTicker(5 * time.Millisecond)
		defer tick.Stop()
		for {
			metrics.Read(s)
			if v := s[0].Value.Uint64(); v > p.peak {
				p.peak = v
			}
			select {
			case <-p.stopc:
				return
			case <-tick.C:
			}
		}
	}()
	return p
}

// stop ends the probe and returns the runtime.* metrics.
func (p *runtimeProbe) stop() map[string]float64 {
	close(p.stopc)
	p.wg.Wait()
	after := readCounters()
	val := func(s metrics.Sample) float64 {
		if s.Value.Kind() == metrics.KindFloat64 {
			return s.Value.Float64()
		}
		return float64(s.Value.Uint64())
	}
	d := func(i int) float64 { return val(after[i]) - val(p.before[i]) }
	return map[string]float64{
		"runtime.alloc_bytes":     d(0),
		"runtime.allocs":          d(1),
		"runtime.gc_cpu_s":        d(2),
		"runtime.gc_cycles":       d(3),
		"runtime.heap_peak_bytes": float64(p.peak),
	}
}
