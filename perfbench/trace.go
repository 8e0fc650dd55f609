package main

import (
	"encoding/json"
	"os"
	"sort"
	"sync"
	"time"

	"repro/internal/graph"
	"repro/internal/jobs"
	"repro/internal/rng"
	"repro/internal/sim"
)

// span is one timed call into a layer. Spans of one request share an ID
// (the job key, or a trial label for protocol runs); Parent indexes the
// span that made the call, -1 for a root.
type span struct {
	Name   string `json:"name"`
	ID     string `json:"id"`
	Parent int    `json:"parent"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// tracer keeps spans in memory until the run ends. It is safe for use by
// several goroutines.
type tracer struct {
	t0    time.Time
	mu    sync.Mutex
	spans []span
}

// newTracer starts an empty trace.
func newTracer() *tracer { return &tracer{t0: time.Now()} }

// begin opens a span and returns its index.
func (t *tracer) begin(name, id string, parent int) int {
	now := time.Since(t.t0).Nanoseconds()
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{Name: name, ID: id, Parent: parent, Start: now, End: -1})
	return len(t.spans) - 1
}

// end closes the span.
func (t *tracer) end(i int) {
	now := time.Since(t.t0).Nanoseconds()
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans[i].End = now
}

// setID names the request a span belongs to, once it is known.
func (t *tracer) setID(i int, id string) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans[i].ID = id
}

// snapshot copies the recorded spans.
func (t *tracer) snapshot() []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]span(nil), t.spans...)
}

// write stores the spans as JSON.
func (t *tracer) write(path string) error {
	data, err := json.Marshal(t.snapshot())
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

// selfTimes returns, for every span, its duration minus the part of its
// interval covered by its children (children clipped to the parent and
// merged where they overlap). Open spans count as zero.
func selfTimes(spans []span) []int64 {
	kids := make(map[int][]span)
	for _, s := range spans {
		if s.Parent >= 0 {
			kids[s.Parent] = append(kids[s.Parent], s)
		}
	}
	self := make([]int64, len(spans))
	for i, s := range spans {
		if s.End < s.Start {
			continue
		}
		cs := kids[i]
		sort.Slice(cs, func(a, b int) bool { return cs[a].Start < cs[b].Start })
		covered := int64(0)
		curLo, curHi := int64(-1), int64(-1)
		for _, c := range cs {
			lo, hi := max(c.Start, s.Start), min(c.End, s.End)
			if hi <= lo {
				continue
			}
			if lo > curHi {
				covered += curHi - curLo
				curLo, curHi = lo, hi
			} else if hi > curHi {
				curHi = hi
			}
		}
		covered += curHi - curLo
		self[i] = s.End - s.Start - covered
	}
	return self
}

// childTime returns, for span i, the time its children cover and its
// self time, in seconds.
func childTime(tr *tracer, i int) (children, self float64) {
	spans := tr.snapshot()
	total := time.Duration(spans[i].End - spans[i].Start).Seconds()
	self = time.Duration(selfTimes(spans)[i]).Seconds()
	return total - self, self
}

// simCounts are the engine-level counts gathered at the Simulator seam.
type simCounts struct {
	calls, worms, steps, collisions, delivered int
}

// timedSim wraps an engine behind the core.Simulator and jobs.Simulator
// seams. Each Run becomes a "sim.run" span under the span the caller set
// as parent, and its counts are added up. It is not safe for concurrent
// use, like the engine it wraps.
type timedSim struct {
	eng    *sim.Engine
	tr     *tracer
	parent int
	id     string
	counts simCounts
}

// Run implements core.Simulator and jobs.Simulator.
func (t *timedSim) Run(g *graph.Graph, worms []sim.Worm, cfg sim.Config) (*sim.Result, error) {
	sp := t.tr.begin("sim.run", t.id, t.parent)
	res, err := t.eng.Run(g, worms, cfg)
	t.tr.end(sp)
	if err != nil {
		return nil, err
	}
	t.counts.calls++
	t.counts.worms += len(worms)
	t.counts.steps += res.Makespan
	t.counts.collisions += res.CollisionCount
	t.counts.delivered += res.DeliveredCount
	return res, nil
}

// RunDynamic implements jobs.Simulator.
func (t *timedSim) RunDynamic(g *graph.Graph, reqs []sim.Request, cfg sim.DynamicConfig, src *rng.Source) (*sim.DynamicResult, error) {
	sp := t.tr.begin("sim.run_dynamic", t.id, t.parent)
	defer t.tr.end(sp)
	return t.eng.RunDynamic(g, reqs, cfg, src)
}

var _ jobs.Simulator = (*timedSim)(nil)
