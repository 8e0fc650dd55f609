package sim

import (
	"fmt"

	"repro/internal/graph"
	"repro/internal/rng"
)

// Dynamic operation: instead of one synchronized batch (the paper's
// static rounds), requests arrive over time and every source retries its
// own message independently with randomized backoff until the
// acknowledgement arrives — the setting of the dynamic RWA literature the
// paper cites (Ramaswami & Sivarajan [34]), transplanted to the
// trial-and-failure discipline. A source detects a lost attempt when the
// acknowledgement deadline passes (the kinematics are deterministic, so
// the deadline is exact) and relaunches with a fresh random wavelength
// and a startup delay drawn from the retry policy's backoff range.

// Request is one dynamically arriving message.
type Request struct {
	// Route is the fixed route, selected up front as in the paper and
	// checked against the run's graph (graph.AppendRoute, Graph.Routes or
	// a collection's Route); it must not revisit a directed link. Every
	// attempt reads its links without copying them.
	Route graph.Route
	// Length is the worm length L >= 1.
	Length int
	// Arrival is the step at which the source may first launch.
	Arrival int
}

// RetryPolicy yields the backoff delay range for each retry attempt.
type RetryPolicy interface {
	// Backoff returns the delay range (>= 1) for 1-based attempt a; the
	// actual extra delay is drawn uniformly from [0, Backoff(a)).
	Backoff(attempt int) int
	// Name identifies the policy in reports.
	Name() string
}

// ExponentialBackoff doubles the range per attempt: min(Base<<(a-1), Cap).
// Zero values default Base to 8 and Cap to 1024*Base.
type ExponentialBackoff struct {
	Base, Cap int
}

// Backoff implements RetryPolicy.
func (e ExponentialBackoff) Backoff(attempt int) int {
	base, ceiling := e.Base, e.Cap
	if base <= 0 {
		base = 8
	}
	if ceiling <= 0 {
		ceiling = 1024 * base
	}
	// Clamp the shift so the doubling cannot overflow; the range is
	// capped at ceiling well before attempt 30 for any sane Base.
	if attempt > 30 {
		attempt = 30
	}
	r := base << uint(attempt-1)
	if r > ceiling {
		r = ceiling
	}
	if r < 1 {
		r = 1
	}
	return r
}

// Name implements RetryPolicy.
func (e ExponentialBackoff) Name() string { return "exponential" }

// FixedBackoff keeps a constant delay range.
type FixedBackoff struct {
	Range int
}

// Backoff implements RetryPolicy.
func (f FixedBackoff) Backoff(int) int {
	if f.Range < 1 {
		return 1
	}
	return f.Range
}

// Name implements RetryPolicy.
func (f FixedBackoff) Name() string { return "fixed" }

// DefaultMaxAttempts is the launch budget applied when
// DynamicConfig.MaxAttempts is zero: a request is abandoned (GaveUp)
// after 50 unacknowledged launches.
const DefaultMaxAttempts = 50

// DynamicConfig parameterizes RunDynamic.
type DynamicConfig struct {
	// Sim provides the link-level parameters (bandwidth, rule, wreckage,
	// acknowledgements, conversion). Sim.MaxSteps bounds the whole run
	// when set; RecordCollisions and CheckInvariants are honored.
	Sim Config
	// Retry provides the per-attempt backoff; nil means
	// ExponentialBackoff{Base: 2*L} per request.
	Retry RetryPolicy
	// MaxAttempts gives up on a request after this many launches. Zero
	// means DefaultMaxAttempts (50) — a generous budget bounded by the
	// step guard anyway — so a zero-valued config retries, not
	// zero-attempts. A request whose final attempt's deadline passes
	// unacknowledged is marked GaveUp with Attempts == MaxAttempts;
	// Delivered and GaveUp are mutually exclusive.
	MaxAttempts int
}

// DynamicOutcome is the fate of one request.
type DynamicOutcome struct {
	Delivered bool
	GaveUp    bool
	Attempts  int
	// DeliveredAt is the completion step of the successful attempt
	// (-1 if never delivered); Latency is DeliveredAt - Arrival.
	DeliveredAt int
	Latency     int
}

// DynamicResult aggregates a dynamic run.
type DynamicResult struct {
	Outcomes      []DynamicOutcome
	TotalAttempts int
	Makespan      int
	// FaultKills counts attempts (messages and acks) destroyed by an
	// injected fault schedule (Sim.Faults). A fault-killed attempt is
	// indistinguishable from a contention loss to its source: the exact
	// ack deadline passes and the source relaunches with backoff.
	FaultKills int
}

// RunDynamic simulates continuous operation: every request launches at
// its arrival and retries with randomized backoff until acknowledged or
// out of attempts. All randomness (wavelengths, ranks, backoff draws)
// comes from src, so runs are reproducible. It is the dynamic
// counterpart of Run and reuses the engine's memory the same way: the
// engine is reset at entry, so results are independent of prior use, and
// callers that execute many runs (trace-backed jobs, benchmarks) should
// hold one engine per goroutine.
//
// Memory follows live work, not total work. A request carries its
// route, checked where its path was chosen, and every attempt reads the
// route's links in place. A request has at most one attempt in flight
// (the next launches only after the previous attempt's exact ack
// deadline, by which all of its wreckage has drained), so it keeps one
// engine outcome slot; the arena recycles each attempt's trains and
// fragments as they drain, and arrivals and ack deadlines wait on
// step-indexed agendas held on the engine. Attempt IDs count up in
// launch order and break contention ties, as worm IDs do in Run.
func (e *Engine) RunDynamic(g *graph.Graph, reqs []Request, cfg DynamicConfig, src *rng.Source) (*DynamicResult, error) {
	if err := checkRequests(g, reqs, cfg.Sim); err != nil {
		return nil, err
	}
	maxArrival, maxPath, maxLen := 0, 0, 1
	for i := range reqs {
		r := &reqs[i]
		maxArrival = max(maxArrival, r.Arrival)
		maxPath = max(maxPath, r.Route.Len())
		maxLen = max(maxLen, r.Length)
	}
	maxAttempts := cfg.MaxAttempts
	if maxAttempts == 0 {
		maxAttempts = DefaultMaxAttempts
	}
	retry := cfg.Retry
	if retry == nil {
		retry = ExponentialBackoff{Base: 2 * maxLen}
	}

	// begin announces no batch worms to the probe: attempts launch over
	// time. Each request then gets its one outcome slot.
	e.begin(g, cfg.Sim, 0)
	for range reqs {
		e.res.Outcomes = append(e.res.Outcomes, newOutcome())
	}
	e.arrivals.reset()
	e.deadlines.reset()
	for i := range reqs {
		e.arrivals.add(reqs[i].Arrival, int32(i))
	}
	d := dynamicRun{e: e, reqs: reqs, src: src, out: make([]DynamicOutcome, len(reqs))}
	for i := range d.out {
		d.out[i] = DynamicOutcome{DeliveredAt: -1, Latency: -1}
	}

	maxSteps := cfg.Sim.MaxSteps
	if maxSteps == 0 {
		perAttempt := 2*(maxPath+maxLen+cfg.Sim.AckLength) + retry.Backoff(maxAttempts) + 8
		maxSteps = maxArrival + maxAttempts*perAttempt + 16
	}

	t := 0
	for steps := 0; e.arrivals.pending > 0 || e.deadlines.pending > 0 || e.cal.pending > 0 || len(e.active) > 0; steps++ {
		if steps > maxSteps {
			e.occClean = 0
			return nil, fmt.Errorf("sim: dynamic run exceeded %d steps (raise Sim.MaxSteps or lower load)", maxSteps)
		}
		if len(e.active) == 0 {
			// Jump over idle time to the next arrival, deadline or spawn. A
			// corrupted agenda leaves t at the end, where the step guard fires.
			end := max(len(e.arrivals.buckets), len(e.deadlines.buckets), len(e.cal.buckets))
			for t < end && !e.arrivals.due(t) && !e.deadlines.due(t) && !e.cal.due(t) {
				t++
			}
		}
		e.dueReqs = e.arrivals.takeInto(t, e.dueReqs[:0])
		for _, ri := range e.dueReqs {
			d.launch(int(ri), 1, t)
		}
		e.step(t)
		if cfg.Sim.CheckInvariants {
			if err := e.checkInvariants(t); err != nil {
				e.occClean = 0
				return nil, err
			}
		}
		e.dueReqs = e.deadlines.takeInto(t, e.dueReqs[:0])
		for _, ri := range e.dueReqs {
			ro := &d.out[ri]
			if o := &e.res.Outcomes[ri]; o.Acked {
				ro.Delivered = true
				ro.DeliveredAt = o.DeliveredAt
				ro.Latency = o.DeliveredAt - reqs[ri].Arrival
				continue
			}
			if ro.Attempts >= maxAttempts {
				ro.GaveUp = true
				continue
			}
			next := t + 1 + src.Intn(retry.Backoff(ro.Attempts))
			d.launch(int(ri), ro.Attempts+1, next)
		}
		t++
	}
	e.markClean()
	if e.probe != nil {
		e.probe.EndRun(e.res.Makespan)
	}
	return &DynamicResult{
		Outcomes:      d.out,
		TotalAttempts: d.launched,
		Makespan:      e.res.Makespan,
		FaultKills:    e.res.FaultKillCount,
	}, nil
}

// dynamicRun is the per-call state of one RunDynamic.
type dynamicRun struct {
	e        *Engine
	reqs     []Request
	out      []DynamicOutcome
	src      *rng.Source
	launched int // attempts launched so far: the next attempt's ID
}

// launch starts attempt a of request ri at step t: it resets the
// request's outcome slot, builds the message train on the request's
// route with a fresh random wavelength and rank (drawn in that order),
// and files the attempt's exact ack deadline: the message is done by
// t+k+L-2 and its ack (if any) by +1+k+ackLen-2, plus one step of slack.
//
//optlint:hotpath
func (d *dynamicRun) launch(ri, a, t int) {
	e := d.e
	r := &d.reqs[ri]
	d.out[ri].Attempts = a
	e.res.Outcomes[ri] = newOutcome()
	tr := e.arena.newTrain()
	tr.id = d.launched
	tr.outIdx = ri
	tr.links = r.Route.Links()
	tr.start = t
	tr.length = r.Length
	tr.wavelength = d.src.Intn(e.cfg.Bandwidth)
	tr.rank = d.src.Intn(1 << 30)
	tr.band = MessageBand
	e.addTrain(tr)
	d.launched++
	k := len(tr.links)
	deadline := t + k + r.Length
	if e.cfg.AckLength > 0 {
		deadline += 1 + k + e.cfg.AckLength
	}
	e.deadlines.add(deadline, int32(ri))
}
