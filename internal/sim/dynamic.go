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
	// ID identifies the request; IDs must be distinct and >= 0.
	ID int
	// Path is the fixed route (selected up front, as in the paper).
	Path graph.Path
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
// counterpart of Run and reuses the engine's arenas and scratch the same
// way: the engine is reset at entry, so results are independent of prior
// use, and callers that execute many runs (trace-backed jobs,
// benchmarks) should hold one engine per goroutine.
func (e *Engine) RunDynamic(g *graph.Graph, reqs []Request, cfg DynamicConfig, src *rng.Source) (*DynamicResult, error) {
	if cfg.Sim.Bandwidth < 1 {
		return nil, fmt.Errorf("sim: bandwidth %d < 1", cfg.Sim.Bandwidth)
	}
	if cfg.Sim.Faults != nil && !cfg.Sim.Faults.Matches(g.NumLinks(), g.NumNodes(), cfg.Sim.Bandwidth) {
		return nil, fmt.Errorf("sim: fault schedule compiled for a different graph or bandwidth")
	}
	seen := make(map[int]bool, len(reqs))
	maxArrival, maxPath, maxLen := 0, 0, 1
	for i, r := range reqs {
		if r.ID < 0 || seen[r.ID] {
			return nil, fmt.Errorf("sim: request %d has invalid or duplicate ID %d", i, r.ID)
		}
		seen[r.ID] = true
		if err := r.Path.Validate(g); err != nil {
			return nil, fmt.Errorf("sim: request %d: %w", r.ID, err)
		}
		if r.Path.Len() == 0 || r.Length < 1 || r.Arrival < 0 {
			return nil, fmt.Errorf("sim: request %d has invalid parameters", r.ID)
		}
		if r.Arrival > maxArrival {
			maxArrival = r.Arrival
		}
		if r.Path.Len() > maxPath {
			maxPath = r.Path.Len()
		}
		if r.Length > maxLen {
			maxLen = r.Length
		}
	}
	maxAttempts := cfg.MaxAttempts
	if maxAttempts == 0 {
		maxAttempts = DefaultMaxAttempts
	}
	retry := cfg.Retry
	if retry == nil {
		retry = ExponentialBackoff{Base: 2 * maxLen}
	}

	e.begin(g, cfg.Sim, 0)
	dres := &DynamicResult{Outcomes: make([]DynamicOutcome, len(reqs))}
	for i := range dres.Outcomes {
		dres.Outcomes[i] = DynamicOutcome{DeliveredAt: -1, Latency: -1}
	}

	// attempt bookkeeping: outcome slot index -> request index.
	type attemptInfo struct {
		req     int
		attempt int
	}
	var attempts []attemptInfo
	launches := make(map[int][]int) // step -> request indices to launch
	deadlines := make(map[int][]int)
	pendingChecks := 0

	// launch schedules attempt a of request ri at step t.
	launch := func(ri, a, t int) {
		r := &reqs[ri]
		dres.Outcomes[ri].Attempts = a
		outIdx := len(e.res.Outcomes)
		e.res.Outcomes = append(e.res.Outcomes, newOutcome())
		attempts = append(attempts, attemptInfo{req: ri, attempt: a})
		tr := e.arena.newTrain()
		tr.id = outIdx // unique per attempt
		tr.outIdx = outIdx
		tr.links = appendPathLinks(tr.links, g, r.Path)
		tr.start = t
		tr.length = r.Length
		tr.wavelength = src.Intn(cfg.Sim.Bandwidth)
		tr.rank = src.Intn(1 << 30)
		tr.band = MessageBand
		e.addTrain(tr)
		dres.TotalAttempts++
		// Exact ack deadline: message done by t+k+L-2; ack (if any) by
		// +1+k+ackLen-2. One extra step of slack.
		k := r.Path.Len()
		deadline := t + k + r.Length
		if cfg.Sim.AckLength > 0 {
			deadline += 1 + k + cfg.Sim.AckLength
		}
		deadlines[deadline] = append(deadlines[deadline], outIdx)
		pendingChecks++
	}

	for i, r := range reqs {
		launches[r.Arrival] = append(launches[r.Arrival], i)
	}

	maxSteps := cfg.Sim.MaxSteps
	if maxSteps == 0 {
		perAttempt := 2*(maxPath+maxLen+cfg.Sim.AckLength) + retry.Backoff(maxAttempts) + 8
		maxSteps = maxArrival + maxAttempts*perAttempt + 16
	}

	t := 0
	for steps := 0; len(launches) > 0 || pendingChecks > 0 || e.cal.pending > 0 || len(e.active) > 0; steps++ {
		if steps > maxSteps {
			return nil, fmt.Errorf("sim: dynamic run exceeded %d steps (raise Sim.MaxSteps or lower load)", maxSteps)
		}
		if len(e.active) == 0 {
			// Jump over idle time to the next event.
			next := -1
			consider := func(s int) {
				if s >= t && (next < 0 || s < next) {
					next = s
				}
			}
			//optlint:allow mapiter order-independent min-reduction over pending launch steps
			for s := range launches {
				consider(s)
			}
			//optlint:allow mapiter order-independent min-reduction over pending deadline steps
			for s := range deadlines {
				consider(s)
			}
			if s, ok := e.cal.next(t); ok {
				consider(s)
			}
			if next > t {
				t = next
			}
		}
		if ls, ok := launches[t]; ok {
			for _, ri := range ls {
				launch(ri, 1, t)
			}
			delete(launches, t)
		}
		e.step(t)
		if cfg.Sim.CheckInvariants {
			if err := e.checkInvariants(t); err != nil {
				return nil, err
			}
		}
		if ds, ok := deadlines[t]; ok {
			for _, outIdx := range ds {
				pendingChecks--
				ai := attempts[outIdx]
				o := e.res.Outcomes[outIdx]
				ro := &dres.Outcomes[ai.req]
				if o.Acked {
					if !ro.Delivered {
						ro.Delivered = true
						ro.DeliveredAt = o.DeliveredAt
						ro.Latency = o.DeliveredAt - reqs[ai.req].Arrival
					}
					continue
				}
				if ai.attempt >= maxAttempts {
					ro.GaveUp = true
					continue
				}
				next := t + 1 + src.Intn(retry.Backoff(ai.attempt))
				launch(ai.req, ai.attempt+1, next)
			}
			delete(deadlines, t)
		}
		t++
	}
	dres.Makespan = e.res.Makespan
	dres.FaultKills = e.res.FaultKillCount
	return dres, nil
}
