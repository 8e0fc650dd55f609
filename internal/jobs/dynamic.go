package jobs

import (
	"fmt"

	"repro/internal/faults"
	"repro/internal/graph"
	"repro/internal/optical"
	"repro/internal/rng"
	"repro/internal/sim"
	"repro/internal/telemetry"
	"repro/internal/workload"
)

// DynamicSpec declares an open-loop trace-replay job: the network, the
// workload trace driven through sim.Engine.RunDynamic, the retry-protocol
// parameters, an optional fault plan, and the master seed and trial
// count. The trace carries the arrivals verbatim (it is the
// content-addressed unit); Seed drives only the protocol's randomness
// (wavelengths, ranks, backoff draws), split per trial so trials are
// relocatable and resumable sweeps replay byte-identically.
type DynamicSpec struct {
	// Network declares the topology. Every kind except butterfly is
	// accepted (the butterfly selector routes input to output terminals,
	// not node to node).
	Network NetworkSpec `json:"network"`
	// Trace is the replayed workload; its node count must match the
	// network's.
	Trace *workload.Trace `json:"trace"`
	// Protocol declares the open-loop retry parameters.
	Protocol DynamicProtocolSpec `json:"protocol"`
	// Faults optionally replays the trace in degraded mode; the plan is
	// part of the content address.
	Faults *faults.Plan `json:"faults"`
	// Seed is the protocol master seed (one split per trial).
	Seed uint64 `json:"seed"`
	// Trials is the number of replays to aggregate (default 1).
	Trials int `json:"trials"`
}

// DynamicProtocolSpec declares sim.DynamicConfig in serializable form.
type DynamicProtocolSpec struct {
	// Bandwidth is B, the wavelengths per band (default 1).
	Bandwidth int `json:"bandwidth"`
	// Length is the worm length L in flits (default 1).
	Length int `json:"length"`
	// Rule is serve-first (default) or priority.
	Rule string `json:"rule"`
	// AckLength is the ack-train length; 0 selects oracle acks.
	AckLength int `json:"ack_length"`
	// Backoff is exponential (default) or fixed.
	Backoff string `json:"backoff"`
	// BackoffBase is the first-attempt delay range (default 2*Length).
	BackoffBase int `json:"backoff_base"`
	// BackoffCap caps the exponential range (default 1024*BackoffBase;
	// ignored for fixed backoff).
	BackoffCap int `json:"backoff_cap"`
	// MaxAttempts abandons a request after this many launches (default
	// sim.DefaultMaxAttempts = 50).
	MaxAttempts int `json:"max_attempts"`
	// MaxSteps bounds the whole run; 0 derives the RunDynamic default.
	MaxSteps int `json:"max_steps"`
}

// normalized returns a deep copy with every defaultable field explicit,
// mirroring Spec.Normalized for the other job kinds.
func (d *DynamicSpec) normalized() *DynamicSpec {
	out := *d
	if out.Network.Kind != "circulant" {
		out.Network.Offsets = []int{}
	} else {
		out.Network.Offsets = append([]int{}, out.Network.Offsets...)
	}
	out.Protocol = d.Protocol.normalized()
	if out.Faults != nil && len(out.Faults.Faults) == 0 {
		out.Faults = nil
	}
	if out.Trials <= 0 {
		out.Trials = 1
	}
	return &out
}

// normalized returns the protocol with every defaultable field explicit.
func (p DynamicProtocolSpec) normalized() DynamicProtocolSpec {
	if p.Bandwidth <= 0 {
		p.Bandwidth = 1
	}
	if p.Length <= 0 {
		p.Length = 1
	}
	if p.Rule == "" {
		p.Rule = optical.ServeFirst.String()
	}
	if p.Backoff == "" {
		p.Backoff = "exponential"
	}
	if p.BackoffBase <= 0 {
		p.BackoffBase = 2 * p.Length
	}
	if p.Backoff == "fixed" {
		p.BackoffCap = 0
	} else if p.BackoffCap <= 0 {
		p.BackoffCap = 1024 * p.BackoffBase
	}
	if p.MaxAttempts <= 0 {
		p.MaxAttempts = sim.DefaultMaxAttempts
	}
	return p
}

// validate checks a dynamic spec's kinds and bounds. The trace itself is
// fully validated (ordering, ranges, spec agreement) and must span the
// network's nodes.
func (d *DynamicSpec) validate() error {
	if d.Network.Kind == "butterfly" {
		return fmt.Errorf("jobs: dynamic jobs do not support butterfly networks (input/output-terminal routing)")
	}
	if err := d.Network.validate(); err != nil {
		return err
	}
	if d.Trace == nil {
		return fmt.Errorf("jobs: dynamic spec needs a trace")
	}
	if err := d.Trace.Validate(); err != nil {
		return fmt.Errorf("jobs: %w", err)
	}
	if nodes, _, _, _ := d.Network.size(); d.Trace.Nodes != nodes {
		return fmt.Errorf("jobs: trace spans %d nodes but the %s network has %d",
			d.Trace.Nodes, d.Network.Kind, nodes)
	}
	if err := checkTrials(d.Trials); err != nil {
		return err
	}
	p := d.Protocol
	if p.Bandwidth < 0 || p.Bandwidth > 256 {
		return fmt.Errorf("jobs: bandwidth %d out of range [0, 256]", p.Bandwidth)
	}
	if p.Length < 0 || p.Length > 4096 {
		return fmt.Errorf("jobs: length %d out of range [0, 4096]", p.Length)
	}
	if p.AckLength < 0 || p.MaxSteps < 0 {
		return fmt.Errorf("jobs: ack_length and max_steps must be >= 0")
	}
	if p.MaxAttempts < 0 || p.MaxAttempts > 10000 {
		return fmt.Errorf("jobs: max_attempts %d out of range [0, 10000]", p.MaxAttempts)
	}
	if p.BackoffBase < 0 || p.BackoffCap < 0 {
		return fmt.Errorf("jobs: backoff parameters must be >= 0")
	}
	if _, err := optical.ParseRule(p.Rule); p.Rule != "" && err != nil {
		return fmt.Errorf("jobs: %w", err)
	}
	switch p.Backoff {
	case "", "exponential", "fixed":
	default:
		return fmt.Errorf("jobs: unknown backoff policy %q", p.Backoff)
	}
	if err := d.Network.checkLoad(p.Bandwidth, len(d.Trace.Arrivals)); err != nil {
		return err
	}
	return checkSpan("dynamic", d.span())
}

// span bounds the steps a replay of the dynamic spec spans: the trace
// horizon plus, for each of max_attempts launches, the retry policy's
// largest backoff and one attempt's ack window, 2(D + L) plus the ack
// length (each saturated past maxSpan, so the sum cannot overflow).
func (d *DynamicSpec) span() int {
	_, _, _, hops := d.Network.size()
	p := d.Protocol.normalized()
	backoff := 0
	for a := 1; a <= p.MaxAttempts; a++ {
		backoff = max(backoff, p.backoff(a))
	}
	window := 2*(hops+p.Length) + min(p.AckLength, maxSpan+1)
	return d.Trace.Horizon + p.MaxAttempts*(min(backoff, maxSpan+1)+window)
}

// retry is the normalized protocol's retry policy.
func (p DynamicProtocolSpec) retry() sim.RetryPolicy {
	if p.Backoff == "fixed" {
		return sim.FixedBackoff{Range: p.BackoffBase}
	}
	return sim.ExponentialBackoff{Base: p.BackoffBase, Cap: p.BackoffCap}
}

// backoff is retry().Backoff(attempt) through the concrete policy, so
// Validate does not box the policy into an interface on every call.
func (p DynamicProtocolSpec) backoff(attempt int) int {
	if p.Backoff == "fixed" {
		return sim.FixedBackoff{Range: p.BackoffBase}.Backoff(attempt)
	}
	return sim.ExponentialBackoff{Base: p.BackoffBase, Cap: p.BackoffCap}.Backoff(attempt)
}

// dynamicSetup is a materialized dynamic job: the graph, the trace's
// routed requests, the run configuration, and one pre-split protocol
// stream per trial.
type dynamicSetup struct {
	g         *graph.Graph
	reqs      []sim.Request
	cfg       sim.DynamicConfig
	trialSrcs []*rng.Source
}

// setup materializes the (normalized) dynamic spec. Paths are fixed up
// front by the topology's canonical selector; the per-trial streams are
// split from the master in a fixed order so a resumed sweep continues
// exactly where a killed run stopped.
func (d *DynamicSpec) setup() (*dynamicSetup, error) {
	t, sel, err := d.Network.Build()
	if err != nil {
		return nil, err
	}
	g := t.Graph()
	p := d.Protocol
	rule, err := optical.ParseRule(p.Rule)
	if err != nil {
		return nil, fmt.Errorf("jobs: %w", err)
	}
	cfg := sim.DynamicConfig{
		Sim: sim.Config{
			Bandwidth: p.Bandwidth,
			Rule:      rule,
			AckLength: p.AckLength,
			MaxSteps:  p.MaxSteps,
		},
		MaxAttempts: p.MaxAttempts,
		Retry:       p.retry(),
	}
	if d.Faults != nil {
		sched, err := d.Faults.Compile(g, p.Bandwidth)
		if err != nil {
			return nil, fmt.Errorf("jobs: %w", err)
		}
		cfg.Sim.Faults = sched
	}
	master := rng.New(d.Seed)
	return &dynamicSetup{
		g:         g,
		reqs:      d.Trace.Requests(sel, p.Length),
		cfg:       cfg,
		trialSrcs: master.SplitN(d.Trials),
	}, nil
}

// DynamicTrialSummary is the per-trial slice of a dynamic job's result.
// All fields are integral, so the JSON round trip through the store is
// exact and resumed sweeps aggregate byte-identically.
type DynamicTrialSummary struct {
	// Trial is the 0-based trial index.
	Trial int `json:"trial"`
	// Requests is the trace's request count.
	Requests int `json:"requests"`
	// Delivered and GaveUp partition the finished requests.
	Delivered int `json:"delivered"`
	// GaveUp counts requests abandoned at the attempt budget.
	GaveUp int `json:"gave_up"`
	// Attempts is the total number of launches.
	Attempts int `json:"attempts"`
	// Makespan is the run's final simulated step.
	Makespan int `json:"makespan"`
	// FaultKills counts attempts destroyed by injected faults.
	FaultKills int `json:"fault_kills"`
	// LatencySum sums delivered requests' arrival-to-delivery latencies.
	LatencySum int `json:"latency_sum"`
	// LatencyMax is the largest delivered latency (0 if none delivered).
	LatencyMax int `json:"latency_max"`
}

// DynamicAggregate summarizes a dynamic job's trials, recomputed from
// the trial summaries (never accumulated incrementally) so resumed and
// uninterrupted sweeps agree exactly.
type DynamicAggregate struct {
	// Trials is the number of replays aggregated.
	Trials int `json:"trials"`
	// Requests, Delivered, GaveUp and Attempts sum the per-trial columns.
	Requests int `json:"requests"`
	// Delivered counts delivered requests across trials.
	Delivered int `json:"delivered"`
	// GaveUp counts abandoned requests across trials.
	GaveUp int `json:"gave_up"`
	// Attempts counts launches across trials.
	Attempts int `json:"attempts"`
	// FaultKills counts fault-destroyed attempts across trials.
	FaultKills int `json:"fault_kills"`
	// MeanLatency is the mean delivered latency across trials.
	MeanLatency float64 `json:"mean_latency"`
	// MaxLatency is the largest delivered latency across trials.
	MaxLatency int `json:"max_latency"`
	// MeanMakespan is the mean per-trial makespan.
	MeanMakespan float64 `json:"mean_makespan"`
}

// aggregateDynamic folds dynamic trial summaries into the job-level
// aggregate.
func aggregateDynamic(trials []DynamicTrialSummary) DynamicAggregate {
	a := DynamicAggregate{Trials: len(trials)}
	latencySum, makespanSum := 0, 0
	for _, t := range trials {
		a.Requests += t.Requests
		a.Delivered += t.Delivered
		a.GaveUp += t.GaveUp
		a.Attempts += t.Attempts
		a.FaultKills += t.FaultKills
		latencySum += t.LatencySum
		if t.LatencyMax > a.MaxLatency {
			a.MaxLatency = t.LatencyMax
		}
		makespanSum += t.Makespan
	}
	if a.Delivered > 0 {
		a.MeanLatency = float64(latencySum) / float64(a.Delivered)
	}
	if a.Trials > 0 {
		a.MeanMakespan = float64(makespanSum) / float64(a.Trials)
	}
	return a
}

// trials returns the runner of the sweep's replays on eng.
func (setup *dynamicSetup) trials(eng Simulator) trialRunner[DynamicTrialSummary] {
	col := telemetry.NewCollector()
	cfg := setup.cfg
	cfg.Sim.Probe = col
	return trialRunner[DynamicTrialSummary]{col: col, run: func(i int) (DynamicTrialSummary, error) {
		res, err := eng.RunDynamic(setup.g, setup.reqs, cfg, setup.trialSrcs[i])
		if err != nil {
			return DynamicTrialSummary{}, err
		}
		s := DynamicTrialSummary{
			Trial:      i,
			Requests:   len(res.Outcomes),
			Attempts:   res.TotalAttempts,
			Makespan:   res.Makespan,
			FaultKills: res.FaultKills,
		}
		for _, o := range res.Outcomes {
			if o.Delivered {
				s.Delivered++
				s.LatencySum += o.Latency
				if o.Latency > s.LatencyMax {
					s.LatencyMax = o.Latency
				}
			}
			if o.GaveUp {
				s.GaveUp++
			}
		}
		return s, nil
	}}
}

// runDynamic executes (or resumes) a dynamic trace-replay sweep through
// the fold route sweeps take: the checkpoint after every trial makes
// kill-at-any-trial resume byte-identical, and the folded telemetry
// snapshot accumulates every trial's engine events.
func (e *Executor) runDynamic(key string, norm Spec, eng Simulator, progress func(done, total int), canceled func() bool) (*Result, error) {
	d := norm.Dynamic
	setup, err := d.setup()
	if err != nil {
		return nil, err
	}
	sw := sweep[DynamicTrialSummary]{
		key:    key,
		total:  d.Trials,
		trials: func(ck *checkpoint) *[]DynamicTrialSummary { return &ck.DynamicTrials },
		runner: setup.trials(eng),
	}
	summaries, tel, err := sw.fold(e, progress, canceled)
	if err != nil {
		return nil, err
	}
	return &Result{
		Key:              key,
		Spec:             norm,
		DynamicTrials:    summaries,
		DynamicAggregate: aggregateDynamic(summaries),
		Telemetry:        tel,
	}, nil
}
