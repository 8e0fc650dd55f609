package jobs

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"

	"repro/internal/canon"
	"repro/internal/core"
	"repro/internal/telemetry"
)

// ErrCanceled is returned for a job canceled before it finished. The
// checkpoint written after the last completed trial is retained, so a
// resubmission resumes instead of starting over.
var ErrCanceled = errors.New("jobs: job canceled")

// ExperimentRunner executes one named experiment table and returns its
// canonical JSON encoding plus the pre-rendered text report. The harness
// in internal/experiments provides it (see experiments.JobRunner); the
// indirection keeps this package from importing the experiment harness.
type ExperimentRunner func(id string, seed uint64, trials int, quick bool) (table json.RawMessage, text string, err error)

// TrialSummary is the per-trial slice of a route job's result: the exact
// integers needed to rebuild the aggregate, so a checkpointed prefix plus
// re-run suffix reproduces an uninterrupted run byte for byte.
type TrialSummary struct {
	// Trial is the 0-based trial index.
	Trial int `json:"trial"`
	// Rounds is the protocol's round count.
	Rounds int `json:"rounds"`
	// Time is the paper's accounted runtime.
	Time int `json:"time"`
	// Measured is the summed simulated makespan.
	Measured int `json:"measured"`
	// Worms and Acked give the trial's delivery fraction.
	Worms int `json:"worms"`
	// Acked counts acknowledged worms.
	Acked int `json:"acked"`
	// FaultKills counts fault-destroyed trains (degraded runs).
	FaultKills int `json:"fault_kills"`
	// Rerouted counts degraded-mode reroutes.
	Rerouted int `json:"rerouted"`
	// Completed reports whether every worm was acknowledged in bounds.
	Completed bool `json:"completed"`
}

// Aggregate summarizes a route job's trials. It is recomputed from the
// trial summaries (never accumulated incrementally), so resumed and
// uninterrupted sweeps agree exactly.
type Aggregate struct {
	// Trials is the number of trials aggregated.
	Trials int `json:"trials"`
	// Completed counts trials where every worm was acknowledged.
	Completed int `json:"completed"`
	// TotalRounds, TotalTime and TotalMeasured sum the per-trial columns.
	TotalRounds int `json:"total_rounds"`
	// TotalTime sums the accounted runtimes.
	TotalTime int `json:"total_time"`
	// TotalMeasured sums the measured makespans.
	TotalMeasured int `json:"total_measured"`
	// MeanRounds and MeanTime are the per-trial means.
	MeanRounds float64 `json:"mean_rounds"`
	// MeanTime is the mean accounted runtime.
	MeanTime float64 `json:"mean_time"`
}

// aggregate folds trial summaries into the job-level aggregate.
func aggregate(trials []TrialSummary) Aggregate {
	a := Aggregate{Trials: len(trials)}
	for _, t := range trials {
		a.TotalRounds += t.Rounds
		a.TotalTime += t.Time
		a.TotalMeasured += t.Measured
		if t.Completed {
			a.Completed++
		}
	}
	if a.Trials > 0 {
		a.MeanRounds = float64(a.TotalRounds) / float64(a.Trials)
		a.MeanTime = float64(a.TotalTime) / float64(a.Trials)
	}
	return a
}

// Result is the stored outcome of one job. Route jobs carry trial
// summaries, the aggregate, and the folded telemetry snapshot; experiment
// jobs carry the table JSON and its rendered text, so serving a cached
// experiment reproduces the original output byte for byte.
type Result struct {
	// Key is the job's content address.
	Key string `json:"key"`
	// Spec is the normalized spec the key was computed from.
	Spec Spec `json:"spec"`
	// Params are the routing-problem parameters (route jobs).
	Params core.Params `json:"params"`
	// Trials are the per-trial summaries (route jobs).
	Trials []TrialSummary `json:"trials"`
	// Aggregate summarizes the trials (route jobs).
	Aggregate Aggregate `json:"aggregate"`
	// Telemetry is the fold of the per-trial snapshots (route and dynamic
	// jobs).
	Telemetry *telemetry.Snapshot `json:"telemetry"`
	// Table is the experiment table's canonical JSON, compacted
	// (experiment jobs).
	Table json.RawMessage `json:"table,omitempty"`
	// Text is the experiment's rendered report (experiment jobs).
	Text string `json:"text,omitempty"`
	// DynamicTrials are the per-replay summaries (dynamic jobs).
	DynamicTrials []DynamicTrialSummary `json:"dynamic_trials,omitempty"`
	// DynamicAggregate summarizes the replays (dynamic jobs).
	DynamicAggregate DynamicAggregate `json:"dynamic_aggregate"`
}

// checkpoint is the durable mid-sweep state written after every completed
// trial: the summaries and folded telemetry of trials [0, Done). All
// numeric state is integral, so the JSON round trip through the store is
// exact and a resumed fold matches an in-memory one.
type checkpoint struct {
	Key       string              `json:"key"`
	Done      int                 `json:"done"`
	Trials    []TrialSummary      `json:"trials"`
	Telemetry *telemetry.Snapshot `json:"telemetry"`
	// DynamicTrials replaces Trials for dynamic trace-replay jobs.
	DynamicTrials []DynamicTrialSummary `json:"dynamic_trials,omitempty"`
}

// resultKey and checkpointKey namespace the store: both object kinds of
// one job live under its content address.
func resultKey(key string) string     { return "result/" + key }
func checkpointKey(key string) string { return "ckpt/" + key }

// ResultKey returns the store key of the job's result record; the
// cluster layer and operational tooling address replicated records
// through it.
func ResultKey(key string) string { return resultKey(key) }

// reload fixes the one JSON asymmetry of a store round trip: a nil
// RawMessage is stored as the literal null, which unmarshals as the
// 4-byte token rather than nil. Normalizing it back keeps cached and
// freshly computed results byte-identical when re-encoded.
func (r *Result) reload() {
	if string(r.Table) == "null" {
		r.Table = nil
	}
}

// decodeResult decodes a result from its canonical JSON, the form the
// store holds and the result route serves, with canon.Unmarshal.
func decodeResult(raw []byte) (*Result, error) {
	var res Result
	if err := canon.Unmarshal(raw, &res); err != nil {
		return nil, err
	}
	res.reload()
	return &res, nil
}

// TrialOutcome is one executed trial of a route sweep: its summary plus
// its solo telemetry snapshot. It is the unit of work-stealing transfer —
// integral throughout, so the JSON trip from a stealing peer back to the
// owner is exact and the owner's fold is byte-identical to local
// execution.
type TrialOutcome struct {
	// Summary is the trial's result row.
	Summary TrialSummary `json:"summary"`
	// Snapshot is the telemetry of exactly this trial.
	Snapshot *telemetry.Snapshot `json:"snapshot"`
}

// TrialSession is one sweep's distribution state, owned by the executing
// worker. ClaimLocal hands the worker the lowest trial not claimed by a
// remote peer; Completed delivers the outcomes of remotely executed
// trials. The channel is never closed; the owner bounds its waits and
// re-polls ClaimLocal, so an expired remote claim flows back to local
// execution. Close releases the session's registration.
type TrialSession interface {
	// ClaimLocal claims the lowest unclaimed trial for local execution.
	ClaimLocal() (trial int, ok bool)
	// Completed delivers remotely executed trials; never closed.
	Completed() <-chan []TrialOutcome
	// Close unregisters the session (idempotent).
	Close()
}

// TrialDistributor opens distribution sessions for route sweeps; the
// cluster layer implements it. Distribute may return nil to keep the
// sweep purely local (no peers, too few trials, stealing disabled).
type TrialDistributor interface {
	Distribute(key string, spec Spec, start, total int) TrialSession
}

// Executor runs jobs against an optional store and an optional live
// telemetry aggregate. It holds no per-job state: the engine is supplied
// by the calling worker so its scratch memory is reused across jobs.
type Executor struct {
	// Store memoizes results and checkpoints; nil disables persistence.
	Store *Store
	// Experiments runs experiment jobs; nil rejects them.
	Experiments ExperimentRunner
	// Live optionally receives every trial's telemetry for /metrics.
	Live *telemetry.Live
	// Distribute, when set, lets remote peers steal trial ranges of route
	// sweeps (see internal/cluster); nil keeps every sweep local.
	Distribute TrialDistributor
	// Lookup, when set, resolves store keys missing locally against the
	// cluster's replicas (read-repair); nil keeps lookups local.
	Lookup func(storeKey string) (json.RawMessage, bool)
}

// lookupJSON resolves a store key into out, which must point to a zero
// value, and returns the bytes it decoded, nil on a miss: the local store
// first, then the cluster read-repair hook. A remote hit is compacted as
// PutRaw stores it and persisted locally, and the bytes the store then
// holds are returned, so the next lookup is a local one and returns the
// same bytes. Both are canon's bytes, written here or at the record's
// origin, so canon.Unmarshal decodes them.
func (e *Executor) lookupJSON(storeKey string, out any) (json.RawMessage, error) {
	if e.Store != nil {
		if raw, ok := e.Store.Get(storeKey); ok {
			if err := canon.Unmarshal(raw, out); err != nil {
				return nil, fmt.Errorf("jobs: stored value for %s: %w", storeKey, err)
			}
			return raw, nil
		}
	}
	if e.Lookup == nil {
		return nil, nil
	}
	remote, ok := e.Lookup(storeKey)
	if !ok {
		return nil, nil
	}
	var raw bytes.Buffer
	if err := json.Compact(&raw, remote); err != nil {
		return nil, fmt.Errorf("jobs: replicated value for %s: %w", storeKey, err)
	}
	if err := canon.Unmarshal(raw.Bytes(), out); err != nil {
		return nil, fmt.Errorf("jobs: replicated value for %s: %w", storeKey, err)
	}
	if e.Store != nil {
		if err := e.Store.PutRaw(storeKey, raw.Bytes()); err != nil {
			return nil, err
		}
		if stored, ok := e.Store.Get(storeKey); ok {
			return stored, nil
		}
	}
	return raw.Bytes(), nil
}

// Run executes the spec on the worker's engine. It returns the cached
// result without re-simulation when the store already has one, resumes
// from the last checkpoint when one exists, and otherwise runs the full
// sweep, checkpointing after every trial. progress (optional) observes
// (completedTrials, totalTrials); canceled (optional) is polled between
// trials and stops the sweep with ErrCanceled, retaining the checkpoint.
// The second return reports whether the result came from the store.
func (e *Executor) Run(spec Spec, eng Simulator, progress func(done, total int), canceled func() bool) (*Result, bool, error) {
	res, _, hit, err := e.run(spec, eng, progress, canceled)
	return res, hit, err
}

// run is Run returning also the result's canonical JSON as the store
// holds it: the bytes a hit was decoded from, so one key serves one byte
// string even when the stored record was written in an older layout, or
// the bytes Put wrote for a computed result. They are nil for a result
// computed without a store.
func (e *Executor) run(spec Spec, eng Simulator, progress func(done, total int), canceled func() bool) (*Result, json.RawMessage, bool, error) {
	key, err := spec.Key()
	if err != nil {
		return nil, nil, false, err
	}
	norm := spec.Normalized()
	if e.Store != nil || e.Lookup != nil {
		var cached Result
		stored, err := e.lookupJSON(resultKey(key), &cached)
		if err != nil {
			return nil, nil, false, err
		}
		if stored != nil {
			cached.reload()
			return &cached, stored, true, nil
		}
	}
	var res *Result
	switch {
	case norm.Experiment != nil:
		res, err = e.runExperiment(key, norm)
	case norm.Dynamic != nil:
		res, err = e.runDynamic(key, norm, eng, progress, canceled)
	default:
		res, err = e.runRoute(key, norm, eng, progress, canceled)
	}
	if err != nil || e.Store == nil {
		return res, nil, false, err
	}
	if err := e.Store.Put(resultKey(key), res); err != nil {
		return nil, nil, false, err
	}
	raw, _ := e.Store.Get(resultKey(key))
	if err := e.Store.Delete(checkpointKey(key)); err != nil {
		return nil, nil, false, err
	}
	if err := e.Store.Sync(); err != nil {
		return nil, nil, false, err
	}
	return res, raw, false, nil
}

// runExperiment delegates to the injected experiment harness. The
// runner's table is validated and compacted, so a fresh Result and one
// read back from the store encode to the same bytes.
func (e *Executor) runExperiment(key string, norm Spec) (*Result, error) {
	if e.Experiments == nil {
		return nil, fmt.Errorf("jobs: no experiment runner configured")
	}
	x := norm.Experiment
	table, text, err := e.Experiments(x.ID, x.Seed, x.Trials, x.Quick)
	if err != nil {
		return nil, err
	}
	var compact bytes.Buffer
	if err := json.Compact(&compact, table); err != nil {
		return nil, fmt.Errorf("jobs: experiment %s table: %w", x.ID, err)
	}
	return &Result{Key: key, Spec: norm, Table: compact.Bytes(), Text: text}, nil
}

// trials returns the runner of the sweep's trials on eng.
func (setup *runSetup) trials(eng Simulator) trialRunner[TrialSummary] {
	col := telemetry.NewCollector()
	cfg := setup.cfg
	cfg.Probe = col
	return trialRunner[TrialSummary]{col: col, run: func(i int) (TrialSummary, error) {
		res, err := core.RunWithSimulator(setup.col, cfg, setup.trialSrcs[i], eng)
		if err != nil {
			return TrialSummary{}, err
		}
		return TrialSummary{
			Trial:      i,
			Rounds:     res.TotalRounds,
			Time:       res.TotalTime,
			Measured:   res.MeasuredTime,
			Worms:      res.Params.N,
			Acked:      res.Params.N - len(res.StillActive),
			FaultKills: res.TotalFaultKills,
			Rerouted:   res.TotalRerouted,
			Completed:  res.AllDelivered,
		}, nil
	}}
}

// runRoute executes (or resumes) a route sweep through the fold. With a
// TrialDistributor attached, remote peers may steal trial ranges; the
// fold stays strictly in trial order either way, so the distributed
// result is byte-identical to a single-node run.
func (e *Executor) runRoute(key string, norm Spec, eng Simulator, progress func(done, total int), canceled func() bool) (*Result, error) {
	r := norm.Route
	setup, err := r.setup()
	if err != nil {
		return nil, err
	}
	sw := sweep[TrialSummary]{
		key:    key,
		total:  r.Trials,
		trials: func(ck *checkpoint) *[]TrialSummary { return &ck.Trials },
		runner: setup.trials(eng),
	}
	if e.Distribute != nil {
		sw.session = func(start int) TrialSession { return e.Distribute.Distribute(key, norm, start, r.Trials) }
	}
	summaries, tel, err := sw.fold(e, progress, canceled)
	if err != nil {
		return nil, err
	}
	var params core.Params
	if setup.col.Size() > 0 {
		params = core.Params{
			N:              setup.col.Size(),
			Dilation:       setup.col.Dilation(),
			PathCongestion: setup.col.PathCongestion(),
			Length:         setup.cfg.Length,
			Bandwidth:      setup.cfg.Bandwidth,
		}
	}
	return &Result{
		Key:       key,
		Spec:      norm,
		Params:    params,
		Trials:    summaries,
		Aggregate: aggregate(summaries),
		Telemetry: tel,
	}, nil
}

// RunTrialRange executes trials [from, to) of a route sweep on eng,
// returning each trial's summary and solo telemetry snapshot. It is the
// work-stealing entry point: per-trial rng streams are pre-split from
// the spec's master seed in a fixed order, so any node can execute any
// trial range and the owner's in-order fold reproduces a single-node
// run byte for byte.
func RunTrialRange(spec Spec, eng Simulator, from, to int) ([]TrialOutcome, error) {
	if _, err := spec.Key(); err != nil {
		return nil, err
	}
	norm := spec.Normalized()
	if norm.Route == nil {
		return nil, fmt.Errorf("jobs: only route sweeps distribute trials")
	}
	r := norm.Route
	if from < 0 || to > r.Trials || from > to {
		return nil, fmt.Errorf("jobs: trial range [%d, %d) outside sweep of %d trials", from, to, r.Trials)
	}
	setup, err := r.setup()
	if err != nil {
		return nil, err
	}
	runner := setup.trials(eng)
	outs := make([]TrialOutcome, 0, to-from)
	for i := from; i < to; i++ {
		sum, snap, err := runner.step(i)
		if err != nil {
			return nil, err
		}
		outs = append(outs, TrialOutcome{Summary: sum, Snapshot: snap})
	}
	return outs, nil
}
