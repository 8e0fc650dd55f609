package experiments

import (
	"fmt"
	"math"
	"runtime"
	"sync"
	"sync/atomic"

	"repro/internal/core"
	"repro/internal/paths"
	"repro/internal/rng"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/telemetry"
)

// trialStats aggregates protocol runs over repeated trials.
type trialStats struct {
	Rounds     []float64
	Time       []float64 // the paper's accounted time
	Measured   []float64 // simulated makespan sum
	Delivered  []float64 // per-trial fraction of worms acknowledged
	FaultKills []float64 // per-trial fault-killed trains (degraded runs)
	Rerouted   []float64 // per-trial degraded-mode reroutes
	Completed  int
	Params     core.Params
}

// trialPrep customizes one trial's configuration before it runs. The
// robustness experiments use it to draw an independent fault plan per
// trial; drawing only from the trial's own stream keeps the whole table
// reproducible regardless of worker scheduling.
type trialPrep func(trial int, cfg *core.Config, src *rng.Source)

// engines pools simulator engines across the harness: trial workers,
// dynamic rows and the A7 async runs draw a warm engine instead of growing
// a fresh one per table row. An engine is reset at the start of every run,
// so which one a caller gets never changes a result.
var engines = sync.Pool{New: func() any { return sim.NewEngine() }}

// runTrials executes the protocol `trials` times with independent rng
// streams split from src and aggregates the results. Trials are striped
// over a fixed pool of workers (one per core), each holding an engine from
// the shared pool so the hot path allocates nothing in steady state;
// determinism is preserved because every stream is split from src before
// any goroutine starts and results are collected by index.
func runTrials(c *paths.Collection, cfg core.Config, trials int, src *rng.Source) (*trialStats, error) {
	return runTrialsPrep(c, cfg, trials, src, nil)
}

// runTrialsPrep is runTrials with a per-trial configuration hook.
func runTrialsPrep(c *paths.Collection, cfg core.Config, trials int, src *rng.Source, prep trialPrep) (*trialStats, error) {
	sources := src.SplitN(trials)
	results := make([]*core.Result, trials)
	errs := make([]error, trials)
	workers := runtime.GOMAXPROCS(0)
	if workers > trials {
		workers = trials
	}
	var wg sync.WaitGroup
	var next atomic.Int64
	live := liveTelemetry
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			eng := engines.Get().(*sim.Engine) // goroutine-local until returned
			defer engines.Put(eng)
			wcfg := cfg
			var col *telemetry.Collector
			if live != nil {
				// Per-goroutine collector: hooks stay lock-free; the merged
				// deltas land in the shared aggregate after every trial.
				col = telemetry.NewCollector()
				wcfg.Probe = col
			}
			for {
				i := int(next.Add(1)) - 1
				if i >= trials {
					return
				}
				tcfg := wcfg
				if prep != nil {
					prep(i, &tcfg, sources[i])
				}
				results[i], errs[i] = core.RunWithSimulator(c, tcfg, sources[i], eng)
				if col != nil {
					live.Absorb(col)
				}
			}
		}()
	}
	wg.Wait()
	ts := &trialStats{}
	for i := 0; i < trials; i++ {
		if errs[i] != nil {
			return nil, errs[i]
		}
		res := results[i]
		ts.Rounds = append(ts.Rounds, float64(res.TotalRounds))
		ts.Time = append(ts.Time, float64(res.TotalTime))
		ts.Measured = append(ts.Measured, float64(res.MeasuredTime))
		if n := res.Params.N; n > 0 {
			ts.Delivered = append(ts.Delivered, float64(n-len(res.StillActive))/float64(n))
		}
		ts.FaultKills = append(ts.FaultKills, float64(res.TotalFaultKills))
		ts.Rerouted = append(ts.Rerouted, float64(res.TotalRerouted))
		if res.AllDelivered {
			ts.Completed++
		}
		ts.Params = res.Params
	}
	return ts, nil
}

func (ts *trialStats) meanRounds() float64     { return stats.Mean(ts.Rounds) }
func (ts *trialStats) meanTime() float64       { return stats.Mean(ts.Time) }
func (ts *trialStats) meanDelivered() float64  { return stats.Mean(ts.Delivered) }
func (ts *trialStats) meanFaultKills() float64 { return stats.Mean(ts.FaultKills) }
func (ts *trialStats) meanRerouted() float64   { return stats.Mean(ts.Rerouted) }

// completedStr formats "completed/trials".
func (ts *trialStats) completedStr() string {
	return fmt.Sprintf("%d/%d", ts.Completed, len(ts.Rounds))
}

// log2 of x clamped at >= 2 so the paper's log n terms stay positive.
func log2(x float64) float64 { return math.Log2(math.Max(x, 2)) }

// paperAlpha is alpha = C + B*(D/L + 1) + 2 of the main theorems.
func paperAlpha(p core.Params) float64 {
	return float64(p.PathCongestion) +
		float64(p.Bandwidth)*(float64(p.Dilation)/float64(p.Length)+1) + 2
}

// paperBeta is beta = alpha/C + 2.
func paperBeta(p core.Params) float64 {
	return paperAlpha(p)/math.Max(float64(p.PathCongestion), 1) + 2
}

// logBase returns log_base(x), clamped to be >= 0 with base > 1.
func logBase(base, x float64) float64 {
	base = math.Max(base, 2)
	x = math.Max(x, 2)
	return math.Log(x) / math.Log(base)
}

// roundBound11 is the round count T of Main Theorems 1.1/1.3:
// sqrt(log_alpha n) + log log_beta n.
func roundBound11(p core.Params) float64 {
	n := float64(p.N)
	t := math.Sqrt(logBase(paperAlpha(p), n)) + math.Log2(math.Max(logBase(paperBeta(p), n), 2))
	return math.Max(t, 1)
}

// roundBound12 is the round count of Main Theorem 1.2:
// log_alpha n + log log_beta n.
func roundBound12(p core.Params) float64 {
	n := float64(p.N)
	t := logBase(paperAlpha(p), n) + math.Log2(math.Max(logBase(paperBeta(p), n), 2))
	return math.Max(t, 1)
}

// timeBound11 is the full runtime bound of Main Theorems 1.1/1.3:
// L*C/B + T*(D + L + L*log n/B).
func timeBound11(p core.Params) float64 {
	l, b := float64(p.Length), float64(p.Bandwidth)
	return l*float64(p.PathCongestion)/b +
		roundBound11(p)*(float64(p.Dilation)+l+l*log2(float64(p.N))/b)
}

// timeBound12 is the runtime bound of Main Theorem 1.2:
// L*C/B + T*(D + L + L*log^{3/2} n/B).
func timeBound12(p core.Params) float64 {
	l, b := float64(p.Length), float64(p.Bandwidth)
	logn := log2(float64(p.N))
	return l*float64(p.PathCongestion)/b +
		roundBound12(p)*(float64(p.Dilation)+l+l*math.Pow(logn, 1.5)/b)
}
