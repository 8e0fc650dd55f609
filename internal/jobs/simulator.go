package jobs

import (
	"repro/internal/graph"
	"repro/internal/rng"
	"repro/internal/sim"
)

// Simulator is the per-worker executor a Scheduler hands its jobs: the
// batch (Run) and dynamic (RunDynamic) entry points of *sim.Engine, which
// is what every worker holds. The interface exists so a caller can wrap
// an engine (the benchmark times runs through it) without the executor
// knowing.
//
// Implementations own the returned results until the next call and are
// not safe for concurrent use, matching sim.Engine; the scheduler gives
// each worker goroutine its own instance.
type Simulator interface {
	Run(g *graph.Graph, worms []sim.Worm, cfg sim.Config) (*sim.Result, error)
	RunDynamic(g *graph.Graph, reqs []sim.Request, cfg sim.DynamicConfig, src *rng.Source) (*sim.DynamicResult, error)
}
