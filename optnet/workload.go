package optnet

import (
	"fmt"

	"repro/internal/workload"
)

// Open-loop traffic: seeded arrival processes (Poisson, bursty on/off,
// diurnal, heavy-tailed fan-in bursts) composed per cohort with source
// and destination distributions, materialized into a versioned Trace.
// A trace replays byte-identically (ReplayTrace) and its canonical
// encoding content-addresses it, so the same workload — generated here
// or decoded from disk — shares one daemon job key. The closed batch
// workloads of the paper live in Workload; TrafficSpec covers the
// continuous-operation axis.

// TrafficSpec re-exports the open-loop workload specification.
type TrafficSpec = workload.Spec

// TrafficCohort re-exports one traffic class of a spec.
type TrafficCohort = workload.Cohort

// TrafficArrivals re-exports a cohort's arrival-process parameters.
type TrafficArrivals = workload.ArrivalSpec

// TrafficDist re-exports a source/destination node distribution.
type TrafficDist = workload.Dist

// TrafficPeriod re-exports one diurnal rate component.
type TrafficPeriod = workload.Period

// Trace re-exports the materialized, replayable arrival list.
type Trace = workload.Trace

// TraceStats re-exports the trace summary used by inspection tooling.
type TraceStats = workload.Stats

// Arrival-process and distribution kinds for TrafficArrivals.Kind and
// TrafficDist.Kind.
const (
	// ArrivalPoisson is a homogeneous Poisson process.
	ArrivalPoisson = workload.KindPoisson
	// ArrivalOnOff is a bursty two-state modulated Poisson process.
	ArrivalOnOff = workload.KindOnOff
	// ArrivalDiurnal is a multi-period day/week load shape.
	ArrivalDiurnal = workload.KindDiurnal
	// ArrivalBursts is a heavy-tailed fan-in hotspot process.
	ArrivalBursts = workload.KindBursts
	// TrafficUniform draws nodes uniformly.
	TrafficUniform = workload.DistUniform
	// TrafficZipf draws from a Zipf-weighted hotspot set.
	TrafficZipf = workload.DistZipf
	// TrafficBitReverse pairs sources with their bit-reversed index.
	TrafficBitReverse = workload.DistBitReverse
	// TrafficTranspose pairs sources with their half-bit-swapped index.
	TrafficTranspose = workload.DistTranspose
)

// GenerateTrace materializes the spec into a trace. Equal specs (after
// normalization) generate byte-identical traces.
func GenerateTrace(s TrafficSpec) (*Trace, error) {
	tr, err := s.Generate()
	if err != nil {
		return nil, fmt.Errorf("optnet: %w", err)
	}
	return tr, nil
}

// DecodeTrace parses a trace from its versioned encoding (see
// Trace.Encode), rejecting corrupted, truncated, or version-bumped
// inputs with an error.
func DecodeTrace(data []byte) (*Trace, error) {
	tr, err := workload.Decode(data)
	if err != nil {
		return nil, fmt.Errorf("optnet: %w", err)
	}
	return tr, nil
}

// ReplayTrace runs the network in continuous operation against a
// trace's arrivals (see RouteDynamic). The trace must be drawn over
// exactly the network's node count. Equal traces and params replay to
// identical results.
func ReplayTrace(n *Network, tr *Trace, p DynamicParams) (*DynamicResult, error) {
	if err := tr.Validate(); err != nil {
		return nil, fmt.Errorf("optnet: %w", err)
	}
	if nn := n.Graph().NumNodes(); tr.Nodes != nn {
		return nil, fmt.Errorf("optnet: trace drawn over %d nodes, network has %d", tr.Nodes, nn)
	}
	reqs, err := tr.Requests(n.Graph(), n.selector, p.WormLength)
	if err != nil {
		return nil, fmt.Errorf("optnet: %w", err)
	}
	return runDynamic(n, reqs, p)
}
