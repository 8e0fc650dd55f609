package jobs

import (
	"fmt"
	"testing"

	"repro/internal/canon"
	"repro/internal/sim"
	"repro/internal/telemetry"
)

// sweepBenchSpec is serve-mixed's cold sweep: an 8-trial torus
// permutation with B=4, L=8 and one-flit acknowledgements.
func sweepBenchSpec(side int, seed uint64) Spec {
	return Spec{Route: &RouteSpec{
		Network:  NetworkSpec{Kind: "torus", Dims: 2, Side: side},
		Workload: WorkloadSpec{Kind: "permutation"},
		Protocol: ProtocolSpec{Bandwidth: 4, Length: 8, AckLength: 1},
		Seed:     seed,
		Trials:   8,
	}}
}

// BenchmarkColdSweep runs cold sweeps through Executor.Run on a fresh
// store and without one; the difference is what recording the sweep
// costs (a checkpoint per trial, then the result).
//
//	go test -run '^$' -bench BenchmarkColdSweep -benchtime 20x ./internal/jobs
func BenchmarkColdSweep(b *testing.B) {
	for _, side := range []int{16, 32} {
		for _, withStore := range []bool{true, false} {
			b.Run(fmt.Sprintf("side=%d/store=%v", side, withStore), func(b *testing.B) {
				eng := sim.NewEngine()
				for i := 0; i < b.N; i++ {
					b.StopTimer()
					exec := &Executor{Live: telemetry.NewLive()}
					if withStore {
						store, err := Open(b.TempDir())
						if err != nil {
							b.Fatal(err)
						}
						exec.Store = store
					}
					b.StartTimer()
					if _, _, err := exec.Run(sweepBenchSpec(side, uint64(i)), eng, nil, nil); err != nil {
						b.Fatal(err)
					}
					b.StopTimer()
					if exec.Store != nil {
						if err := exec.Store.Close(); err != nil {
							b.Fatal(err)
						}
					}
					b.StartTimer()
				}
			})
		}
	}
}

// BenchmarkCanonResult encodes the Result of a 16² cold sweep, the
// largest value serve-mixed stores.
func BenchmarkCanonResult(b *testing.B) {
	res, _, err := (&Executor{}).Run(sweepBenchSpec(16, 1), sim.NewEngine(), nil, nil)
	if err != nil {
		b.Fatal(err)
	}
	raw, err := canon.Marshal(res)
	if err != nil {
		b.Fatal(err)
	}
	b.SetBytes(int64(len(raw)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := canon.Marshal(res); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkDecodeResult decodes the canonical bytes of that Result as a
// cache hit does: decodeResult, behind Client.Result and
// Scheduler.Result.
//
//	go test -run '^$' -bench BenchmarkDecodeResult -benchmem ./internal/jobs
func BenchmarkDecodeResult(b *testing.B) {
	res, _, err := (&Executor{}).Run(sweepBenchSpec(16, 1), sim.NewEngine(), nil, nil)
	if err != nil {
		b.Fatal(err)
	}
	raw, err := canon.Marshal(res)
	if err != nil {
		b.Fatal(err)
	}
	b.SetBytes(int64(len(raw)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := decodeResult(raw); err != nil {
			b.Fatal(err)
		}
	}
}
