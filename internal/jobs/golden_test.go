package jobs

import (
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/faults"
	"repro/internal/sim"
)

// The digests below pin the bytes the store writes: the canonical
// encoding of each record kind and the segment files of a fixed job
// sequence. The other byte-identity tests compare one encoder's output
// with itself, so a reordered or renamed field would pass them; these do
// not. A drift here changes what every deployed store holds. Do not
// update casually.
const (
	goldenRouteResultSHA   = "b454a5ba25343229e3f0a0d299043390ceb0744aba192e4330e0418db6423f9b"
	goldenCheckpointSHA    = "002d71dcda499496fd5e27da9d1a63118449300c8e2b0ce00c862ef0f954bdad"
	goldenDynamicResultSHA = "85196432bb0e05f4ad761ae0f6e2b9c20746a7c850252175376f2c6c8c29e35b"
	goldenSegmentsSHA      = "21c76a9f0b4514ad88038e04052ba08cea44bcda39e02572fe23fd3c93960dc8"
)

// goldenRouteSpec is a contended, degraded route sweep: one wavelength,
// three-flit worms, acknowledgements, and a fault plan, so the pinned
// telemetry holds collisions, fault kills and reroutes.
func goldenRouteSpec(trials int) Spec {
	return Spec{Route: &RouteSpec{
		Network:  NetworkSpec{Kind: "torus", Dims: 2, Side: 5},
		Workload: WorkloadSpec{Kind: "function"},
		Protocol: ProtocolSpec{Bandwidth: 1, Length: 3, AckLength: 1},
		Faults: &faults.Plan{Faults: []faults.Fault{
			{Kind: faults.LinkOutage, Link: 0, Start: 0, End: 200},
			{Kind: faults.AckLoss, Link: 3, Start: 0, End: 150},
		}},
		Seed:   7,
		Trials: trials,
	}}
}

// sha256Hex is the hex SHA-256 of b.
func sha256Hex(b []byte) string {
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}

// TestGoldenRouteResultBytes pins a route Result's canonical bytes,
// telemetry snapshot included.
func TestGoldenRouteResultBytes(t *testing.T) {
	res, _, err := (&Executor{}).Run(goldenRouteSpec(4), sim.NewEngine(), nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if got := sha256Hex(resultBytes(t, res)); got != goldenRouteResultSHA {
		t.Errorf("route result bytes drifted: sha256 %s, want %s", got, goldenRouteResultSHA)
	}
}

// TestGoldenCheckpointBytes pins the stored checkpoint of a route sweep
// stopped after two of its four trials.
func TestGoldenCheckpointBytes(t *testing.T) {
	store, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer store.Close()
	spec := goldenRouteSpec(4)
	done := 0
	_, _, err = (&Executor{Store: store}).Run(spec, sim.NewEngine(),
		func(d, total int) { done = d }, func() bool { return done >= 2 })
	if !errors.Is(err, ErrCanceled) {
		t.Fatalf("want ErrCanceled, got %v", err)
	}
	raw, ok := store.Get(checkpointKey(mustKey(t, spec)))
	if !ok {
		t.Fatal("checkpoint missing after cancel")
	}
	if got := sha256Hex(raw); got != goldenCheckpointSHA {
		t.Errorf("checkpoint bytes drifted: sha256 %s, want %s", got, goldenCheckpointSHA)
	}
}

// TestGoldenDynamicResultBytes pins a dynamic trace-replay Result's
// canonical bytes.
func TestGoldenDynamicResultBytes(t *testing.T) {
	res, _, err := (&Executor{}).Run(testDynamicSpec(t, 9, 2), sim.NewEngine(), nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if got := sha256Hex(resultBytes(t, res)); got != goldenDynamicResultSHA {
		t.Errorf("dynamic result bytes drifted: sha256 %s, want %s", got, goldenDynamicResultSHA)
	}
}

// TestGoldenSegmentBytes pins the segment files a fresh store holds after
// a fixed sequence of jobs: a route sweep, a dynamic replay, and a route
// sweep canceled after one trial and then resumed. Small segments force
// rolls, so the record framing across files is pinned too.
func TestGoldenSegmentBytes(t *testing.T) {
	dir := t.TempDir()
	store, err := OpenWithSegmentBytes(dir, 16<<10)
	if err != nil {
		t.Fatal(err)
	}
	exec := &Executor{Store: store}
	eng := sim.NewEngine()
	for _, spec := range []Spec{goldenRouteSpec(4), testDynamicSpec(t, 9, 2)} {
		if _, _, err := exec.Run(spec, eng, nil, nil); err != nil {
			t.Fatal(err)
		}
	}
	resumed := testSpec(8, 3)
	done := 0
	_, _, err = exec.Run(resumed, eng, func(d, total int) { done = d }, func() bool { return done >= 1 })
	if !errors.Is(err, ErrCanceled) {
		t.Fatalf("want ErrCanceled, got %v", err)
	}
	if _, _, err := exec.Run(resumed, eng, nil, nil); err != nil {
		t.Fatal(err)
	}
	if err := store.Close(); err != nil {
		t.Fatal(err)
	}
	names, err := segmentNames(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(names) < 2 {
		t.Fatalf("want several segments, got %v", names)
	}
	h := sha256.New()
	for _, name := range names {
		b, err := os.ReadFile(filepath.Join(dir, name))
		if err != nil {
			t.Fatal(err)
		}
		h.Write([]byte(name + "\n"))
		h.Write(b)
	}
	if got := hex.EncodeToString(h.Sum(nil)); got != goldenSegmentsSHA {
		t.Errorf("segment bytes drifted over %d segments: sha256 %s, want %s", len(names), got, goldenSegmentsSHA)
	}
}
