package jobs

import (
	"bytes"
	"encoding/json"
	"errors"
	"reflect"
	"strings"
	"testing"

	"repro/internal/canon"
	"repro/internal/sim"
	"repro/internal/telemetry"
	"repro/internal/workload"
)

// testTrace generates the fixture workload used by the dynamic job
// tests: two cohorts on 16 nodes, matching a 2-dim side-4 torus.
func testTrace(t testing.TB) *workload.Trace {
	t.Helper()
	tr, err := workload.Spec{
		Nodes:   16,
		Horizon: 120,
		Seed:    77,
		Cohorts: []workload.Cohort{
			{Name: "base", Arrivals: workload.ArrivalSpec{Kind: workload.KindPoisson, Rate: 0.4}},
			{
				Name:         "bursty",
				Arrivals:     workload.ArrivalSpec{Kind: workload.KindOnOff, Rate: 1},
				Destinations: workload.Dist{Kind: workload.DistZipf, Spots: 3},
			},
		},
	}.Generate()
	if err != nil {
		t.Fatalf("Generate: %v", err)
	}
	return tr
}

// testDynamicSpec wraps the fixture trace in a dynamic job spec.
func testDynamicSpec(t testing.TB, seed uint64, trials int) Spec {
	t.Helper()
	return Spec{Dynamic: &DynamicSpec{
		Network: NetworkSpec{Kind: "torus", Dims: 2, Side: 4},
		Trace:   testTrace(t),
		Protocol: DynamicProtocolSpec{
			Bandwidth: 2,
			Length:    3,
			AckLength: 1,
		},
		Seed:   seed,
		Trials: trials,
	}}
}

// goldenDynamicKey pins the content address of the fixture dynamic job.
// It covers the whole chain: workload generation, trace canonical form,
// and the dynamic spec's normalization. A drift means the content-address
// contract changed and every stored dynamic result is invalidated —
// deliberate changes must repin (and bump workload.TraceVersion when the
// trace payload itself changed).
const goldenDynamicKey = "635e567bdeb0a07b1d86315761559d1ad9f8e5cec72ad31bf0448570bd62cb9c"

func TestDynamicJobGoldenKey(t *testing.T) {
	key := mustKey(t, testDynamicSpec(t, 9, 2))
	if key != goldenDynamicKey {
		t.Fatalf("dynamic job key drifted:\n  got  %s\n  want %s", key, goldenDynamicKey)
	}
}

// TestDynamicKeyContentAddressed: independently generated but identical
// workloads share one job key; any parameter change produces a fresh one.
func TestDynamicKeyContentAddressed(t *testing.T) {
	base := mustKey(t, testDynamicSpec(t, 9, 2))
	if again := mustKey(t, testDynamicSpec(t, 9, 2)); again != base {
		t.Fatalf("regenerated identical workload changed the key: %s vs %s", again, base)
	}

	// An encode/decode round trip preserves the key too.
	spec := testDynamicSpec(t, 9, 2)
	enc, err := spec.Dynamic.Trace.Encode()
	if err != nil {
		t.Fatal(err)
	}
	dec, err := workload.Decode(enc)
	if err != nil {
		t.Fatal(err)
	}
	spec.Dynamic.Trace = dec
	if k := mustKey(t, spec); k != base {
		t.Fatalf("decoded trace changed the job key: %s vs %s", k, base)
	}

	mutations := map[string]func(*DynamicSpec){
		"seed":      func(d *DynamicSpec) { d.Seed++ },
		"trials":    func(d *DynamicSpec) { d.Trials++ },
		"bandwidth": func(d *DynamicSpec) { d.Protocol.Bandwidth++ },
		"trace":     func(d *DynamicSpec) { d.Trace.Arrivals = d.Trace.Arrivals[:len(d.Trace.Arrivals)-1] },
	}
	names := make([]string, 0, len(mutations))
	for name := range mutations {
		names = append(names, name)
	}
	for _, name := range names {
		s := testDynamicSpec(t, 9, 2)
		mutations[name](s.Dynamic)
		if k := mustKey(t, s); k == base {
			t.Errorf("mutating %s did not change the job key", name)
		}
	}
}

// TestDynamicReplayByteIdentical is the acceptance gate: a fixed-seed
// generated workload, its encoded-then-decoded trace, and an optnetd
// trace-job execution all produce byte-identical DynamicResults and
// telemetry snapshots.
func TestDynamicReplayByteIdentical(t *testing.T) {
	spec := testDynamicSpec(t, 5, 1).Normalized()
	d := spec.Dynamic

	run := func(tr *workload.Trace) (*sim.DynamicResult, []byte) {
		s := *d
		s.Trace = tr
		setup, err := s.setup()
		if err != nil {
			t.Fatal(err)
		}
		col := telemetry.NewCollector()
		cfg := setup.cfg
		cfg.Sim.Probe = col
		res, err := sim.NewEngine().RunDynamic(setup.g, setup.reqs, cfg, setup.trialSrcs[0])
		if err != nil {
			t.Fatal(err)
		}
		snap, err := canon.Marshal(col.Snapshot())
		if err != nil {
			t.Fatal(err)
		}
		return res, snap
	}

	genRes, genSnap := run(testTrace(t))

	enc, err := testTrace(t).Encode()
	if err != nil {
		t.Fatal(err)
	}
	dec, err := workload.Decode(enc)
	if err != nil {
		t.Fatal(err)
	}
	decRes, decSnap := run(dec)
	if !reflect.DeepEqual(genRes, decRes) {
		t.Fatal("decoded trace replayed to a different DynamicResult")
	}
	if !bytes.Equal(genSnap, decSnap) {
		t.Fatal("decoded trace replayed to a different telemetry snapshot")
	}

	// The job path: its single trial must summarize exactly this run, and
	// its telemetry snapshot must fold to the same bytes.
	store, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer store.Close()
	exec := &Executor{Store: store}
	jobRes, fromCache, err := exec.Run(spec, sim.NewEngine(), nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if fromCache {
		t.Fatal("first run claimed a cache hit")
	}
	if len(jobRes.DynamicTrials) != 1 {
		t.Fatalf("trial count %d", len(jobRes.DynamicTrials))
	}
	s := jobRes.DynamicTrials[0]
	wantDelivered, wantGaveUp, wantLatency, wantMax := 0, 0, 0, 0
	for _, o := range genRes.Outcomes {
		if o.Delivered {
			wantDelivered++
			wantLatency += o.Latency
			if o.Latency > wantMax {
				wantMax = o.Latency
			}
		}
		if o.GaveUp {
			wantGaveUp++
		}
	}
	want := DynamicTrialSummary{
		Trial:      0,
		Requests:   len(genRes.Outcomes),
		Delivered:  wantDelivered,
		GaveUp:     wantGaveUp,
		Attempts:   genRes.TotalAttempts,
		Makespan:   genRes.Makespan,
		FaultKills: genRes.FaultKills,
		LatencySum: wantLatency,
		LatencyMax: wantMax,
	}
	if s != want {
		t.Fatalf("job trial summary %+v\nwant %+v", s, want)
	}
	jobSnap, err := canon.Marshal(jobRes.Telemetry)
	if err != nil {
		t.Fatal(err)
	}
	// The job folds its collector snapshot into an empty-geometry
	// Snapshot, which is exact; the folded bytes must match the direct
	// collector's.
	var folded telemetry.Snapshot
	var direct telemetry.Snapshot
	if err := json.Unmarshal(jobSnap, &folded); err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(genSnap, &direct); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(folded, direct) {
		t.Fatalf("job telemetry differs from direct run:\n job   %s\n direct %s", jobSnap, genSnap)
	}

	// Resubmitting the (independently re-generated) identical workload is
	// a store cache hit with identical bytes.
	second, fromCache, err := exec.Run(testDynamicSpec(t, 5, 1), sim.NewEngine(), nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !fromCache {
		t.Fatal("identical regenerated workload missed the cache")
	}
	if !bytes.Equal(resultBytes(t, jobRes), resultBytes(t, second)) {
		t.Fatal("cached dynamic result differs")
	}
}

// TestDynamicRunResumeByteIdentical: a dynamic sweep killed at every
// trial boundary resumes from its checkpoint to a Result byte-identical
// to an uninterrupted run.
func TestDynamicRunResumeByteIdentical(t *testing.T) {
	const trials = 3
	spec := testDynamicSpec(t, 21, trials)

	refStore, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer refStore.Close()
	ref, _, err := (&Executor{Store: refStore}).Run(spec, sim.NewEngine(), nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	refBytes := resultBytes(t, ref)
	if ref.DynamicAggregate.Trials != trials || ref.DynamicAggregate.Delivered == 0 {
		t.Fatalf("fixture aggregate looks degenerate: %+v", ref.DynamicAggregate)
	}

	for kill := 1; kill < trials; kill++ {
		dir := t.TempDir()
		store, err := Open(dir)
		if err != nil {
			t.Fatal(err)
		}
		done := 0
		_, _, err = (&Executor{Store: store}).Run(spec, sim.NewEngine(),
			func(d, total int) { done = d },
			func() bool { return done >= kill })
		if !errors.Is(err, ErrCanceled) {
			t.Fatalf("kill=%d: want ErrCanceled, got %v", kill, err)
		}
		var ck checkpoint
		if ok, err := store.GetJSON(checkpointKey(mustKey(t, spec)), &ck); err != nil || !ok {
			t.Fatalf("kill=%d: checkpoint missing: %v", kill, err)
		}
		if ck.Done != kill || len(ck.DynamicTrials) != kill {
			t.Fatalf("kill=%d: checkpoint at %d trials (%d summaries)", kill, ck.Done, len(ck.DynamicTrials))
		}

		// Reopen the store as a restarted daemon would, then resume.
		store.Close()
		store, err = Open(dir)
		if err != nil {
			t.Fatal(err)
		}
		resumed, fromCache, err := (&Executor{Store: store}).Run(spec, sim.NewEngine(), nil, nil)
		if err != nil {
			t.Fatalf("kill=%d: resume: %v", kill, err)
		}
		if fromCache {
			t.Fatalf("kill=%d: resume claimed a cache hit", kill)
		}
		if got := resultBytes(t, resumed); !bytes.Equal(got, refBytes) {
			t.Errorf("kill=%d: resumed result differs from uninterrupted run", kill)
		}
		store.Close()
	}
}

func TestDynamicSpecValidation(t *testing.T) {
	cases := map[string]func(*Spec){
		"butterfly network": func(s *Spec) { s.Dynamic.Network = NetworkSpec{Kind: "butterfly", Dim: 3} },
		"missing trace":     func(s *Spec) { s.Dynamic.Trace = nil },
		"invalid trace":     func(s *Spec) { s.Dynamic.Trace.Arrivals[0].Src = -1 },
		"two job kinds":     func(s *Spec) { s.Experiment = &ExperimentSpec{ID: "A1"} },
		"bad rule":          func(s *Spec) { s.Dynamic.Protocol.Rule = "lifo" },
		"bad backoff":       func(s *Spec) { s.Dynamic.Protocol.Backoff = "quadratic" },
		"huge trials":       func(s *Spec) { s.Dynamic.Trials = 20000 },
	}
	names := make([]string, 0, len(cases))
	for name := range cases {
		names = append(names, name)
	}
	for _, name := range names {
		s := testDynamicSpec(t, 1, 1)
		cases[name](&s)
		if err := s.Validate(); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}

	// A node-count mismatch is refused by validation with a diagnosable
	// message, so a submission gets it before the job is keyed or queued.
	s := testDynamicSpec(t, 1, 1)
	s.Dynamic.Network = NetworkSpec{Kind: "torus", Dims: 2, Side: 5}
	if err := s.Validate(); err == nil || !strings.Contains(err.Error(), "trace spans 16 nodes but the torus network has 25") {
		t.Fatalf("node-count mismatch not refused: %v", err)
	}
	if _, _, err := (&Executor{}).Run(s, sim.NewEngine(), nil, nil); err == nil {
		t.Fatal("Run accepted a node-count mismatch")
	}
}
