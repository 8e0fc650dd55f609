package jobs

import (
	"bytes"
	"encoding/json"
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"repro/internal/canon"
	"repro/internal/sim"
	"repro/internal/telemetry"
)

// resultBytes canonically encodes a result for byte-level comparison.
func resultBytes(t *testing.T, r *Result) []byte {
	t.Helper()
	b, err := canon.Marshal(r)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// TestRunCacheHit: the second identical submission is answered from the
// store without re-simulation.
func TestRunCacheHit(t *testing.T) {
	store, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer store.Close()
	exec := &Executor{Store: store}
	eng := sim.NewEngine()
	spec := testSpec(42, 3)

	first, fromCache, err := exec.Run(spec, eng, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if fromCache {
		t.Fatal("first run claimed a cache hit")
	}
	second, fromCache, err := exec.Run(spec, eng, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !fromCache {
		t.Fatal("second identical run did not hit the cache")
	}
	if !bytes.Equal(resultBytes(t, first), resultBytes(t, second)) {
		t.Error("cached result differs from computed result")
	}
	// A cache hit must not re-simulate: poison the engine check by
	// asserting the third run with a nil engine still succeeds.
	third, fromCache, err := exec.Run(spec, nil, nil, nil)
	if err != nil || !fromCache {
		t.Fatalf("cached run touched the simulator: fromCache=%v err=%v", fromCache, err)
	}
	if !bytes.Equal(resultBytes(t, first), resultBytes(t, third)) {
		t.Error("cache round trip changed the result")
	}

	// A daemon that ran sharded simulations (-shards 4, since removed)
	// stored its telemetry with two extra counters. Such a record must
	// still load and be served from the cache; the counters are dropped.
	var rec map[string]json.RawMessage
	if err := json.Unmarshal(resultBytes(t, first), &rec); err != nil {
		t.Fatal(err)
	}
	var tel map[string]json.RawMessage
	if err := json.Unmarshal(rec["telemetry"], &tel); err != nil {
		t.Fatal(err)
	}
	tel["boundary_handoffs"], tel["boundary_words"] = json.RawMessage("1234"), json.RawMessage("56")
	if rec["telemetry"], err = canon.Marshal(tel); err != nil {
		t.Fatal(err)
	}
	sharded, err := canon.Marshal(rec)
	if err != nil {
		t.Fatal(err)
	}
	key, err := spec.Key()
	if err != nil {
		t.Fatal(err)
	}
	old, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer old.Close()
	if err := old.PutRaw(ResultKey(key), sharded); err != nil {
		t.Fatal(err)
	}
	fourth, fromCache, err := (&Executor{Store: old}).Run(spec, nil, nil, nil)
	if err != nil || !fromCache {
		t.Fatalf("sharded-era record not served from cache: fromCache=%v err=%v", fromCache, err)
	}
	if !bytes.Equal(resultBytes(t, first), resultBytes(t, fourth)) {
		t.Error("sharded-era record loaded as a different result")
	}
}

// TestRunResumeByteIdentical is the PR's core promise: a sweep killed at
// every possible trial boundary resumes from its checkpoint to a final
// Result — aggregate AND telemetry snapshot — byte-identical to an
// uninterrupted run.
func TestRunResumeByteIdentical(t *testing.T) {
	const trials = 4
	spec := testSpec(1234, trials)

	// Uninterrupted reference run (its own store, no interference).
	refStore, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer refStore.Close()
	refExec := &Executor{Store: refStore}
	ref, _, err := refExec.Run(spec, sim.NewEngine(), nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	refBytes := resultBytes(t, ref)

	for kill := 1; kill < trials; kill++ {
		store, err := Open(t.TempDir())
		if err != nil {
			t.Fatal(err)
		}
		exec := &Executor{Store: store}
		// "Crash" after `kill` trials: cancel fires once the progress
		// callback reports kill completed trials.
		done := 0
		canceled := func() bool { return done >= kill }
		progress := func(d, total int) { done = d }
		_, _, err = exec.Run(spec, sim.NewEngine(), progress, canceled)
		if !errors.Is(err, ErrCanceled) {
			t.Fatalf("kill=%d: want ErrCanceled, got %v", kill, err)
		}
		var ck checkpoint
		if ok, err := store.GetJSON(checkpointKey(mustKey(t, spec)), &ck); err != nil || !ok {
			t.Fatalf("kill=%d: checkpoint missing after cancel: %v", kill, err)
		}
		if ck.Done != kill {
			t.Fatalf("kill=%d: checkpoint at %d trials", kill, ck.Done)
		}

		// Resume on a FRESH executor and engine — as a restarted process
		// would — and compare bytes.
		resumed, fromCache, err := (&Executor{Store: store}).Run(spec, sim.NewEngine(), nil, nil)
		if err != nil {
			t.Fatalf("kill=%d: resume: %v", kill, err)
		}
		if fromCache {
			t.Fatalf("kill=%d: resume claimed a cache hit", kill)
		}
		if got := resultBytes(t, resumed); !bytes.Equal(got, refBytes) {
			t.Errorf("kill=%d: resumed result differs from uninterrupted run:\n got %s\nwant %s", kill, got, refBytes)
		}
		// The checkpoint is cleaned up after completion.
		if _, ok := store.Get(checkpointKey(mustKey(t, spec))); ok {
			t.Errorf("kill=%d: checkpoint not tombstoned after completion", kill)
		}
		store.Close()
	}
}

// TestRunResumeSurvivesProcessRestart: same differential, but the store
// is closed and reopened between the kill and the resume, and the
// checkpoint segment is truncated mid-record first — the resume then
// falls back to an earlier checkpoint (or a fresh run) and must still
// match.
func TestRunResumeAcrossReopenWithTornTail(t *testing.T) {
	const trials = 3
	spec := testSpec(777, trials)
	dir := t.TempDir()

	ref, _, err := (&Executor{}).Run(spec, sim.NewEngine(), nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	refBytes := resultBytes(t, ref)

	store, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	done := 0
	_, _, err = (&Executor{Store: store}).Run(spec, sim.NewEngine(),
		func(d, total int) { done = d }, func() bool { return done >= 2 })
	if !errors.Is(err, ErrCanceled) {
		t.Fatalf("want ErrCanceled, got %v", err)
	}
	store.Close()

	// Tear the last appended record (the trial-2 checkpoint).
	segs, err := segmentNames(dir)
	if err != nil || len(segs) == 0 {
		t.Fatalf("segments: %v %v", segs, err)
	}
	path := filepath.Join(dir, segs[len(segs)-1])
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, b[:len(b)-7], 0o644); err != nil {
		t.Fatal(err)
	}

	reopened, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer reopened.Close()
	resumed, _, err := (&Executor{Store: reopened}).Run(spec, sim.NewEngine(), nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if got := resultBytes(t, resumed); !bytes.Equal(got, refBytes) {
		t.Errorf("resume after torn checkpoint differs:\n got %s\nwant %s", got, refBytes)
	}
}

// TestRunLiveTelemetry: trials feed the live aggregate; the result's
// folded snapshot agrees with it (same single job, nothing else absorbed).
func TestRunLiveTelemetry(t *testing.T) {
	live := telemetry.NewLive()
	exec := &Executor{Live: live}
	res, _, err := exec.Run(testSpec(5, 2), sim.NewEngine(), nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.Telemetry == nil || res.Telemetry.Runs == 0 {
		t.Fatal("no telemetry folded into the result")
	}
	ls := live.Snapshot()
	if ls.Runs != res.Telemetry.Runs || ls.Steps != res.Telemetry.Steps {
		t.Errorf("live aggregate (%d runs, %d steps) disagrees with folded (%d, %d)",
			ls.Runs, ls.Steps, res.Telemetry.Runs, res.Telemetry.Steps)
	}
}

// TestRunExperimentDelegation: experiment jobs run through the injected
// runner and memoize its table and text.
func TestRunExperimentDelegation(t *testing.T) {
	store, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer store.Close()
	calls := 0
	exec := &Executor{
		Store: store,
		Experiments: func(id string, seed uint64, trials int, quick bool) (json.RawMessage, string, error) {
			calls++
			return json.RawMessage(`{"id":"` + id + `"}`), "table text\n", nil
		},
	}
	spec := Spec{Experiment: &ExperimentSpec{ID: "A4", Seed: 9, Trials: 2, Quick: true}}
	first, fromCache, err := exec.Run(spec, nil, nil, nil)
	if err != nil || fromCache {
		t.Fatalf("first experiment run: fromCache=%v err=%v", fromCache, err)
	}
	if string(first.Table) != `{"id":"A4"}` || first.Text != "table text\n" {
		t.Errorf("runner output not carried: %s / %q", first.Table, first.Text)
	}
	second, fromCache, err := exec.Run(spec, nil, nil, nil)
	if err != nil || !fromCache {
		t.Fatalf("second experiment run: fromCache=%v err=%v", fromCache, err)
	}
	if calls != 1 {
		t.Errorf("runner called %d times, want 1 (second must be a cache hit)", calls)
	}
	if string(second.Table) != string(first.Table) || second.Text != first.Text {
		t.Error("cached experiment differs")
	}
	// No runner configured -> a clear error.
	if _, _, err := (&Executor{}).Run(spec, nil, nil, nil); err == nil {
		t.Error("experiment without runner must fail")
	}
}

// TestRunExperimentReplayByteIdentical: a runner's indented table (as
// Table.WriteJSON prints it, HTML characters included) is stored in one
// form, so the fresh Result, a hit in the same process and a hit after a
// reopen encode to the same canonical bytes.
func TestRunExperimentReplayByteIdentical(t *testing.T) {
	dir := t.TempDir()
	runner := func(id string, seed uint64, trials int, quick bool) (json.RawMessage, string, error) {
		table := "{\n  \"id\": \"" + id + "\",\n  \"notes\": [\n    \"depth >= t\"\n  ],\n  \"columns\": [\n    \"T&F\",\n    \"a<b\"\n  ]\n}\n"
		return json.RawMessage(table), "depth >= t\n", nil
	}
	spec := Spec{Experiment: &ExperimentSpec{ID: "F5", Seed: 1, Quick: true}}
	run := func() []byte {
		t.Helper()
		store, err := Open(dir)
		if err != nil {
			t.Fatal(err)
		}
		defer store.Close()
		res, _, err := (&Executor{Store: store, Experiments: runner}).Run(spec, nil, nil, nil)
		if err != nil {
			t.Fatal(err)
		}
		hit, fromCache, err := (&Executor{Store: store}).Run(spec, nil, nil, nil)
		if err != nil || !fromCache {
			t.Fatalf("same-process hit: fromCache=%v err=%v", fromCache, err)
		}
		if a, b := resultBytes(t, res), resultBytes(t, hit); !bytes.Equal(a, b) {
			t.Fatalf("hit differs from its source:\n got %s\nwant %s", b, a)
		}
		return resultBytes(t, res)
	}
	fresh := run()
	if !bytes.Contains(fresh, []byte(`"table":{"id":"F5","notes":["depth >= t"],"columns":["T&F","a<b"]}`)) {
		t.Errorf("table not stored compact and unescaped: %s", fresh)
	}
	if reopened := run(); !bytes.Equal(reopened, fresh) {
		t.Errorf("hit after reopen differs from the fresh result:\n got %s\nwant %s", reopened, fresh)
	}
}

// FuzzResultJSONRoundTrip checks canon against encoding/json on the type
// the result route serves: on any input canon.Unmarshal and json.Unmarshal
// agree on the error and the Result; any input encoding/json decodes into
// a Result has a canonical encoding b, and decoding b as a client does
// (decode, then reload) gives a value canon encodes to b again. Seeds are
// route, dynamic and experiment results, canonical and as encoding/json
// writes them; the experiment's table holds HTML characters.
func FuzzResultJSONRoundTrip(f *testing.F) {
	runner := func(id string, seed uint64, trials int, quick bool) (json.RawMessage, string, error) {
		return json.RawMessage(`{"id":"` + id + `","notes":["depth >= t"],"columns":["T&F","a<b"],"rows":[[1.5,-0.25,3e-9]]}`), "T&F <b>\n", nil
	}
	for _, spec := range []Spec{
		testSpec(5, 2),
		testDynamicSpec(f, 5, 2),
		{Experiment: &ExperimentSpec{ID: "F5", Seed: 1, Quick: true}},
	} {
		res, _, err := (&Executor{Experiments: runner}).Run(spec, sim.NewEngine(), nil, nil)
		if err != nil {
			f.Fatal(err)
		}
		for _, marshal := range []func(any) ([]byte, error){canon.Marshal, json.Marshal} {
			b, err := marshal(res)
			if err != nil {
				f.Fatal(err)
			}
			f.Add(b)
		}
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		var res, fast Result
		jsonErr := json.Unmarshal(data, &res)
		if err := canon.Unmarshal(data, &fast); (err == nil) != (jsonErr == nil) || !reflect.DeepEqual(fast, res) {
			t.Fatalf("canon.Unmarshal gives %+v, %v; json.Unmarshal %+v, %v", fast, err, res, jsonErr)
		}
		if jsonErr != nil {
			return
		}
		b, err := canon.Marshal(&res)
		if err != nil {
			t.Fatalf("canon cannot encode a decoded result: %v", err)
		}
		back, err := decodeResult(b)
		if err != nil {
			t.Fatalf("canonical bytes do not decode: %v\n%s", err, b)
		}
		again, err := canon.Marshal(back)
		if err != nil {
			t.Fatalf("canon cannot encode the round trip: %v", err)
		}
		if !bytes.Equal(again, b) {
			t.Fatalf("round trip changed the bytes:\n got %s\nwant %s", again, b)
		}
	})
}

// TestStoredFormsDecodeInOnePass: each form the store holds (a route, a
// dynamic and an experiment result, a checkpoint, a segment line)
// decodes with canon.Unmarshal to what json.Unmarshal gives, and in
// canon's one pass: with fewer allocations than encoding/json makes,
// which a fallback (a refused pass, then encoding/json) never has.
func TestStoredFormsDecodeInOnePass(t *testing.T) {
	runner := func(id string, seed uint64, trials int, quick bool) (json.RawMessage, string, error) {
		return json.RawMessage(`{"id":"` + id + `","rows":[[1.5,"T&F"]]}`), "table\n", nil
	}
	for _, spec := range []Spec{
		testSpec(5, 2),
		testDynamicSpec(t, 5, 2),
		{Experiment: &ExperimentSpec{ID: "F5", Seed: 1, Quick: true}},
	} {
		res, _, err := (&Executor{Experiments: runner}).Run(spec, sim.NewEngine(), nil, nil)
		if err != nil {
			t.Fatal(err)
		}
		b := resultBytes(t, res)
		decodesInOnePass[Result](t, b)
		if res.Telemetry != nil {
			ck, err := canon.Marshal(checkpoint{Key: res.Key, Done: len(res.Trials), Trials: res.Trials, Telemetry: res.Telemetry, DynamicTrials: res.DynamicTrials})
			if err != nil {
				t.Fatal(err)
			}
			decodesInOnePass[checkpoint](t, ck)
		}
		line, _, err := recordLine(resultKey(res.Key), func(line []byte) ([]byte, error) { return append(line, b...), nil })
		if err != nil {
			t.Fatal(err)
		}
		decodesInOnePass[storeRecord](t, bytes.TrimSuffix(line, []byte("\n")))
	}
}

// decodesInOnePass fails t unless canon.Unmarshal decodes data into a T
// as json.Unmarshal does, with fewer allocations.
func decodesInOnePass[T any](t *testing.T, data []byte) {
	t.Helper()
	var got, want T
	if err := canon.Unmarshal(data, &got); err != nil {
		t.Fatalf("canon.Unmarshal(%T): %v", got, err)
	}
	if err := json.Unmarshal(data, &want); err != nil || !reflect.DeepEqual(got, want) {
		t.Fatalf("%T: canon.Unmarshal gives %+v, json.Unmarshal %+v (%v)", got, got, want, err)
	}
	one := testing.AllocsPerRun(10, func() { _ = canon.Unmarshal(data, new(T)) })
	two := testing.AllocsPerRun(10, func() { _ = json.Unmarshal(data, new(T)) })
	if one >= two {
		t.Errorf("%T: canon.Unmarshal makes %.0f allocations, json.Unmarshal %.0f: the one pass fell back", got, one, two)
	}
}

// mustKey returns the spec key or fails the test.
func mustKey(t *testing.T, s Spec) string {
	t.Helper()
	k, err := s.Key()
	if err != nil {
		t.Fatal(err)
	}
	return k
}
