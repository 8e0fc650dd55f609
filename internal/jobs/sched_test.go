package jobs

import (
	"bytes"
	"encoding/json"
	"errors"
	"sync"
	"testing"
	"time"
	"unsafe"

	"repro/internal/sim"
	"repro/internal/telemetry"
	"repro/internal/testutil"
)

// newTestScheduler builds a scheduler over a temp store with the given
// options, registering cleanup.
func newTestScheduler(t *testing.T, opts Options) *Scheduler {
	t.Helper()
	// Registered before the store/scheduler cleanups, so it runs after
	// them (LIFO) and verifies every worker goroutine actually exited.
	testutil.VerifyNoLeaks(t)
	store, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { store.Close() })
	s := NewScheduler(&Executor{Store: store}, opts)
	t.Cleanup(s.Close)
	return s
}

// waitDone blocks until the job settles or the test times out.
func waitDone(t *testing.T, s *Scheduler, key string) JobStatus {
	t.Helper()
	done, err := s.Done(key)
	if err != nil {
		t.Fatal(err)
	}
	select {
	case <-done:
	case <-time.After(30 * time.Second):
		t.Fatalf("job %s never settled", key)
	}
	st, err := s.Status(key)
	if err != nil {
		t.Fatal(err)
	}
	return st
}

// TestSchedulerCacheHit: the second submission of an identical job is
// served from the store as an immediately-done job. The fresh job and the
// store hit both report every trial of the sweep done, for route and
// dynamic sweeps alike.
func TestSchedulerCacheHit(t *testing.T) {
	for _, tc := range []struct {
		name   string
		spec   Spec
		trials int
	}{
		{"route", testSpec(21, 2), 2},
		{"dynamic", testDynamicSpec(t, 21, 3), 3},
	} {
		t.Run(tc.name, func(t *testing.T) {
			s := newTestScheduler(t, Options{})
			st, err := s.Submit(tc.spec, 0)
			if err != nil {
				t.Fatal(err)
			}
			first := waitDone(t, s, st.Key)
			if first.State != StateDone || first.FromCache {
				t.Fatalf("first submission: %+v", first)
			}

			// Re-submit after forgetting the job record: only the store can
			// answer now.
			s.mu.Lock()
			delete(s.jobs, st.Key)
			s.mu.Unlock()
			again, err := s.Submit(tc.spec, 0)
			if err != nil {
				t.Fatal(err)
			}
			if again.State != StateDone || !again.FromCache {
				t.Fatalf("resubmission not served from store: %+v", again)
			}
			for _, st := range []JobStatus{first, again} {
				if st.DoneTrials != tc.trials || st.TotalTrials != tc.trials {
					t.Errorf("from cache %v: progress %d/%d, want %d/%d",
						st.FromCache, st.DoneTrials, st.TotalTrials, tc.trials, tc.trials)
				}
			}
			m := s.Metrics()
			if m.CacheHits != 1 || m.CacheMisses != 1 {
				t.Errorf("metrics hits=%d misses=%d, want 1/1", m.CacheHits, m.CacheMisses)
			}
			if m.CacheHitRatio != 0.5 {
				t.Errorf("hit ratio %v, want 0.5", m.CacheHitRatio)
			}
		})
	}
}

// TestSubmitDoneJobSkipsStore: a repeat submit of a finished job joins it
// through the singleflight map before the store is probed, so it costs
// about what keying the spec costs — it does not decode the stored
// result and throw it away.
func TestSubmitDoneJobSkipsStore(t *testing.T) {
	s := newTestScheduler(t, Options{})
	spec := testSpec(23, 2)
	st, err := s.Submit(spec, 0)
	if err != nil {
		t.Fatal(err)
	}
	if st := waitDone(t, s, st.Key); st.State != StateDone {
		t.Fatalf("job did not finish: %+v", st)
	}
	if _, ok := s.exec.Store.Get(resultKey(st.Key)); !ok {
		t.Fatal("finished job's result is not stored")
	}
	key := testing.AllocsPerRun(20, func() {
		if _, err := spec.Key(); err != nil {
			t.Fatal(err)
		}
	})
	submit := testing.AllocsPerRun(20, func() {
		if st, err := s.Submit(spec, 0); err != nil || st.State != StateDone {
			t.Fatalf("repeat submit: %+v, %v", st, err)
		}
	})
	t.Logf("repeat submit of a done job: %v allocs; keying alone: %v", submit, key)
	if submit > key+2 {
		t.Errorf("repeat submit of a done job allocates %v times, keying alone %v", submit, key)
	}
}

// TestSubmitStoreHitSkipsDecode: a submit answered from the store keeps
// the stored bytes as they are, so a hit on a 16² sweep's result (about
// 6.6 KB of JSON) costs about what keying the spec costs, not a decode.
func TestSubmitStoreHitSkipsDecode(t *testing.T) {
	s := newTestScheduler(t, Options{})
	spec := sweepBenchSpec(16, 1)
	st, err := s.Submit(spec, 0)
	if err != nil {
		t.Fatal(err)
	}
	if st := waitDone(t, s, st.Key); st.State != StateDone {
		t.Fatalf("job did not finish: %+v", st)
	}
	key := testing.AllocsPerRun(20, func() {
		if _, err := spec.Key(); err != nil {
			t.Fatal(err)
		}
	})
	hit := testing.AllocsPerRun(20, func() {
		s.mu.Lock()
		delete(s.jobs, st.Key) // only the store can answer
		s.mu.Unlock()
		if st, err := s.Submit(spec, 0); err != nil || !st.FromCache {
			t.Fatalf("store-hit submit: %+v, %v", st, err)
		}
	})
	t.Logf("store-hit submit of a 16² sweep: %v allocs; keying alone: %v", hit, key)
	if hit > key+8 {
		t.Errorf("store-hit submit allocates %v times, keying alone %v", hit, key)
	}
}

// TestSchedulerSingleflight: concurrent submissions of one job share a
// single execution.
func TestSchedulerSingleflight(t *testing.T) {
	s := newTestScheduler(t, Options{Workers: 2})
	spec := testSpec(33, 3)
	var wg sync.WaitGroup
	keys := make([]string, 8)
	for i := range keys {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			st, err := s.Submit(spec, 0)
			if err != nil {
				t.Errorf("submit %d: %v", i, err)
				return
			}
			keys[i] = st.Key
		}(i)
	}
	wg.Wait()
	for _, k := range keys[1:] {
		if k != keys[0] {
			t.Fatalf("keys diverged: %v", keys)
		}
	}
	waitDone(t, s, keys[0])
	m := s.Metrics()
	if m.CacheHits+m.CacheMisses != 1 {
		t.Errorf("%d executions for 8 identical submissions", m.CacheHits+m.CacheMisses)
	}
}

// TestSchedulerBackpressure: a full queue rejects with ErrBusy and the
// configured retry hint.
func TestSchedulerBackpressure(t *testing.T) {
	// No workers draining: occupy the single worker with a slow job
	// first, then fill the queue.
	s := newTestScheduler(t, Options{Workers: 1, QueueSize: 2, RetryAfter: 7 * time.Second})
	if got := s.RetryAfter(); got != 7*time.Second {
		t.Errorf("RetryAfter = %v", got)
	}
	slow := testSpec(999, 10000)
	st, err := s.Submit(slow, 0)
	if err != nil {
		t.Fatal(err)
	}
	// Wait for the worker to take it so the queue is truly empty.
	for {
		cur, err := s.Status(st.Key)
		if err != nil {
			t.Fatal(err)
		}
		if cur.State == StateRunning {
			break
		}
		time.Sleep(time.Millisecond)
	}
	if _, err := s.Submit(testSpec(1000, 1), 0); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Submit(testSpec(1001, 1), 0); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Submit(testSpec(1002, 1), 0); !errors.Is(err, ErrBusy) {
		t.Fatalf("overfull queue: want ErrBusy, got %v", err)
	}
	if err := s.Cancel(st.Key); err != nil {
		t.Fatal(err)
	}
	if st := waitDone(t, s, st.Key); st.State != StateCanceled {
		t.Errorf("slow job state %s after cancel", st.State)
	}
}

// TestSchedulerPriority: higher priority queued jobs run first; equal
// priorities run FIFO.
func TestSchedulerPriority(t *testing.T) {
	s := newTestScheduler(t, Options{Workers: 1, QueueSize: 16})
	// Block the worker.
	blocker, err := s.Submit(testSpec(500, 10000), 0)
	if err != nil {
		t.Fatal(err)
	}
	for {
		cur, _ := s.Status(blocker.Key)
		if cur.State == StateRunning {
			break
		}
		time.Sleep(time.Millisecond)
	}
	low, err := s.Submit(testSpec(501, 1), 1)
	if err != nil {
		t.Fatal(err)
	}
	high, err := s.Submit(testSpec(502, 1), 5)
	if err != nil {
		t.Fatal(err)
	}
	// Pop order is deterministic under the scheduler mutex.
	s.mu.Lock()
	if s.queue[0].key != high.Key {
		t.Errorf("queue head %s, want high-priority %s", s.queue[0].key, high.Key)
	}
	s.mu.Unlock()
	if err := s.Cancel(blocker.Key); err != nil {
		t.Fatal(err)
	}
	waitDone(t, s, low.Key)
	waitDone(t, s, high.Key)
}

// TestSchedulerCancelQueued: canceling a queued job removes it without
// running it.
func TestSchedulerCancelQueued(t *testing.T) {
	s := newTestScheduler(t, Options{Workers: 1, QueueSize: 8})
	blocker, err := s.Submit(testSpec(600, 10000), 0)
	if err != nil {
		t.Fatal(err)
	}
	for {
		cur, _ := s.Status(blocker.Key)
		if cur.State == StateRunning {
			break
		}
		time.Sleep(time.Millisecond)
	}
	queued, err := s.Submit(testSpec(601, 1), 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Cancel(queued.Key); err != nil {
		t.Fatal(err)
	}
	if st := waitDone(t, s, queued.Key); st.State != StateCanceled {
		t.Errorf("queued job state %s after cancel", st.State)
	}
	if _, _, err := s.Result(queued.Key); !errors.Is(err, ErrCanceled) {
		t.Errorf("Result of canceled job: %v", err)
	}
	// A canceled job is replaceable: resubmitting runs it.
	if err := s.Cancel(blocker.Key); err != nil {
		t.Fatal(err)
	}
	waitDone(t, s, blocker.Key)
	again, err := s.Submit(testSpec(601, 1), 0)
	if err != nil {
		t.Fatal(err)
	}
	if st := waitDone(t, s, again.Key); st.State != StateDone {
		t.Errorf("resubmitted job state %s", st.State)
	}
}

// TestSchedulerCancelRunningResumes: canceling a running sweep keeps its
// checkpoint; resubmission resumes rather than restarting.
func TestSchedulerCancelRunningResumes(t *testing.T) {
	store, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer store.Close()
	s := NewScheduler(&Executor{Store: store}, Options{Workers: 1})
	defer s.Close()

	spec := testSpec(77, 300)
	st, err := s.Submit(spec, 0)
	if err != nil {
		t.Fatal(err)
	}
	// Let it make some progress, then cancel.
	for {
		cur, _ := s.Status(st.Key)
		if cur.DoneTrials >= 3 {
			break
		}
		time.Sleep(time.Millisecond)
	}
	if err := s.Cancel(st.Key); err != nil {
		t.Fatal(err)
	}
	final := waitDone(t, s, st.Key)
	if final.State != StateCanceled {
		t.Fatalf("state %s after cancel", final.State)
	}
	var ck checkpoint
	if ok, err := store.GetJSON(checkpointKey(st.Key), &ck); err != nil || !ok {
		t.Fatalf("checkpoint missing after running cancel: %v", err)
	}
	if ck.Done < 3 {
		t.Errorf("checkpoint at %d trials, expected >= 3", ck.Done)
	}

	// Resubmit; the sweep resumes and completes.
	again, err := s.Submit(spec, 0)
	if err != nil {
		t.Fatal(err)
	}
	if done := waitDone(t, s, again.Key); done.State != StateDone {
		t.Fatalf("resumed job state %s (%s)", done.State, done.Error)
	}
	res, _, err := s.Result(again.Key)
	if err != nil || res == nil {
		t.Fatalf("no result after resume: %v", err)
	}
	if len(res.Trials) != 300 {
		t.Errorf("resumed result has %d trials", len(res.Trials))
	}
}

// TestSchedulerUnknownJob: lookups on unseen keys fail cleanly.
func TestSchedulerUnknownJob(t *testing.T) {
	s := newTestScheduler(t, Options{})
	if _, err := s.Status("nope"); !errors.Is(err, ErrUnknownJob) {
		t.Errorf("Status: %v", err)
	}
	if _, _, err := s.Result("nope"); !errors.Is(err, ErrUnknownJob) {
		t.Errorf("Result: %v", err)
	}
	if _, err := s.Done("nope"); !errors.Is(err, ErrUnknownJob) {
		t.Errorf("Done: %v", err)
	}
	if err := s.Cancel("nope"); !errors.Is(err, ErrUnknownJob) {
		t.Errorf("Cancel: %v", err)
	}
	if _, err := s.Submit(Spec{}, 0); err == nil {
		t.Error("invalid spec accepted")
	}
}

// TestWorkerEngineZeroAlloc pins the acceptance criterion "per-worker
// engines stay allocation-free with the jobs layer attached": an engine
// warmed by a full job run through Executor.Run (collector probe and
// all) still performs zero allocations per simulated round on that
// job's own workload. The jobs layer may allocate around the simulator
// (summaries, snapshots, JSON); the engine hot path must not.
func TestWorkerEngineZeroAlloc(t *testing.T) {
	spec := testSpec(3, 2).Normalized()
	setup, err := spec.Route.setup()
	if err != nil {
		t.Fatal(err)
	}
	eng := sim.NewEngine()
	// Warm the engine exactly as a worker does: one complete job.
	if _, _, err := (&Executor{}).Run(spec, eng, nil, nil); err != nil {
		t.Fatal(err)
	}
	// Steady state on the job's workload, probe attached as in runRoute.
	g := setup.col.Graph()
	col := telemetry.NewCollector()
	worms := make([]sim.Worm, setup.col.Size())
	for i := range worms {
		worms[i] = sim.Worm{
			Route: setup.col.Route(i), Length: setup.cfg.Length,
			Delay: i % 4, Wavelength: i % setup.cfg.Bandwidth,
		}
	}
	simCfg := sim.Config{
		Bandwidth: setup.cfg.Bandwidth,
		AckLength: setup.cfg.AckLength,
		Probe:     col,
	}
	if _, err := eng.Run(g, worms, simCfg); err != nil { // warm the collector
		t.Fatal(err)
	}
	avg := testing.AllocsPerRun(50, func() {
		if _, err := eng.Run(g, worms, simCfg); err != nil {
			t.Fatal(err)
		}
	})
	if avg != 0 {
		t.Errorf("worker engine allocates %v times per round after jobs-layer warmup, want 0", avg)
	}
}

// TestJobsKeepOneCopy: a finished job holds the one copy of its result
// the store holds. With a store, a fresh job and a read-repair hit serve
// the very bytes the store's index holds (the same backing array, so Put
// is the only encoding); without one, a fresh job serves canon's
// encoding, the same bytes. A job drops its spec once it has run, and a
// cached hit never holds one.
func TestJobsKeepOneCopy(t *testing.T) {
	testutil.VerifyNoLeaks(t)
	spec := testDynamicSpec(t, 9, 2)
	key := mustKey(t, spec)
	run := func(exec *Executor, wantHit bool) json.RawMessage {
		t.Helper()
		s := NewScheduler(exec, Options{})
		defer s.Close()
		if _, err := s.Submit(spec, 0); err != nil {
			t.Fatal(err)
		}
		if st := waitDone(t, s, key); st.State != StateDone || st.FromCache != wantHit {
			t.Fatalf("%+v, want done with from_cache %v", st, wantHit)
		}
		raw, _, err := s.ResultJSON(key)
		if err != nil {
			t.Fatal(err)
		}
		s.mu.Lock()
		if j := s.jobs[key]; j.spec != (Spec{}) {
			t.Errorf("finished job (from_cache %v) still holds its spec", wantHit)
		}
		s.mu.Unlock()
		if exec.Store != nil {
			if stored, _ := exec.Store.Get(ResultKey(key)); unsafe.SliceData(raw) != unsafe.SliceData(stored) {
				t.Errorf("from_cache %v: the job serves a copy of the stored result, not the store's bytes", wantHit)
			}
		}
		return raw
	}
	open := func() *Store {
		store, err := Open(t.TempDir())
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { store.Close() })
		return store
	}
	origin := open()
	fresh := run(&Executor{Store: origin}, false)
	run(&Executor{Store: origin}, true)
	lookup := func(storeKey string) (json.RawMessage, bool) { return origin.Get(storeKey) }
	if repaired := run(&Executor{Store: open(), Lookup: lookup}, true); !bytes.Equal(repaired, fresh) {
		t.Errorf("read-repair hit served %d bytes, the fresh job %d", len(repaired), len(fresh))
	}
	plain := run(&Executor{}, false)
	res, err := decodeResult(plain)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(plain, fresh) || !bytes.Equal(plain, resultBytes(t, res)) {
		t.Errorf("without a store the job served %d bytes, with one %d", len(plain), len(fresh))
	}
}
