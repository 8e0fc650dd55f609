package cluster

import (
	"encoding/json"
	"testing"
	"time"

	"repro/internal/jobs"
	"repro/internal/sim"
	"repro/internal/testutil"
)

// ckptView mirrors the jobs checkpoint record's progress field.
type ckptView struct {
	Done int `json:"done"`
}

// TestClusterKillNodeMidSweep is the crash-recovery integration test —
// and the CI cluster-smoke scenario: three in-process nodes, a sweep
// submitted to a NON-owner (exercising forwarding), the owner
// hard-stopped after at least one checkpoint replicated, and the
// re-submitted job resuming on a survivor from the replicated
// checkpoint. It proves three things:
//
//  1. the final Result is byte-identical to a single-node reference run;
//  2. no completed trial is recomputed or lost — the survivor executes
//     exactly the unfinished suffix [k, total), where k is the replicated
//     checkpoint's progress at takeover; the witness is its telemetry
//     Runs counter, compared against a single-node run of the k-trial
//     prefix (trials are deterministic, so the prefix cost is exact);
//  3. the finished result replicates onward, so the OTHER survivor
//     answers the same submit as a pure cache hit.
//
// Work stealing is disabled so the trial accounting is exact; the
// differential steal test covers stealing separately.
func TestClusterKillNodeMidSweep(t *testing.T) {
	testutil.VerifyNoLeaks(t)
	nodes := startCluster(t, []string{"a", "b", "c"}, func(c *Config) {
		c.StealInterval = -1
		c.Replicas = 2 // every record reaches both other nodes
	})
	// ~3.4ms per trial: the sweep runs for a few hundred milliseconds, so
	// the kill lands mid-way even though checkpoint replication (large
	// per-trial telemetry snapshots) lags the sweep.
	spec := sweepSpec(23, 96, 32)
	key, err := spec.Key()
	if err != nil {
		t.Fatal(err)
	}
	total := spec.Route.Trials
	ref, _, err := (&jobs.Executor{}).Run(spec, sim.NewEngine(), nil, nil)
	if err != nil {
		t.Fatal(err)
	}

	owner, rest := ownerOf(t, nodes, key)
	s1, s2 := rest[0], rest[1]
	t.Logf("owner=%s survivors=%s,%s", owner.name, s1.name, s2.name)

	// Submit through a non-owner: the spec forwards to the owner.
	if _, err := s1.client().Submit(spec, 0); err != nil {
		t.Fatal(err)
	}
	if _, err := owner.sched.Status(key); err != nil {
		t.Fatalf("owner never received the forwarded job: %v", err)
	}

	// Wait until the survivor holds a replicated checkpoint with real
	// progress, then hard-stop the owner mid-sweep.
	waitFor(t, 10*time.Second, func() bool {
		var ck ckptView
		ok, err := s1.store.GetJSON("ckpt/"+key, &ck)
		return err == nil && ok && ck.Done >= 2
	}, "replicated checkpoint on survivor")
	owner.kill(t, key)
	// Close cancels a push still in flight on the owner's side, but the
	// survivor may already hold the request and apply it after the kill.
	// Cutting the survivor off from peer writes waits for such a request
	// and refuses any later one, so the checkpoint read below is the one
	// the resumed sweep starts from.
	s1.in.cut()

	// The replicated progress at takeover: trials [0, k) must never run
	// again.
	var ck ckptView
	ok, err := s1.store.GetJSON("ckpt/"+key, &ck)
	if err != nil || !ok {
		t.Fatalf("survivor checkpoint vanished: ok=%v err=%v", ok, err)
	}
	k := ck.Done
	if k <= 0 || k >= total {
		t.Fatalf("checkpoint progress %d of %d: the kill missed the mid-sweep window", k, total)
	}
	runsBefore := s1.live.Snapshot().Runs
	// Runs counts protocol rounds, not trials, and rounds per trial vary;
	// a single-node run of the k-trial prefix gives the exact Runs cost
	// of the trials the survivor must NOT repeat.
	prefix := spec
	pr := *prefix.Route
	pr.Trials = k
	prefix.Route = &pr
	refPrefix, _, err := (&jobs.Executor{}).Run(prefix, sim.NewEngine(), nil, nil)
	if err != nil {
		t.Fatal(err)
	}

	// Re-submit to the survivor. Forwarding to the dead owner fails and
	// degrades to local execution, which resumes from the replicated
	// checkpoint.
	if _, err := s1.client().Submit(spec, 0); err != nil {
		t.Fatalf("re-submit to survivor: %v", err)
	}
	res, err := s1.client().Result(key)
	if err != nil {
		t.Fatal(err)
	}

	refJSON, err := json.Marshal(ref)
	if err != nil {
		t.Fatal(err)
	}
	gotJSON, err := json.Marshal(res)
	if err != nil {
		t.Fatal(err)
	}
	if string(refJSON) != string(gotJSON) {
		t.Fatalf("resumed result differs from single-node reference:\nref: %.400s\ngot: %.400s", refJSON, gotJSON)
	}

	// No completed trial recomputed or lost: the survivor's simulation
	// work equals the full sweep minus the checkpointed prefix, exactly.
	executed := s1.live.Snapshot().Runs - runsBefore
	want := ref.Telemetry.Runs - refPrefix.Telemetry.Runs
	if executed != want {
		t.Fatalf("survivor ran %d protocol rounds, want exactly %d (full %d - prefix(%d trials) %d)",
			executed, want, ref.Telemetry.Runs, k, refPrefix.Telemetry.Runs)
	}
	if m := s1.node.Metrics(); m.ForwardFallbacks == 0 {
		t.Fatalf("survivor should have fallen back from the dead owner: %+v", m)
	}

	// The finished result replicates to the other survivor, which then
	// answers the same submit as a pure cache hit.
	var hit jobs.JobStatus
	waitFor(t, 10*time.Second, func() bool {
		st, err := s2.client().Submit(spec, 0)
		if err != nil {
			return false
		}
		hit = st
		return st.State == jobs.StateDone && st.FromCache
	}, "cache hit on second survivor")
	if hit.Key != key {
		t.Fatalf("cache hit for wrong key: %+v", hit)
	}
}

// waitFor polls cond until it holds or the deadline passes.
func waitFor(t *testing.T, timeout time.Duration, cond func() bool, what string) {
	t.Helper()
	deadline := time.Now().Add(timeout)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(time.Millisecond)
	}
	t.Fatalf("timed out waiting for %s", what)
}
