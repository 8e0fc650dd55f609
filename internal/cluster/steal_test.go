package cluster

import (
	"encoding/json"
	"testing"
	"time"

	"repro/internal/jobs"
	"repro/internal/sim"
	"repro/internal/testutil"
)

// TestDistributedSweepByteIdentical is the differential test for work
// stealing: a sweep executed across two nodes — the owner folding while
// an idle peer steals trial batches — must produce a Result (summaries,
// aggregate, and telemetry snapshot) byte-identical to a single-node
// run of the same spec. Trials are relocatable because their rng
// streams are pre-split from the master seed; the fold is exact because
// the owner folds outcomes strictly in trial order through
// telemetry.Collector.AddSnapshot, which is lossless for JSON-round-tripped
// snapshots.
func TestDistributedSweepByteIdentical(t *testing.T) {
	testutil.VerifyNoLeaks(t)
	nodes := startCluster(t, []string{"a", "b"}, func(c *Config) {
		c.StealInterval = time.Millisecond
		c.StealBatch = 4
	})
	// ~0.6ms per trial: the sweep runs for tens of milliseconds, so the
	// 1ms thief poll gets many chances to lease batches.
	spec := sweepSpec(11, 64, 16)
	key, err := spec.Key()
	if err != nil {
		t.Fatal(err)
	}
	// Single-node reference, computed before the cluster touches the
	// spec: a bare executor with no store and no peers.
	ref, _, err := (&jobs.Executor{}).Run(spec, sim.NewEngine(), nil, nil)
	if err != nil {
		t.Fatal(err)
	}

	owner, rest := ownerOf(t, nodes, key)
	thief := rest[0]
	if _, err := owner.client().Submit(spec, 0); err != nil {
		t.Fatal(err)
	}
	res, err := owner.client().Result(key)
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
		t.Fatalf("distributed result differs from single-node run:\nref: %.400s\ngot: %.400s", refJSON, gotJSON)
	}
	snapRef, err := json.Marshal(ref.Telemetry)
	if err != nil {
		t.Fatal(err)
	}
	snapGot, err := json.Marshal(res.Telemetry)
	if err != nil {
		t.Fatal(err)
	}
	if string(snapRef) != string(snapGot) {
		t.Fatal("distributed telemetry snapshot differs from single-node run")
	}

	// The run must actually have been distributed: the thief executed
	// trials the owner leased out.
	if m := thief.node.Metrics(); m.TrialsStolen == 0 {
		t.Fatalf("thief stole no trials; the differential proved nothing: %+v", m)
	}
	if m := owner.node.Metrics(); m.TrialsLeased == 0 {
		t.Fatalf("owner leased no trials: %+v", m)
	}
}

// TestStealSessionLeaseExpiry pins lease reclaim: trials granted to a
// thief that never returns flow back to the owner's ClaimLocal after
// the TTL.
func TestStealSessionLeaseExpiry(t *testing.T) {
	clock := time.Unix(1000, 0)
	n := &Node{cfg: Config{
		Self:       "a",
		Peers:      []Peer{{Name: "a", URL: "u"}, {Name: "b", URL: "u"}},
		StealBatch: 4,
		LeaseTTL:   time.Second,
		Now:        func() time.Time { return clock },
	}}
	n.others = []Peer{{Name: "b", URL: "u"}}
	n.steal = newStealCoordinator(n)
	sess := n.steal.Distribute("k", jobs.Spec{}, 0, 10)
	if sess == nil {
		t.Fatal("Distribute returned nil with an eligible sweep")
	}
	defer sess.Close()

	work, ok := n.steal.steal(StealRequest{Worker: "b", Max: 4})
	if !ok || work.From != 0 || work.To != 4 {
		t.Fatalf("lease = %+v ok=%v, want [0,4)", work, ok)
	}
	// Owner claims past the leased range.
	if i, ok := sess.ClaimLocal(); !ok || i != 4 {
		t.Fatalf("ClaimLocal = %d,%v, want 4", i, ok)
	}
	// Clock passes the TTL: the leased trials come back, lowest first,
	// before any new range.
	clock = clock.Add(2 * time.Second)
	for want := 0; want < 4; want++ {
		i, ok := sess.ClaimLocal()
		if !ok || i != want {
			t.Fatalf("after expiry ClaimLocal = %d,%v, want %d", i, ok, want)
		}
	}
	if i, ok := sess.ClaimLocal(); !ok || i != 5 {
		t.Fatalf("ClaimLocal after reclaim = %d,%v, want 5", i, ok)
	}
	// A completion for the expired lease is refused or folded without
	// harm: the session no longer tracks it, but outcomes are routed by
	// trial index anyway, so duplicates are benign.
	err := n.steal.complete(StealComplete{Key: "k", Lease: work.Lease, Worker: "b"})
	if err != nil {
		t.Logf("late completion rejected: %v (acceptable)", err)
	}
}

// TestDistributeDeclinesSmallSweeps pins the cost gate: sweeps that fit
// in one steal batch run sequentially.
func TestDistributeDeclinesSmallSweeps(t *testing.T) {
	n := &Node{cfg: Config{Self: "a", StealBatch: 8}}
	n.others = []Peer{{Name: "b", URL: "u"}}
	n.steal = newStealCoordinator(n)
	if sess := n.steal.Distribute("k", jobs.Spec{}, 0, 8); sess != nil {
		sess.Close()
		t.Fatal("distributed a sweep no larger than one batch")
	}
	if sess := n.steal.Distribute("k", jobs.Spec{}, 92, 100); sess != nil {
		sess.Close()
		t.Fatal("distributed a near-finished resume no larger than one batch")
	}
}
