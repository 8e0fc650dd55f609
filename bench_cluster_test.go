package repro

// Cluster benchmarks: the two distributed hot paths. A forwarded submit
// pays one proxy hop to the owner plus the owner's cache hit; a stolen
// sweep pays the full distributed execution — lease, remote trials,
// snapshot merge — end to end. TestEmitBenchCluster writes both as
// BENCH_cluster.json for trend tracking, mirroring BENCH_serve.json.

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"os"
	"sync"
	"testing"
	"time"

	"repro/internal/cluster"
	"repro/internal/jobs"
	"repro/internal/telemetry"
)

// benchLateHandler lets an httptest server start before the node behind
// it exists (peer URLs are needed to construct the nodes).
type benchLateHandler struct {
	mu sync.RWMutex
	h  http.Handler //optlint:guardedby mu
}

// set installs the real handler.
func (l *benchLateHandler) set(h http.Handler) {
	l.mu.Lock()
	l.h = h
	l.mu.Unlock()
}

// ServeHTTP delegates to the installed handler.
func (l *benchLateHandler) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	l.mu.RLock()
	h := l.h
	l.mu.RUnlock()
	if h == nil {
		http.Error(w, "node not ready", http.StatusServiceUnavailable)
		return
	}
	h.ServeHTTP(w, r)
}

// benchClusterNode is one in-process member of a benchmark cluster.
type benchClusterNode struct {
	name  string
	srv   *httptest.Server
	node  *cluster.Node
	sched *jobs.Scheduler
	store *jobs.Store
}

// startBenchCluster boots a two-node in-process cluster. Replication is
// on (defaults); tweak adjusts each node's config before construction.
func startBenchCluster(b *testing.B, tweak func(*cluster.Config)) []*benchClusterNode {
	b.Helper()
	names := []string{"a", "b"}
	handlers := make([]*benchLateHandler, len(names))
	nodes := make([]*benchClusterNode, len(names))
	var peers []cluster.Peer
	for i, name := range names {
		handlers[i] = &benchLateHandler{}
		srv := httptest.NewServer(handlers[i])
		nodes[i] = &benchClusterNode{name: name, srv: srv}
		peers = append(peers, cluster.Peer{Name: name, URL: srv.URL})
	}
	for i, name := range names {
		store, err := jobs.Open(b.TempDir())
		if err != nil {
			b.Fatal(err)
		}
		live := telemetry.NewLive()
		exec := &jobs.Executor{Store: store, Live: live}
		cfg := cluster.Config{Self: name, Peers: peers, Now: time.Now}
		if tweak != nil {
			tweak(&cfg)
		}
		node, err := cluster.New(cfg)
		if err != nil {
			b.Fatal(err)
		}
		node.Wire(exec)
		sched := jobs.NewScheduler(exec, jobs.Options{Workers: 1, QueueSize: 64})
		node.Start(sched, live)
		handlers[i].set(node.Handler())
		nodes[i].store, nodes[i].node, nodes[i].sched = store, node, sched
	}
	b.Cleanup(func() {
		for _, n := range nodes {
			n.srv.Close()
			n.node.Close()
			n.sched.Close()
			if err := n.store.Close(); err != nil {
				b.Errorf("closing %s store: %v", n.name, err)
			}
		}
	})
	return nodes
}

// clusterBenchSpec is the benchmark job: a permutation sweep on a 2-D
// torus, sized so a sweep outlives at least a few thief polls.
func clusterBenchSpec(seed uint64, trials, side int) jobs.Spec {
	return jobs.Spec{Route: &jobs.RouteSpec{
		Network:  jobs.NetworkSpec{Kind: "torus", Dims: 2, Side: side},
		Workload: jobs.WorkloadSpec{Kind: "permutation"},
		Protocol: jobs.ProtocolSpec{Bandwidth: 2, Length: 4},
		Seed:     seed,
		Trials:   trials,
	}}
}

// BenchmarkForwardedSubmit measures serving an already-computed job
// through the wrong node: one proxy hop to the rendezvous owner, whose
// answer is a store hit. The steady-state cost of clients that do not
// know the ownership map.
func BenchmarkForwardedSubmit(b *testing.B) {
	nodes := startBenchCluster(b, func(c *cluster.Config) {
		c.StealInterval = -1 // pure forwarding, no stealing
	})
	// Find a spec owned by node b so a submit to node a must forward.
	var spec jobs.Spec
	var key string
	for seed := uint64(1); ; seed++ {
		spec = clusterBenchSpec(seed, 2, 4)
		k, err := spec.Key()
		if err != nil {
			b.Fatal(err)
		}
		peers := []cluster.Peer{{Name: nodes[0].name, URL: nodes[0].srv.URL}, {Name: nodes[1].name, URL: nodes[1].srv.URL}}
		if o, ok := cluster.Owner(peers, k); ok && o.Name == nodes[1].name {
			key = k
			break
		}
	}
	client := &jobs.Client{BaseURL: nodes[0].srv.URL}
	if _, err := client.Submit(spec, 0); err != nil {
		b.Fatal(err)
	}
	if _, err := client.Result(key); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		st, err := client.Submit(spec, 0)
		if err != nil {
			b.Fatal(err)
		}
		if st.State != jobs.StateDone {
			b.Fatalf("forwarded submit state %s, want done", st.State)
		}
	}
}

// BenchmarkClusterStealThroughput measures a distributed sweep end to
// end: submit to one node, the peer steals trial batches, the owner
// folds and serves the result. Each iteration uses a distinct seed so
// nothing is ever cached.
func BenchmarkClusterStealThroughput(b *testing.B) {
	nodes := startBenchCluster(b, func(c *cluster.Config) {
		c.StealInterval = time.Millisecond
		c.StealBatch = 4
	})
	client := &jobs.Client{BaseURL: nodes[0].srv.URL}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		coldSweep(b, client, clusterBenchSpec(uint64(i)+1, 32, 16))
	}
}

// BenchmarkClusterStealDecision decides trial-granular stealing with a
// number: one cold 32-trial sweep on a 32² torus per iteration, on two
// nodes with one worker each, with stealing on (StealInterval 1 ms,
// StealBatch 4) and off (StealInterval -1). The bar, fixed in advance:
// stealing stays if steal=on is at least 1.3x faster than steal=off by
// medians and faster in 9 of 10 alternating pairs, each pair two runs of
//
//	go test -run '^$' -bench 'BenchmarkClusterStealDecision/steal=on$' -benchtime 10x .
//
// and the same with steal=off.
func BenchmarkClusterStealDecision(b *testing.B) {
	for _, tc := range []struct {
		name  string
		tweak func(*cluster.Config)
	}{
		{"steal=on", func(c *cluster.Config) { c.StealInterval, c.StealBatch = time.Millisecond, 4 }},
		{"steal=off", func(c *cluster.Config) { c.StealInterval = -1 }},
	} {
		b.Run(tc.name, func(b *testing.B) {
			client := &jobs.Client{BaseURL: startBenchCluster(b, tc.tweak)[0].srv.URL}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				coldSweep(b, client, clusterBenchSpec(uint64(i)+1, 32, 32))
			}
		})
	}
}

// coldSweep submits a route sweep the cluster has not seen and waits for
// its result, which must hold every trial.
func coldSweep(b *testing.B, client *jobs.Client, spec jobs.Spec) {
	key, err := spec.Key()
	if err != nil {
		b.Fatal(err)
	}
	if _, err := client.Submit(spec, 0); err != nil {
		b.Fatal(err)
	}
	res, err := client.Result(key)
	if err != nil {
		b.Fatal(err)
	}
	if len(res.Trials) != spec.Route.Trials {
		b.Fatalf("result has %d trials, want %d", len(res.Trials), spec.Route.Trials)
	}
}

// TestEmitBenchCluster writes BENCH_cluster.json with the distributed
// hot-path numbers. Run explicitly:
//
//	BENCH_CLUSTER_JSON=BENCH_cluster.json go test -run TestEmitBenchCluster .
func TestEmitBenchCluster(t *testing.T) {
	path := os.Getenv("BENCH_CLUSTER_JSON")
	if path == "" {
		t.Skip("set BENCH_CLUSTER_JSON=<file> to emit the cluster benchmarks")
	}
	type point struct {
		Bench    string `json:"bench"`
		Trials   int    `json:"trials"`
		NsPerOp  int64  `json:"ns_per_op"`
		AllocsOp int64  `json:"allocs_per_op"`
		BytesOp  int64  `json:"bytes_per_op"`
	}
	var points []point
	for _, bench := range []struct {
		name   string
		trials int
		fn     func(*testing.B)
	}{
		{"BenchmarkForwardedSubmit", 2, BenchmarkForwardedSubmit},
		{"BenchmarkClusterStealThroughput", 32, BenchmarkClusterStealThroughput},
	} {
		r := testing.Benchmark(bench.fn)
		points = append(points, point{
			Bench:    bench.name,
			Trials:   bench.trials,
			NsPerOp:  r.NsPerOp(),
			AllocsOp: r.AllocsPerOp(),
			BytesOp:  r.AllocedBytesPerOp(),
		})
	}
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	enc := json.NewEncoder(f)
	enc.SetIndent("", "  ")
	if err := enc.Encode(points); err != nil {
		t.Fatal(err)
	}
	t.Logf("wrote %d points to %s", len(points), path)
}
