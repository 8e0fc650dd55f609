package main

import (
	"errors"
	"fmt"
	"net"
	"net/http"
	"path/filepath"
	"sync/atomic"
	"time"

	"repro/internal/cluster"
	"repro/internal/jobs"
	"repro/internal/telemetry"
)

// clusterSize fixes cluster-steal: cold sweeps of trials on a side x side
// torus, and the traced run's sweep count (it runs on, up to ten times
// as many, until a trial has been stolen).
type clusterSize struct{ side, trials, traced int }

// clusterSizeFor returns the full or smoke size.
func clusterSizeFor(smoke bool) clusterSize {
	if smoke {
		return clusterSize{side: 8, trials: 24, traced: 2}
	}
	return clusterSize{side: 16, trials: 32, traced: 16}
}

// clusterConfig is the node configuration of cluster-steal, recorded in
// BENCHMARK.json: idle thieves poll every 5ms and lease 8 trials at a
// time, so every sweep of more than 8 trials can be stolen from. (Polling
// every 2ms for 4 trials stole about as much but spread run-to-run
// latency two to three times wider.)
func clusterConfig(self string, peers []cluster.Peer, logs *atomic.Int64, hc *http.Client) cluster.Config {
	return cluster.Config{
		Self:          self,
		Peers:         peers,
		Replicas:      1,
		MaxHops:       2,
		StealInterval: 5 * time.Millisecond,
		StealBatch:    8,
		LeaseTTL:      10 * time.Second,
		Now:           time.Now,
		HTTPClient:    hc,
		Logf:          func(string, ...any) { logs.Add(1) },
	}
}

// node is one in-process cluster member.
type node struct {
	name   string
	url    string
	store  *jobs.Store
	node   *cluster.Node
	sched  *jobs.Scheduler
	srv    *http.Server
	served chan struct{}
}

// pair is the two-node cluster of cluster-steal.
type pair struct {
	nodes []*node
	peers []cluster.Peer
	hc    *http.Client // peer traffic
	logs  atomic.Int64 // diagnostics the nodes logged
}

// startPair starts two nodes, each with its own store under dir, one
// worker and replication on, serving on loopback listeners.
func startPair(dir string) (*pair, error) {
	p := &pair{hc: &http.Client{}}
	lns := make([]net.Listener, 2)
	for i, name := range []string{"a", "b"} {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			closeListeners(lns)
			return nil, err
		}
		lns[i] = ln
		p.peers = append(p.peers, cluster.Peer{Name: name, URL: "http://" + ln.Addr().String()})
	}
	for i, peer := range p.peers {
		store, err := jobs.Open(filepath.Join(dir, peer.Name))
		if err != nil {
			closeListeners(lns[i:])
			return nil, errors.Join(err, p.close())
		}
		live := telemetry.NewLive()
		exec := &jobs.Executor{Store: store, Live: live}
		cn, err := cluster.New(clusterConfig(peer.Name, p.peers, &p.logs, p.hc))
		if err != nil {
			store.Close()
			closeListeners(lns[i:])
			return nil, errors.Join(err, p.close())
		}
		cn.Wire(exec)
		sched := jobs.NewScheduler(exec, jobs.Options{Workers: 1, QueueSize: 64, Now: time.Now})
		cn.Start(sched, live)
		n := &node{
			name: peer.Name, url: peer.URL, store: store, node: cn, sched: sched,
			srv:    &http.Server{Handler: cn.Handler()},
			served: make(chan struct{}),
		}
		go func(ln net.Listener) {
			defer close(n.served)
			_ = n.srv.Serve(ln) // returns http.ErrServerClosed on close
		}(lns[i])
		p.nodes = append(p.nodes, n)
	}
	return p, nil
}

// closeListeners closes listeners no server took over.
func closeListeners(lns []net.Listener) {
	for _, ln := range lns {
		if ln != nil {
			ln.Close()
		}
	}
}

// close stops every started node: servers first, so no peer request
// reaches a closed store, then background loops, schedulers and stores.
func (p *pair) close() error {
	var errs []error
	for _, n := range p.nodes {
		errs = append(errs, n.srv.Close())
		<-n.served
	}
	for _, n := range p.nodes {
		n.node.Close()
		n.sched.Close()
		errs = append(errs, n.store.Close())
	}
	p.hc.CloseIdleConnections()
	return errors.Join(errs...)
}

// metrics sums the nodes' cluster counters.
func (p *pair) metrics() cluster.Metrics {
	var m cluster.Metrics
	for _, n := range p.nodes {
		x := n.node.Metrics()
		m.Forwards += x.Forwards
		m.ForwardFallbacks += x.ForwardFallbacks
		m.TrialsLeased += x.TrialsLeased
		m.TrialsStolen += x.TrialsStolen
		m.ReplRecords += x.ReplRecords
		m.ReplSegments += x.ReplSegments
		m.ReplDrops += x.ReplDrops
	}
	return m
}

// clusterRequest returns sweep i's request: a cold sweep with a fresh seed.
func clusterRequest(size clusterSize, seed uint64, i int) request {
	return request{spec: sweepSpec(size.side, size.trials, seed<<24|uint64(i)), cold: true}
}

// target alternates sweeps between the key's owner (even i) and the other
// node (odd i), so half the submits are forwarded.
func (p *pair) target(q request, i int) (*node, error) {
	key, err := q.spec.Key()
	if err != nil {
		return nil, err
	}
	owner, ok := cluster.Owner(p.peers, key)
	if !ok {
		return nil, fmt.Errorf("no owner for %s", key)
	}
	for _, n := range p.nodes {
		if (n.name == owner.Name) == (i%2 == 0) {
			return n, nil
		}
	}
	return nil, fmt.Errorf("no node for %s", key)
}

// sweepLoop sends cold sweeps from one closed-loop client until stop
// reports true. around, when set, wraps each request.
func sweepLoop(p *pair, size clusterSize, seed uint64, hc *http.Client, first int, stop func(i int) bool, around func(q request, do func() (string, *jobs.Result, error)) (string, *jobs.Result, error)) []served {
	return closedLoop(1,
		func(_, i int) request { return clusterRequest(size, seed, first+i) },
		func(_, i int, q request) (string, *jobs.Result, error) {
			do := func() (string, *jobs.Result, error) {
				n, err := p.target(q, i)
				if err != nil {
					return "", nil, err
				}
				return httpRequest(&jobs.Client{BaseURL: n.url, HTTPClient: hc}, q)
			}
			if around != nil {
				return around(q, do)
			}
			return do()
		},
		func(_, i int) bool { return stop(i) })
}

// checkCluster checks served results against single-node runs and fails
// the run when no trial was stolen: then it measured a single node.
func checkCluster(r *report, p *pair, reqs []served) error {
	if err := checkServed(r, reqs); err != nil {
		return err
	}
	if p.metrics().TrialsStolen == 0 {
		r.fail("no trial was stolen in %d sweeps", len(reqs))
	}
	return nil
}

// clusterBatch is the number of sweeps in cluster-steal's fixed batch.
const clusterBatch = 10

// timedCluster is the cluster-steal timed run.
func timedCluster(cfg runConfig, r *report) error {
	size := clusterSizeFor(cfg.smoke)
	hc := newHTTPClient()
	defer hc.CloseIdleConnections()
	var p *pair
	setups := 0
	err := repeatSetup(r, func() error {
		if p != nil {
			if err := p.close(); err != nil {
				return err
			}
		}
		setups++
		var err error
		if p, err = startPair(filepath.Join(cfg.dir, fmt.Sprintf("cluster-%d", setups))); err != nil {
			return err
		}
		// Warm-up: one sweep through each node, with seeds the run never uses.
		warm := sweepLoop(p, size, cfg.seed, hc, 1<<20, func(i int) bool { return i >= 2 }, nil)
		for _, s := range warm {
			if s.err != nil {
				return fmt.Errorf("warm-up sweep: %w", s.err)
			}
		}
		return nil
	})
	if err != nil {
		return err
	}
	defer p.close()
	before := p.metrics()
	start := time.Now()
	reqs := sweepLoop(p, size, cfg.seed, hc, 0, func(int) bool { return time.Since(start) >= cfg.seconds }, nil)
	elapsed := time.Since(start).Seconds()
	after := p.metrics()

	all, _, _ := latencies(reqs)
	r.set("run_s", median(batchTimes(start, reqs, clusterBatch)), "s", len(reqs)/clusterBatch)
	r.set("ops_per_s", float64(len(all))/elapsed, "1/s", len(all))
	r.set("op_p50_s", median(all), "s", len(all))
	r.set("cold_p50_s", median(all), "s", len(all))
	r.line(tailLine("cold_p90_s", all, 0.9))
	r.line("trials_per_s %.6g 1/s (%d trials per sweep)", float64(len(all)*size.trials)/elapsed, size.trials)
	r.line("cluster: %d trials stolen of %d, %d forwards, %d forward fallbacks, %d replicated records, %d replication drops, %d node log lines",
		after.TrialsStolen-before.TrialsStolen, len(all)*size.trials, after.Forwards-before.Forwards,
		after.ForwardFallbacks-before.ForwardFallbacks, after.ReplRecords-before.ReplRecords, after.ReplDrops-before.ReplDrops, p.logs.Load())
	return checkCluster(r, p, reqs)
}

// tracedCluster runs a fixed number of sweeps with a span per request
// and reports the nodes' cluster counters.
func tracedCluster(cfg runConfig, tr *tracer, r *report) (map[string]float64, error) {
	size := clusterSizeFor(cfg.smoke)
	hc := newHTTPClient()
	defer hc.CloseIdleConnections()
	p, err := startPair(filepath.Join(cfg.dir, "cluster-trace"))
	if err != nil {
		return nil, err
	}
	defer p.close()
	enough := func(i int) bool {
		return i >= 10*size.traced || i >= size.traced && p.metrics().TrialsStolen > 0
	}
	reqs := sweepLoop(p, size, cfg.seed, hc, 0, enough,
		func(q request, do func() (string, *jobs.Result, error)) (string, *jobs.Result, error) {
			sp := tr.begin("cluster.request", "", -1)
			key, res, err := do()
			tr.end(sp)
			tr.setID(sp, key)
			return key, res, err
		})
	if err := checkCluster(r, p, reqs); err != nil {
		return nil, err
	}
	m := p.metrics()
	trials := float64(len(reqs) * size.trials)
	return map[string]float64{
		"cluster.trials_leased":     float64(m.TrialsLeased),
		"cluster.trials_stolen":     float64(m.TrialsStolen),
		"cluster.stolen_share":      float64(m.TrialsStolen) / trials,
		"cluster.forwards":          float64(m.Forwards),
		"cluster.forward_fallbacks": float64(m.ForwardFallbacks),
		"cluster.repl_records":      float64(m.ReplRecords),
		"cluster.repl_drops":        float64(m.ReplDrops),
	}, nil
}
