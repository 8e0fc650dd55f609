// Package cluster lets N optnetd nodes serve one logical job namespace.
//
// Three mechanisms, in the paper's spirit of simple decentralized schemes
// over global coordination:
//
//   - Membership + ownership: a static peer list with rendezvous
//     (highest-random-weight) hashing from job key to owner node. Any
//     node accepts a submit and forwards it to the owner over the
//     existing HTTP/JSON API, with bounded hops and loop detection; an
//     unreachable owner degrades to local execution instead of an error.
//
//   - Trial-granular work stealing: an owner decomposes a sweep into
//     trial leases (per-trial rng streams are pre-split, so trials are
//     relocatable); idle peers pull batches from /internal/steal, run
//     them on their own reused engines, and return per-trial summaries +
//     telemetry snapshots. The owner folds outcomes strictly in trial
//     order through the existing checkpoint path, so the distributed
//     Result is byte-identical to a single-node run.
//
//   - Segment replication with read-repair: every locally appended
//     record ships asynchronously to R peers, sealed JSONL segments ship
//     whole, and a store miss consults replicas before computing. A node
//     rejoining after a crash back-fills segments from its peers, so a
//     crash mid-sweep loses no completed trial. A received segment fills
//     only the keys its receiver lacks, appending them to the receiver's
//     own log, so they replay after a restart as they read before it and
//     ship onward when that segment seals.
package cluster

import (
	"context"
	"fmt"
	"io"
	"log"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/jobs"
	"repro/internal/telemetry"
)

// Peer identifies one cluster member.
type Peer struct {
	// Name is the member's unique, stable identity (hashed for
	// ownership; renaming a node reshuffles placement).
	Name string `json:"name"`
	// URL is the member's base HTTP URL (e.g. "http://10.0.0.7:9090").
	URL string `json:"url"`
}

// Config configures a Node.
type Config struct {
	// Self is this node's name; it must appear in Peers.
	Self string
	// Peers is the full static membership, including self.
	Peers []Peer
	// Replicas is the number of additional copies of each record and
	// sealed segment shipped to peers (default 1, capped at the number
	// of other peers).
	Replicas int
	// MaxHops bounds submit forwarding (default 2): a submit that has
	// already been forwarded MaxHops times executes where it lands.
	MaxHops int
	// StealInterval is the idle-thief poll period (default 250ms);
	// <0 disables stealing entirely (the node neither steals nor offers).
	StealInterval time.Duration
	// StealBatch is the maximum trials handed out per lease (default 8).
	StealBatch int
	// LeaseTTL is how long a stolen lease may stay outstanding before
	// its trials flow back to the owner (default 10s).
	LeaseTTL time.Duration
	// Now is the cluster's clock for lease expiry. The caller injects it
	// (cmd/optnetd passes time.Now); nil falls back to a frozen zero
	// clock, which disables lease expiry but nothing else.
	Now func() time.Time
	// HTTPClient overrides http.DefaultClient for peer traffic.
	HTTPClient *http.Client
	// Logf sinks diagnostics (default log.Printf).
	Logf func(format string, args ...any)
}

// Metrics is the node's cluster gauge set, appended to /metrics under
// the optnetd_cluster_ namespace.
type Metrics struct {
	// Forwards counts submits forwarded to their owner.
	Forwards uint64 `json:"forwards"`
	// ForwardFallbacks counts submits executed locally because the owner
	// was unreachable or the hop budget ran out.
	ForwardFallbacks uint64 `json:"forward_fallbacks"`
	// TrialsLeased counts trials handed to thieves by this owner.
	TrialsLeased uint64 `json:"trials_leased"`
	// TrialsStolen counts trials this node executed for other owners.
	TrialsStolen uint64 `json:"trials_stolen"`
	// ReplRecords and ReplSegments count successful replica pushes.
	ReplRecords uint64 `json:"repl_records"`
	// ReplSegments counts successful sealed-segment pushes.
	ReplSegments uint64 `json:"repl_segments"`
	// ReplDrops counts replication queue overflows (copies not shipped).
	ReplDrops uint64 `json:"repl_drops"`
	// RepairHits and RepairMisses count read-repair probes by outcome.
	RepairHits uint64 `json:"repair_hits"`
	// RepairMisses counts read-repair probes that found no replica.
	RepairMisses uint64 `json:"repair_misses"`
}

// counters is the atomic backing for Metrics.
type counters struct {
	forwards         atomic.Uint64
	forwardFallbacks atomic.Uint64
	trialsLeased     atomic.Uint64
	trialsStolen     atomic.Uint64
	replRecords      atomic.Uint64
	replSegments     atomic.Uint64
	replDrops        atomic.Uint64
	repairHits       atomic.Uint64
	repairMisses     atomic.Uint64
}

// Node is one cluster member: it wraps a local scheduler with ownership
// forwarding, offers and steals trial leases, and replicates its store.
// Construct with New, wire into an executor with Wire, then Start.
type Node struct {
	cfg    Config
	others []Peer // every peer but self, in listed order

	exec  *jobs.Executor
	store *jobs.Store
	sched *jobs.Scheduler
	srv   *jobs.Server
	inner http.Handler // srv's handler

	steal *stealCoordinator
	repl  *replicator

	m counters

	mu      sync.Mutex
	started bool //optlint:guardedby mu
	closed  bool //optlint:guardedby mu
	// ctx is cancelled by Close. It stops the background loops and every
	// request the node sends on its own, so a silent peer cannot hold
	// Close.
	ctx    context.Context
	cancel context.CancelFunc
	wg     sync.WaitGroup
}

// New validates the config and returns an unstarted node.
func New(cfg Config) (*Node, error) {
	if cfg.Self == "" {
		return nil, fmt.Errorf("cluster: empty self name")
	}
	if cfg.Replicas == 0 {
		cfg.Replicas = 1
	}
	if cfg.MaxHops <= 0 {
		cfg.MaxHops = 2
	}
	if cfg.StealInterval == 0 {
		cfg.StealInterval = 250 * time.Millisecond
	}
	if cfg.StealBatch <= 0 {
		cfg.StealBatch = 8
	}
	if cfg.LeaseTTL <= 0 {
		cfg.LeaseTTL = 10 * time.Second
	}
	if cfg.Now == nil {
		cfg.Now = func() time.Time { return time.Time{} }
	}
	if cfg.Logf == nil {
		cfg.Logf = log.Printf
	}
	seen := map[string]bool{}
	self := false
	var others []Peer
	for _, p := range cfg.Peers {
		if p.Name == "" || p.URL == "" {
			return nil, fmt.Errorf("cluster: peer needs name and url, got %+v", p)
		}
		if seen[p.Name] {
			return nil, fmt.Errorf("cluster: duplicate peer name %q", p.Name)
		}
		seen[p.Name] = true
		if p.Name == cfg.Self {
			self = true
		} else {
			others = append(others, p)
		}
	}
	if !self {
		return nil, fmt.Errorf("cluster: self %q not in peer list", cfg.Self)
	}
	ctx, cancel := context.WithCancel(context.Background())
	n := &Node{cfg: cfg, others: others, ctx: ctx, cancel: cancel}
	n.steal = newStealCoordinator(n)
	n.repl = newReplicator(n)
	return n, nil
}

// httpClient returns the configured or default peer HTTP client.
func (n *Node) httpClient() *http.Client {
	if n.cfg.HTTPClient != nil {
		return n.cfg.HTTPClient
	}
	return http.DefaultClient
}

// send issues a request the node makes on its own behalf, not for a
// client: it carries the node's context, so Close cancels it.
func (n *Node) send(method, url, contentType string, body io.Reader) (*http.Response, error) {
	req, err := http.NewRequestWithContext(n.ctx, method, url, body)
	if err != nil {
		return nil, err
	}
	if contentType != "" {
		req.Header.Set("Content-Type", contentType)
	}
	return n.httpClient().Do(req)
}

// Wire hooks the node into the executor: remote trial distribution for
// sweeps this node owns, read-repair lookups on store misses, and store
// replication hooks. Call before the scheduler starts executing jobs.
func (n *Node) Wire(exec *jobs.Executor) {
	n.exec = exec
	n.store = exec.Store
	if n.cfg.StealInterval > 0 {
		exec.Distribute = n.steal
	}
	exec.Lookup = n.repl.lookup
	if n.store != nil {
		n.store.Observer = n.repl.observeRecord
		n.store.OnSeal = n.repl.observeSeal
	}
}

// Start attaches the scheduler and live telemetry, builds the inner
// jobs handler, and launches the background loops: the replication
// pusher, the segment back-fill, and (unless disabled) the idle thief.
func (n *Node) Start(sched *jobs.Scheduler, live *telemetry.Live) {
	n.mu.Lock()
	defer n.mu.Unlock()
	if n.started {
		return
	}
	n.started = true
	n.sched = sched
	n.srv = &jobs.Server{Sched: sched, Live: live}
	n.inner = n.srv.Handler()
	n.wg.Add(1)
	go n.repl.run(&n.wg)
	if n.store != nil && len(n.others) > 0 {
		n.wg.Add(1)
		go n.backfill(&n.wg)
	}
	if n.cfg.StealInterval > 0 && len(n.others) > 0 {
		n.wg.Add(1)
		go n.thief(&n.wg)
	}
}

// Close stops the node's background loops and cancels the requests they
// have in flight, then waits for them. The scheduler and store are owned
// by the caller and closed separately.
func (n *Node) Close() {
	n.mu.Lock()
	if n.closed {
		n.mu.Unlock()
		return
	}
	n.closed = true
	n.mu.Unlock()
	n.cancel()
	n.wg.Wait()
}

// Metrics snapshots the cluster counters.
func (n *Node) Metrics() Metrics {
	return Metrics{
		Forwards:         n.m.forwards.Load(),
		ForwardFallbacks: n.m.forwardFallbacks.Load(),
		TrialsLeased:     n.m.trialsLeased.Load(),
		TrialsStolen:     n.m.trialsStolen.Load(),
		ReplRecords:      n.m.replRecords.Load(),
		ReplSegments:     n.m.replSegments.Load(),
		ReplDrops:        n.m.replDrops.Load(),
		RepairHits:       n.m.repairHits.Load(),
		RepairMisses:     n.m.repairMisses.Load(),
	}
}

// replicaTargets returns the first Replicas other peers in rendezvous
// order of key — the same order read-repair probes, so a probe's first
// candidate is usually a node that holds the copy.
func (n *Node) replicaTargets(key string) []Peer {
	ranked := Rank(n.others, key)
	r := n.cfg.Replicas
	if r > len(ranked) {
		r = len(ranked)
	}
	return ranked[:r]
}
