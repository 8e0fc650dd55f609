package cluster

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"sort"
	"sync"
	"time"

	"repro/internal/jobs"
	"repro/internal/sim"
)

// StealRequest is the POST /internal/steal body: an idle peer asking an
// owner for up to Max trials.
type StealRequest struct {
	// Worker is the thief's node name (lease bookkeeping/diagnostics).
	Worker string `json:"worker"`
	// Max bounds the batch size the thief is willing to take.
	Max int `json:"max"`
}

// StealWork is a granted lease: execute trials [From, To) of Spec and
// post the outcomes back with the Lease id before the owner's lease TTL
// reclaims them.
type StealWork struct {
	// Key is the owning sweep's job key.
	Key string `json:"key"`
	// Spec is the normalized sweep spec (self-contained: the thief
	// re-derives the per-trial rng streams from it).
	Spec jobs.Spec `json:"spec"`
	// From and To bound the leased trial range, half-open.
	From int `json:"from"`
	// To is the exclusive upper bound.
	To int `json:"to"`
	// Lease identifies the grant for the completion post.
	Lease int64 `json:"lease"`
}

// StealComplete is the POST /internal/steal/complete body: the executed
// outcomes of one lease.
type StealComplete struct {
	// Key is the owning sweep's job key.
	Key string `json:"key"`
	// Lease echoes the grant.
	Lease int64 `json:"lease"`
	// Worker is the thief's node name.
	Worker string `json:"worker"`
	// Outcomes carry one summary + telemetry snapshot per trial.
	Outcomes []jobs.TrialOutcome `json:"outcomes"`
}

// stealCoordinator tracks this owner's distributable sweeps. It
// implements jobs.TrialDistributor: the executor calls Distribute when a
// sweep starts, thieves lease batches over HTTP, and the session feeds
// completed batches back to the executor's in-order fold.
type stealCoordinator struct {
	node *Node

	mu       sync.Mutex
	sessions map[string]*stealSession //optlint:guardedby mu
	leaseSeq int64                    //optlint:guardedby mu
}

// newStealCoordinator returns an empty coordinator for the node.
func newStealCoordinator(n *Node) *stealCoordinator {
	return &stealCoordinator{node: n, sessions: make(map[string]*stealSession)}
}

// Distribute implements jobs.TrialDistributor. Sweeps no larger than
// one steal batch are not worth the coordination and run sequentially.
func (c *stealCoordinator) Distribute(key string, spec jobs.Spec, start, total int) jobs.TrialSession {
	if len(c.node.others) == 0 || total-start <= c.node.cfg.StealBatch {
		return nil
	}
	s := &stealSession{
		co:     c,
		key:    key,
		spec:   spec,
		total:  total,
		lo:     start,
		leases: make(map[int64]*trialLease),
		// Completions from several thieves queue here while the owner runs
		// a trial; complete refuses a batch rather than block once it is full.
		completed: make(chan []jobs.TrialOutcome, 64),
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	c.sessions[key] = s
	return s
}

// steal grants a lease from any active session with unclaimed trials.
func (c *stealCoordinator) steal(req StealRequest) (StealWork, bool) {
	max := req.Max
	if max <= 0 || max > c.node.cfg.StealBatch {
		max = c.node.cfg.StealBatch
	}
	c.mu.Lock()
	keys := make([]string, 0, len(c.sessions))
	for k := range c.sessions {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	sessions := make([]*stealSession, 0, len(keys))
	for _, k := range keys {
		sessions = append(sessions, c.sessions[k])
	}
	c.mu.Unlock()
	for _, s := range sessions {
		if work, ok := s.lease(req.Worker, max); ok {
			c.node.m.trialsLeased.Add(uint64(work.To - work.From))
			return work, true
		}
	}
	return StealWork{}, false
}

// complete routes a thief's finished batch to its session.
func (c *stealCoordinator) complete(sc StealComplete) error {
	c.mu.Lock()
	s, ok := c.sessions[sc.Key]
	c.mu.Unlock()
	if !ok {
		return fmt.Errorf("cluster: no active sweep %s (lease expired or sweep done)", sc.Key)
	}
	return s.complete(sc)
}

// drop unregisters a finished session.
func (c *stealCoordinator) drop(key string, s *stealSession) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.sessions[key] == s {
		delete(c.sessions, key)
	}
}

// nextLease allocates a cluster-unique lease id.
func (c *stealCoordinator) nextLease() int64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.leaseSeq++
	return c.leaseSeq
}

// trialLease is one outstanding grant.
type trialLease struct {
	from, to int
	worker   string
	expires  time.Time // zero with a frozen clock: never expires
}

// stealSession is the owner-side state of one distributable sweep; it
// implements jobs.TrialSession for the executor's fold loop.
type stealSession struct {
	co    *stealCoordinator
	key   string
	spec  jobs.Spec
	total int

	mu        sync.Mutex
	lo        int                   //optlint:guardedby mu
	reclaimed []int                 //optlint:guardedby mu
	leases    map[int64]*trialLease //optlint:guardedby mu
	closed    bool                  //optlint:guardedby mu
	completed chan []jobs.TrialOutcome
}

// expireLocked reclaims trials of overdue leases; the owner re-executes
// them via ClaimLocal. Duplicates are harmless: trials are deterministic
// and the fold skips already-folded indices.
//
//optlint:locked mu
func (s *stealSession) expireLocked() {
	now := s.co.node.cfg.Now()
	if now.IsZero() {
		return // frozen clock: expiry disabled
	}
	//optlint:allow mapiter order-independent: reclaimed is sorted after the sweep
	for id, l := range s.leases {
		if l.expires.IsZero() || now.Before(l.expires) {
			continue
		}
		for i := l.from; i < l.to; i++ {
			s.reclaimed = append(s.reclaimed, i)
		}
		delete(s.leases, id)
	}
	sort.Ints(s.reclaimed)
}

// ClaimLocal implements jobs.TrialSession: the owner takes the lowest
// available trial — reclaimed ones first, so the fold pointer unblocks
// as fast as possible after a thief dies.
func (s *stealSession) ClaimLocal() (int, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.expireLocked()
	if len(s.reclaimed) > 0 {
		i := s.reclaimed[0]
		s.reclaimed = s.reclaimed[1:]
		return i, true
	}
	if s.lo < s.total {
		i := s.lo
		s.lo++
		return i, true
	}
	return 0, false
}

// lease grants up to max contiguous never-claimed trials to a thief.
// Reclaimed trials are never re-leased — the owner runs those itself.
func (s *stealSession) lease(worker string, max int) (StealWork, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed || s.lo >= s.total {
		return StealWork{}, false
	}
	s.expireLocked()
	from := s.lo
	to := from + max
	if to > s.total {
		to = s.total
	}
	s.lo = to
	id := s.co.nextLease()
	l := &trialLease{from: from, to: to, worker: worker}
	if now := s.co.node.cfg.Now(); !now.IsZero() {
		l.expires = now.Add(s.co.node.cfg.LeaseTTL)
	}
	s.leases[id] = l
	return StealWork{Key: s.key, Spec: s.spec, From: from, To: to, Lease: id}, true
}

// complete accepts a thief's outcomes and queues them for the fold. A
// full queue refuses the batch and reclaims the lease instead of
// blocking the peer's HTTP handler; the trials re-run locally.
func (s *stealSession) complete(sc StealComplete) error {
	s.mu.Lock()
	l, ok := s.leases[sc.Lease]
	if ok {
		delete(s.leases, sc.Lease)
	}
	closed := s.closed
	s.mu.Unlock()
	if closed {
		return fmt.Errorf("cluster: sweep %s already finished", sc.Key)
	}
	select {
	case s.completed <- sc.Outcomes:
		return nil
	default:
		if ok {
			s.mu.Lock()
			for i := l.from; i < l.to; i++ {
				s.reclaimed = append(s.reclaimed, i)
			}
			sort.Ints(s.reclaimed)
			s.mu.Unlock()
		}
		return fmt.Errorf("cluster: sweep %s completion queue full", sc.Key)
	}
}

// Completed implements jobs.TrialSession.
func (s *stealSession) Completed() <-chan []jobs.TrialOutcome { return s.completed }

// Close implements jobs.TrialSession: the sweep finished (or failed);
// stop granting leases and refuse late completions.
func (s *stealSession) Close() {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return
	}
	s.closed = true
	s.mu.Unlock()
	s.co.drop(s.key, s)
}

// thief is the idle-peer loop: when the local scheduler has nothing to
// do, poll other peers for leases, execute them on a thief-owned reused
// engine, and post the outcomes back.
func (n *Node) thief(wg *sync.WaitGroup) {
	defer wg.Done()
	eng := sim.NewEngine() // reused across all stolen batches
	tick := time.NewTicker(n.cfg.StealInterval)
	defer tick.Stop()
	rot := 0
	for {
		select {
		case <-n.ctx.Done():
			return
		case <-tick.C:
		}
		m := n.sched.Metrics()
		if m.QueueDepth > 0 || m.Running > 0 {
			continue // local work first; stealing is for idle capacity
		}
		// Rotate through peers; stop at the first one with work and drain
		// it until it runs dry or local work arrives.
		for range n.others {
			p := n.others[rot%len(n.others)]
			rot++
			if n.stealFrom(p, eng) {
				break
			}
		}
	}
}

// stealFrom asks one peer for a lease and executes it; reports whether
// the peer had work.
func (n *Node) stealFrom(p Peer, eng *sim.Engine) bool {
	work, ok, err := n.requestSteal(p)
	if err != nil || !ok {
		return false
	}
	outs, err := jobs.RunTrialRange(work.Spec, eng, work.From, work.To)
	if err != nil {
		n.cfg.Logf("cluster: %s: stolen trials [%d,%d) of %s failed: %v", n.cfg.Self, work.From, work.To, work.Key, err)
		return true // the lease expires and the owner re-runs the range
	}
	n.m.trialsStolen.Add(uint64(len(outs)))
	sc := StealComplete{Key: work.Key, Lease: work.Lease, Worker: n.cfg.Self, Outcomes: outs}
	if err := n.postJSON(p, "/internal/steal/complete", sc, nil); err != nil {
		n.cfg.Logf("cluster: %s: returning stolen trials to %s failed: %v", n.cfg.Self, p.Name, err)
	}
	return true
}

// requestSteal posts a steal request to the peer; ok is false when the
// peer has no work (204).
func (n *Node) requestSteal(p Peer) (StealWork, bool, error) {
	var work StealWork
	status, err := n.postJSONStatus(p, "/internal/steal", StealRequest{Worker: n.cfg.Self, Max: n.cfg.StealBatch}, &work)
	if err != nil {
		return StealWork{}, false, err
	}
	if status == http.StatusNoContent {
		return StealWork{}, false, nil
	}
	return work, true, nil
}

// postJSON posts v to the peer path and decodes the response into out
// (out nil: body discarded). Non-2xx statuses are errors.
func (n *Node) postJSON(p Peer, path string, v, out any) error {
	status, err := n.postJSONStatus(p, path, v, out)
	if err != nil {
		return err
	}
	if status < 200 || status > 299 {
		return fmt.Errorf("cluster: %s%s: HTTP %d", p.Name, path, status)
	}
	return nil
}

// postJSONStatus is postJSON returning the status code; a 204 skips
// decoding. 4xx/5xx decode the error envelope when present.
func (n *Node) postJSONStatus(p Peer, path string, v, out any) (int, error) {
	// Without HTML escaping, a replicated value reaches the peer as the
	// bytes its origin stored.
	var body bytes.Buffer
	enc := json.NewEncoder(&body)
	enc.SetEscapeHTML(false)
	if err := enc.Encode(v); err != nil {
		return 0, err
	}
	resp, err := n.send(http.MethodPost, p.URL+path, "application/json", &body)
	if err != nil {
		return 0, err
	}
	data, err := jobs.ReadResponse(resp, maxPeerResponseBytes)
	if err != nil {
		return 0, err
	}
	if resp.StatusCode >= 400 {
		var e struct {
			Error string `json:"error"`
		}
		if json.Unmarshal(data, &e) == nil && e.Error != "" {
			return resp.StatusCode, fmt.Errorf("cluster: %s%s: %s (HTTP %d)", p.Name, path, e.Error, resp.StatusCode)
		}
		return resp.StatusCode, fmt.Errorf("cluster: %s%s: HTTP %d", p.Name, path, resp.StatusCode)
	}
	if out == nil || resp.StatusCode == http.StatusNoContent {
		return resp.StatusCode, nil
	}
	return resp.StatusCode, json.Unmarshal(data, out)
}
