package cluster

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"sync"

	"repro/internal/jobs"
)

// replItem is one queued replication push: a single record (Key set) or
// a sealed segment (Segment set).
type replItem struct {
	Key     string          `json:"key,omitempty"`
	Value   json.RawMessage `json:"value,omitempty"`
	Segment string          `json:"segment,omitempty"`
}

// replQueueCap bounds the in-memory replication backlog. Overflow drops
// the oldest items (counted in the repl_drops metric): the local store
// remains the source of truth, and the sealed-segment ship plus peer
// back-fill re-establish the copies the drop skipped.
const replQueueCap = 4096

// replicator ships this node's store writes to peers and answers store
// misses from their replicas. Hook methods (observeRecord, observeSeal)
// are called under the store mutex and must not re-enter the store; they
// only enqueue. The run loop does all the I/O.
type replicator struct {
	node *Node

	mu    sync.Mutex
	queue []replItem //optlint:guardedby mu
	wake  chan struct{}
}

// newReplicator returns an idle replicator for the node.
func newReplicator(n *Node) *replicator {
	return &replicator{node: n, wake: make(chan struct{}, 1)}
}

// observeRecord is the Store.Observer hook: every locally originated
// append queues a push of that record to its replica peers. Replicated
// ingests arrive via PutRaw and ImportSegment, which skip the observer,
// so copies never ping-pong between nodes.
func (r *replicator) observeRecord(key string, value json.RawMessage) {
	r.enqueue(replItem{Key: key, Value: value})
}

// observeSeal is the Store.OnSeal hook: a sealed segment ships whole,
// giving peers a dense copy even if individual record pushes were
// dropped under load.
func (r *replicator) observeSeal(name string) {
	r.enqueue(replItem{Segment: name})
}

// enqueue appends an item and nudges the run loop, dropping the oldest
// backlog on overflow rather than stalling the store's append path.
func (r *replicator) enqueue(it replItem) {
	r.mu.Lock()
	if len(r.queue) >= replQueueCap {
		n := copy(r.queue, r.queue[1:])
		r.queue = r.queue[:n]
		r.node.m.replDrops.Add(1)
	}
	r.queue = append(r.queue, it)
	r.mu.Unlock()
	select {
	case r.wake <- struct{}{}:
	default:
	}
}

// run is the replication pusher loop; it drains the queue on every wake
// and exits when the node closes, without finishing the backlog: peers
// may already be gone, and the sealed-segment ship and back-fill restore
// the copies the backlog held.
func (r *replicator) run(wg *sync.WaitGroup) {
	defer wg.Done()
	for {
		select {
		case <-r.node.ctx.Done():
			return
		case <-r.wake:
		}
		for {
			select {
			case <-r.node.ctx.Done():
				return
			default:
			}
			r.mu.Lock()
			if len(r.queue) == 0 {
				r.mu.Unlock()
				break
			}
			it := r.queue[0]
			r.queue = r.queue[1:]
			r.mu.Unlock()
			r.push(it)
		}
	}
}

// push ships one item to its replica peers; failures are logged and
// counted, never retried here — the segment ship and back-fill are the
// durability backstop.
func (r *replicator) push(it replItem) {
	n := r.node
	if it.Segment != "" {
		r.pushSegment(it.Segment)
		return
	}
	for _, p := range n.replicaTargets(it.Key) {
		if err := n.postJSON(p, "/internal/store", replItem{Key: it.Key, Value: it.Value}, nil); err != nil {
			n.cfg.Logf("cluster: %s: replicate %s to %s: %v", n.cfg.Self, it.Key, p.Name, err)
			continue
		}
		n.m.replRecords.Add(1)
	}
}

// pushSegment reads the sealed segment and ships it to the replica
// peers chosen by the segment's identity.
func (r *replicator) pushSegment(name string) {
	n := r.node
	if n.store == nil {
		return
	}
	data, err := n.store.ReadSegment(name)
	if err != nil {
		n.cfg.Logf("cluster: %s: read sealed segment %s: %v", n.cfg.Self, name, err)
		return
	}
	for _, p := range n.replicaTargets("segment:" + n.cfg.Self + ":" + name) {
		if err := n.sendSegment(p, name, data); err != nil {
			n.cfg.Logf("cluster: %s: ship segment %s to %s: %v", n.cfg.Self, name, p.Name, err)
			continue
		}
		n.m.replSegments.Add(1)
	}
}

// sendSegment posts raw segment bytes to one peer.
func (n *Node) sendSegment(p Peer, name string, data []byte) error {
	u := p.URL + "/internal/segments/" + url.PathEscape(name)
	resp, err := n.send(http.MethodPost, u, "application/octet-stream", bytes.NewReader(data))
	if err != nil {
		return err
	}
	//optlint:allow errsink response body is read-only; close cannot lose data
	defer resp.Body.Close()
	_, _ = io.Copy(io.Discard, io.LimitReader(resp.Body, 1<<20))
	if resp.StatusCode < 200 || resp.StatusCode > 299 {
		return fmt.Errorf("cluster: segment post to %s: HTTP %d", p.Name, resp.StatusCode)
	}
	return nil
}

// lookup is the Executor.Lookup read-repair hook: on a local store miss
// the worker probes replicas in rendezvous order before computing. The
// executor persists a hit via PutRaw, completing the repair.
func (r *replicator) lookup(storeKey string) (json.RawMessage, bool) {
	n := r.node
	probes := n.cfg.Replicas + 1
	ranked := Rank(n.others, storeKey)
	if probes > len(ranked) {
		probes = len(ranked)
	}
	for _, p := range ranked[:probes] {
		raw, ok := n.fetchRecord(p, storeKey)
		if ok {
			n.m.repairHits.Add(1)
			return raw, true
		}
	}
	if probes > 0 {
		n.m.repairMisses.Add(1)
	}
	return nil, false
}

// fetchRecord asks one peer for a raw store value. Store keys are
// slash-separated hex/label segments, passed through unescaped to match
// the server's rest-of-path wildcard.
func (n *Node) fetchRecord(p Peer, storeKey string) (json.RawMessage, bool) {
	resp, err := n.send(http.MethodGet, p.URL+"/internal/store/"+storeKey, "", nil)
	if err != nil {
		return nil, false
	}
	data, err := jobs.ReadResponse(resp, maxStoreRecordBytes)
	if err != nil || resp.StatusCode != http.StatusOK || !json.Valid(data) {
		return nil, false
	}
	return json.RawMessage(data), true
}

// backfill runs once at start: fetch every peer's sealed segments and
// import them, so a node rejoining after a crash recovers the records
// (checkpoints included) that replicated while it was down; gap-fill
// skips every key the node already holds.
func (n *Node) backfill(wg *sync.WaitGroup) {
	defer wg.Done()
	for _, p := range n.others {
		select {
		case <-n.ctx.Done():
			return
		default:
		}
		var infos []jobs.SegmentInfo
		if err := n.getJSON(p, "/internal/segments", &infos); err != nil {
			n.cfg.Logf("cluster: %s: backfill list from %s: %v", n.cfg.Self, p.Name, err)
			continue
		}
		for _, info := range infos {
			if info.Active {
				continue // still growing; it ships when sealed
			}
			data, err := n.fetchSegment(p, info.Name)
			if err != nil {
				n.cfg.Logf("cluster: %s: backfill %s from %s: %v", n.cfg.Self, info.Name, p.Name, err)
				continue
			}
			added, err := n.store.ImportSegment(data)
			if err != nil {
				n.cfg.Logf("cluster: %s: import %s from %s: %v", n.cfg.Self, info.Name, p.Name, err)
				continue
			}
			if added > 0 {
				n.cfg.Logf("cluster: %s: back-filled %d records from %s/%s", n.cfg.Self, added, p.Name, info.Name)
			}
		}
	}
}

// getJSON fetches a JSON document from a peer path.
func (n *Node) getJSON(p Peer, path string, out any) error {
	resp, err := n.send(http.MethodGet, p.URL+path, "", nil)
	if err != nil {
		return err
	}
	data, err := jobs.ReadResponse(resp, maxPeerResponseBytes)
	if err != nil {
		return err
	}
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("cluster: %s%s: HTTP %d", p.Name, path, resp.StatusCode)
	}
	return json.Unmarshal(data, out)
}

// fetchSegment downloads one raw segment from a peer.
func (n *Node) fetchSegment(p Peer, name string) ([]byte, error) {
	resp, err := n.send(http.MethodGet, p.URL+"/internal/segments/"+url.PathEscape(name), "", nil)
	if err != nil {
		return nil, err
	}
	data, err := jobs.ReadResponse(resp, maxSegmentBytes)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("cluster: segment fetch from %s: HTTP %d", p.Name, resp.StatusCode)
	}
	return data, nil
}
