package cluster

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/jobs"
	"repro/internal/telemetry"
	"repro/internal/testutil"
)

// lateHandler lets an httptest server start before the node behind it
// exists: peer URLs must be known to build the nodes, and the nodes must
// exist to build the handlers. It can also cut the node off from its
// peers' writes (see cut).
type lateHandler struct {
	mu    sync.RWMutex
	h     http.Handler //optlint:guardedby mu
	isCut bool         //optlint:guardedby mu
}

// set installs the real handler.
func (l *lateHandler) set(h http.Handler) {
	l.mu.Lock()
	l.h = h
	l.mu.Unlock()
}

// cut waits for the peer writes being served to finish and refuses every
// later one, as a partition from the writers would; reads and client
// requests still pass.
func (l *lateHandler) cut() {
	l.mu.Lock()
	l.isCut = true
	l.mu.Unlock()
}

// ServeHTTP delegates to the installed handler, 503 before it exists.
// Peer writes (POST /internal/...) are served under the read lock, so
// cut waits for them, and are refused once the node is cut off.
func (l *lateHandler) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	l.mu.RLock()
	h := l.h
	if r.Method == http.MethodPost && strings.HasPrefix(r.URL.Path, "/internal/") {
		defer l.mu.RUnlock()
		if l.isCut {
			h = nil
		}
	} else {
		l.mu.RUnlock()
	}
	if h == nil {
		http.Error(w, "node not ready", http.StatusServiceUnavailable)
		return
	}
	h.ServeHTTP(w, r)
}

// testNode is one in-process cluster member with all its handles.
type testNode struct {
	name  string
	in    *lateHandler // serves srv
	dir   string       // store directory
	store *jobs.Store
	live  *telemetry.Live
	exec  *jobs.Executor
	node  *Node
	sched *jobs.Scheduler
	srv   *httptest.Server
	dead  bool
}

// client returns a jobs client speaking to this node's public API.
func (tn *testNode) client() *jobs.Client {
	return &jobs.Client{BaseURL: tn.srv.URL}
}

// kill hard-stops the node: cancel whatever runs, stop serving, stop the
// background loops, and close scheduler and store. Anything not yet
// replicated is lost, like a real crash (modulo the store's own fsync).
func (tn *testNode) kill(t *testing.T, runningKey string) {
	t.Helper()
	if runningKey != "" {
		// In-process goroutines cannot be SIGKILLed; canceling at the next
		// trial boundary is the hard-stop equivalent — the job ends
		// unfinished and only replicated checkpoints survive for peers.
		_ = tn.sched.Cancel(runningKey)
	}
	tn.srv.Close()
	tn.node.Close()
	tn.sched.Close()
	if err := tn.store.Close(); err != nil {
		t.Fatalf("closing %s store: %v", tn.name, err)
	}
	tn.dead = true
}

// startCluster boots one in-process node per name, all serving one
// namespace, and registers teardown. tweak adjusts each node's config
// before construction (nil = defaults).
func startCluster(t *testing.T, names []string, tweak func(*Config)) []*testNode {
	t.Helper()
	handlers := make([]*lateHandler, len(names))
	nodes := make([]*testNode, len(names))
	var peers []Peer
	for i, name := range names {
		handlers[i] = &lateHandler{}
		srv := httptest.NewServer(handlers[i])
		nodes[i] = &testNode{name: name, in: handlers[i], srv: srv}
		peers = append(peers, Peer{Name: name, URL: srv.URL})
	}
	for i, name := range names {
		dir := t.TempDir()
		store, err := jobs.Open(dir)
		if err != nil {
			t.Fatal(err)
		}
		live := telemetry.NewLive()
		exec := &jobs.Executor{Store: store, Live: live}
		cfg := Config{Self: name, Peers: peers, Now: time.Now}
		if tweak != nil {
			tweak(&cfg)
		}
		node, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		node.Wire(exec)
		sched := jobs.NewScheduler(exec, jobs.Options{Workers: 1, QueueSize: 16})
		node.Start(sched, live)
		handlers[i].set(node.Handler())
		tn := nodes[i]
		tn.dir, tn.store, tn.live, tn.exec, tn.node, tn.sched = dir, store, live, exec, node, sched
	}
	t.Cleanup(func() {
		for _, tn := range nodes {
			if tn.dead {
				continue
			}
			tn.srv.Close()
			tn.node.Close()
			tn.sched.Close()
			if err := tn.store.Close(); err != nil {
				t.Errorf("closing %s store: %v", tn.name, err)
			}
		}
	})
	return nodes
}

// sweepSpec is the test job: a permutation sweep on a 2-D torus, sized
// so one trial takes long enough for peers to act mid-sweep.
func sweepSpec(seed uint64, trials, side int) jobs.Spec {
	return jobs.Spec{Route: &jobs.RouteSpec{
		Network:  jobs.NetworkSpec{Kind: "torus", Dims: 2, Side: side},
		Workload: jobs.WorkloadSpec{Kind: "permutation"},
		Protocol: jobs.ProtocolSpec{Bandwidth: 2, Length: 4},
		Seed:     seed,
		Trials:   trials,
	}}
}

// ownerOf splits nodes into the key's owner and the rest.
func ownerOf(t *testing.T, nodes []*testNode, key string) (*testNode, []*testNode) {
	t.Helper()
	var peers []Peer
	for _, tn := range nodes {
		peers = append(peers, Peer{Name: tn.name, URL: tn.srv.URL})
	}
	owner, ok := Owner(peers, key)
	if !ok {
		t.Fatal("no owner")
	}
	var o *testNode
	var rest []*testNode
	for _, tn := range nodes {
		if tn.name == owner.Name {
			o = tn
		} else {
			rest = append(rest, tn)
		}
	}
	return o, rest
}

// TestRendezvousDeterministicAndStable pins the ownership function:
// identical on every node, covering all peers, and removing one peer
// remaps only that peer's keys.
func TestRendezvousDeterministicAndStable(t *testing.T) {
	peers := []Peer{{Name: "a", URL: "u"}, {Name: "b", URL: "u"}, {Name: "c", URL: "u"}}
	counts := map[string]int{}
	for i := 0; i < 300; i++ {
		key := string(rune('k')) + string(rune('0'+i%10)) + string(rune('a'+i%26)) + string(rune('A'+i%26))
		o1, _ := Owner(peers, key)
		o2, _ := Owner(peers, key)
		if o1 != o2 {
			t.Fatalf("owner of %q unstable: %v vs %v", key, o1, o2)
		}
		counts[o1.Name]++
		// Minimal disruption: drop a non-owner peer and the owner must not
		// change.
		var without []Peer
		for _, p := range peers {
			if p.Name != o1.Name {
				without = append(without, p)
			}
		}
		shrunk := []Peer{without[0], {Name: o1.Name, URL: "u"}}
		if o3, _ := Owner(shrunk, key); o3.Name != o1.Name {
			t.Fatalf("removing a non-owner reassigned %q: %s -> %s", key, o1.Name, o3.Name)
		}
	}
	for _, p := range peers {
		if counts[p.Name] == 0 {
			t.Fatalf("peer %s owns no keys out of 300: %v", p.Name, counts)
		}
	}
	ranked := Rank(peers, "some-key")
	if len(ranked) != 3 {
		t.Fatalf("rank dropped peers: %v", ranked)
	}
	if o, _ := Owner(peers, "some-key"); ranked[0].Name != o.Name {
		t.Fatalf("rank[0] %s disagrees with owner %s", ranked[0].Name, o.Name)
	}
}

// TestShouldForward pins the hop budget and loop detection.
func TestShouldForward(t *testing.T) {
	peers := []Peer{{Name: "a", URL: "u"}, {Name: "b", URL: "u"}, {Name: "c", URL: "u"}}
	// A key owned by someone: find one b does not own.
	key := "k"
	for i := 0; ; i++ {
		o, _ := Owner(peers, key)
		if o.Name != "b" {
			break
		}
		key = "k" + string(rune('a'+i))
	}
	n := &Node{cfg: Config{Self: "b", Peers: peers, MaxHops: 2}}
	owner, _ := Owner(peers, key)
	if got, ok := n.shouldForward(key, ""); !ok || got.Name != owner.Name {
		t.Fatalf("fresh request should forward to %s, got %v/%v", owner.Name, got, ok)
	}
	if _, ok := n.shouldForward(key, "x,y"); ok {
		t.Fatal("hop budget spent but still forwarding")
	}
	if _, ok := n.shouldForward(key, "b"); ok {
		t.Fatal("request already visited self but still forwarding (loop)")
	}
	if _, ok := n.shouldForward(key, owner.Name); ok {
		t.Fatal("request already visited the owner but still forwarding (loop)")
	}
	self := &Node{cfg: Config{Self: owner.Name, Peers: peers, MaxHops: 2}}
	if _, ok := self.shouldForward(key, ""); ok {
		t.Fatal("owner forwarding its own key")
	}
}

// TestForwardedSubmitReachesOwner submits to a non-owner and verifies
// the job lands on (and is served from) the owner, byte for byte.
func TestForwardedSubmitReachesOwner(t *testing.T) {
	testutil.VerifyNoLeaks(t)
	nodes := startCluster(t, []string{"a", "b", "c"}, func(c *Config) {
		c.StealInterval = -1 // isolate forwarding from stealing
	})
	spec := sweepSpec(7, 2, 4)
	key, err := spec.Key()
	if err != nil {
		t.Fatal(err)
	}
	owner, rest := ownerOf(t, nodes, key)
	st, err := rest[0].client().Submit(spec, 0)
	if err != nil {
		t.Fatalf("submit to non-owner: %v", err)
	}
	if st.Key != key {
		t.Fatalf("status key %s, want %s", st.Key, key)
	}
	res, err := rest[0].client().Result(key)
	if err != nil {
		t.Fatalf("result via non-owner: %v", err)
	}
	if res.Key != key || len(res.Trials) != 2 {
		t.Fatalf("bad result: key=%s trials=%d", res.Key, len(res.Trials))
	}
	// The non-owner relays the owner's stored bytes as they are.
	resp, err := http.Get(rest[0].srv.URL + "/jobs/" + key + "/result?wait=1")
	if err != nil {
		t.Fatal(err)
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	stored, ok := owner.store.Get(jobs.ResultKey(key))
	if !ok {
		t.Fatal("owner did not store the result")
	}
	if resp.StatusCode != http.StatusOK || !bytes.Equal(body, append(bytes.Clone(stored), '\n')) {
		t.Fatalf("non-owner served HTTP %d with a body that is not the owner's stored bytes plus a newline:\n got %.200s\nwant %.200s", resp.StatusCode, body, stored)
	}
	// The owner's scheduler executed it; the non-owner's never saw it.
	if _, err := owner.sched.Status(key); err != nil {
		t.Fatalf("owner does not know the job: %v", err)
	}
	if _, err := rest[0].sched.Status(key); err == nil {
		t.Fatal("non-owner ran the job locally instead of forwarding")
	}
	if m := rest[0].node.Metrics(); m.Forwards == 0 {
		t.Fatalf("no forward counted: %+v", m)
	}
	// Submitting the same spec to the other non-owner is a forwarded
	// cache/singleflight hit: done immediately.
	st2, err := rest[1].client().Submit(spec, 0)
	if err != nil {
		t.Fatal(err)
	}
	if st2.State != jobs.StateDone {
		t.Fatalf("second submit state %s, want done", st2.State)
	}
}

// TestSubmitRefusesTrailingBytes: a single node and a cluster node decode
// a POST /jobs body the same way. A submit followed by anything but
// whitespace gets 400 from both, and the same submit followed by a
// newline is taken by both.
func TestSubmitRefusesTrailingBytes(t *testing.T) {
	testutil.VerifyNoLeaks(t)
	nodes := startCluster(t, []string{"a"}, func(c *Config) { c.StealInterval = -1 })
	sched := jobs.NewScheduler(&jobs.Executor{}, jobs.Options{})
	defer sched.Close()
	single := httptest.NewServer((&jobs.Server{Sched: sched}).Handler())
	defer single.Close()
	body, err := json.Marshal(jobs.SubmitRequest{Spec: sweepSpec(5, 1, 4)})
	if err != nil {
		t.Fatal(err)
	}
	for _, url := range []string{single.URL, nodes[0].srv.URL} {
		for _, tc := range []struct {
			tail string
			ok   bool
		}{{" x", false}, {" {}", false}, {"\n", true}} {
			resp, err := http.Post(url+"/jobs", "application/json", strings.NewReader(string(body)+tc.tail))
			if err != nil {
				t.Fatal(err)
			}
			resp.Body.Close()
			if ok := resp.StatusCode == http.StatusOK || resp.StatusCode == http.StatusAccepted; ok != tc.ok ||
				!ok && resp.StatusCode != http.StatusBadRequest {
				t.Errorf("%s: a submit followed by %q got %d", url, tc.tail, resp.StatusCode)
			}
		}
	}
}

// TestBodyBounds: a clustered submit one byte over jobs.MaxSubmitBytes
// and a steal request one byte over maxStealBytes are both refused with
// 413, and a normal steal request on an idle node still gets 204.
func TestBodyBounds(t *testing.T) {
	testutil.VerifyNoLeaks(t)
	nodes := startCluster(t, []string{"a"}, func(c *Config) { c.StealInterval = -1 })
	url := nodes[0].srv.URL
	// send posts body to path; size is its declared Content-Length, or -1
	// to stream it chunked with no declared length.
	send := func(path string, body io.Reader, size int64) int {
		t.Helper()
		req, err := http.NewRequest(http.MethodPost, url+path, body)
		if err != nil {
			t.Fatal(err)
		}
		req.ContentLength = size
		resp, err := nodes[0].srv.Client().Do(req)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		return resp.StatusCode
	}
	post := func(path string, body []byte) int {
		t.Helper()
		return send(path, bytes.NewReader(body), int64(len(body)))
	}
	steal, err := json.Marshal(StealRequest{Worker: "b", Max: 1})
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		path  string
		limit int
	}{
		{"/jobs", jobs.MaxSubmitBytes},
		{"/internal/steal", maxStealBytes},
	} {
		// Leading whitespace is valid JSON, so only the size can fail.
		over := append(bytes.Repeat([]byte(" "), tc.limit+1-len(steal)), steal...)
		if code := post(tc.path, over); code != http.StatusRequestEntityTooLarge {
			t.Errorf("POST %s with %d bytes: status %d, want 413", tc.path, len(over), code)
		}
	}
	if code := send("/internal/steal", padded(maxStealBytes+1, string(steal)), -1); code != http.StatusRequestEntityTooLarge {
		t.Errorf("chunked POST /internal/steal over its bound: status %d, want 413", code)
	}
	if m := nodes[0].sched.Metrics(); m.QueueDepth != 0 || m.Running != 0 || m.JobsDone != 0 {
		t.Fatalf("oversized submit reached the scheduler: %+v", m)
	}
	if code := post("/internal/steal", steal); code != http.StatusNoContent {
		t.Fatalf("normal steal request: status %d, want 204", code)
	}

	// The routes that carry results are bounded too. Each oversized body
	// is streamed, never held in memory, and would be valid if complete:
	// truncating it instead of refusing it would import a prefix.
	record := `{"key":"result/oversized","value":{"a":1}}`
	line := `{"k":"result/oversized","v":1}` + "\n"
	for _, tc := range []struct {
		path  string
		body  io.Reader
		limit int64
	}{
		{"/internal/steal/complete", padded(maxStealCompleteBytes+1, `{"key":"k","lease":1,"worker":"b","outcomes":[]}`), maxStealCompleteBytes},
		{"/internal/store", padded(maxStoreRecordBytes+1, record), maxStoreRecordBytes},
		{"/internal/segments/seg-000001.jsonl?origin=b", &repeated{unit: []byte(line), n: maxSegmentBytes + 1}, maxSegmentBytes},
	} {
		if code := send(tc.path, tc.body, tc.limit+1); code != http.StatusRequestEntityTooLarge {
			t.Errorf("POST %s with %d bytes: status %d, want 413", tc.path, tc.limit+1, code)
		}
	}
	if n := nodes[0].store.Len(); n != 0 {
		t.Errorf("oversized bodies landed %d records", n)
	}
	if segs, err := nodes[0].store.Segments(); err != nil || len(segs) != 0 {
		t.Errorf("oversized segment landed: %v %v", segs, err)
	}
	if code := post("/internal/store", []byte(record)); code != http.StatusOK {
		t.Fatalf("normal store record: status %d, want 200", code)
	}
	if code := post("/internal/segments/seg-000001.jsonl?origin=b", []byte(line)); code != http.StatusOK {
		t.Fatalf("normal segment: status %d, want 200", code)
	}
}

// padded streams n bytes: leading spaces, then tail.
func padded(n int64, tail string) io.Reader {
	return io.MultiReader(&repeated{unit: []byte(" "), n: n - int64(len(tail))}, strings.NewReader(tail))
}

// repeated streams unit over and over, n bytes in all, without holding
// more than one unit in memory.
type repeated struct {
	unit []byte
	off  int
	n    int64
}

// Read implements io.Reader.
func (r *repeated) Read(p []byte) (int, error) {
	if r.n <= 0 {
		return 0, io.EOF
	}
	if int64(len(p)) > r.n {
		p = p[:r.n]
	}
	for i := range p {
		p[i] = r.unit[r.off]
		r.off = (r.off + 1) % len(r.unit)
	}
	r.n -= int64(len(p))
	return len(p), nil
}
