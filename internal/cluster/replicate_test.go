package cluster

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/jobs"
	"repro/internal/testutil"
)

// TestReplicaHoldsOriginBytes: a record pushed to a replica lands there
// as the bytes its origin stored. HTML characters and U+2028, which
// experiment tables hold, must not come back escaped, or a hit served
// from the replica would answer different bytes than the owner.
func TestReplicaHoldsOriginBytes(t *testing.T) {
	testutil.VerifyNoLeaks(t)
	nodes := startCluster(t, []string{"a", "b"}, func(c *Config) { c.StealInterval = -1 })
	origin, replica := nodes[0], nodes[1]
	key := "result/escapes"
	if err := origin.store.Put(key, map[string]string{"note": "depth <= t && t > 1\u2028next"}); err != nil {
		t.Fatal(err)
	}
	want, _ := origin.store.Get(key)
	if !bytes.Contains(want, []byte("<= t && t > 1\u2028next")) {
		t.Fatalf("origin stored %s, want the characters unescaped", want)
	}
	deadline := time.Now().Add(10 * time.Second)
	for {
		if got, ok := replica.store.Get(key); ok {
			if !bytes.Equal(got, want) {
				t.Fatalf("replica holds %s, origin %s", got, want)
			}
			return
		}
		if time.Now().After(deadline) {
			t.Fatal("record never reached the replica")
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestCloseSkipsReplicationBacklog: Node.Close does not wait for the
// replication backlog. The node's only replica peer accepts connections
// and never answers, so each push waits out the client timeout; with a
// full queue, draining it would take minutes. Close must return within a
// fixed bound, and only the push in flight when it stops may complete
// after that.
func TestCloseSkipsReplicationBacklog(t *testing.T) {
	testutil.VerifyNoLeaks(t)
	dead, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer dead.Close()
	store, err := jobs.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer store.Close()
	var pushes atomic.Int64
	n, err := New(Config{
		Self:          "a",
		Peers:         []Peer{{Name: "a", URL: "http://127.0.0.1:1"}, {Name: "dead", URL: "http://" + dead.Addr().String()}},
		StealInterval: -1,
		HTTPClient:    &http.Client{Timeout: 20 * time.Millisecond},
		Logf: func(format string, args ...any) {
			if strings.Contains(format, "replicate") {
				pushes.Add(1)
			}
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	exec := &jobs.Executor{Store: store}
	n.Wire(exec)
	for i := 0; i < replQueueCap; i++ {
		n.repl.enqueue(replItem{Key: fmt.Sprintf("result/%d", i), Value: json.RawMessage(`1`)})
	}
	sched := jobs.NewScheduler(exec, jobs.Options{})
	defer sched.Close()
	n.Start(sched, nil)
	for deadline := time.Now().Add(10 * time.Second); pushes.Load() == 0; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatal("the pusher never started on the backlog")
		}
	}

	closed := make(chan struct{})
	go func() {
		n.Close()
		close(closed)
	}()
	<-n.ctx.Done()
	atStop := pushes.Load()
	select {
	case <-closed:
	case <-time.After(5 * time.Second):
		t.Fatalf("Close still waiting after 5s; %d of %d queued pushes made", pushes.Load(), replQueueCap)
	}
	if after := pushes.Load() - atStop; after > 1 {
		t.Errorf("%d pushes after stop, want at most the one in flight", after)
	}
}

// TestCloseCancelsRequestsToSilentPeer: with the default config, a peer
// that accepts a connection and never answers cannot hold Node.Close.
// The node's own requests (back-fill, replication pushes, steal polls)
// carry a context Close cancels, so Close returns within a fixed bound
// and leaves no goroutine behind.
func TestCloseCancelsRequestsToSilentPeer(t *testing.T) {
	testutil.VerifyNoLeaks(t)
	silent, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer silent.Close()
	store, err := jobs.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer store.Close()
	n, err := New(Config{
		Self:  "a",
		Peers: []Peer{{Name: "a", URL: "http://127.0.0.1:1"}, {Name: "silent", URL: "http://" + silent.Addr().String()}},
	})
	if err != nil {
		t.Fatal(err)
	}
	exec := &jobs.Executor{Store: store}
	n.Wire(exec)
	sched := jobs.NewScheduler(exec, jobs.Options{})
	defer sched.Close()
	n.Start(sched, nil)
	if err := store.Put("result/x", 1); err != nil { // queues a push to the silent peer
		t.Fatal(err)
	}
	// Wait for a request to reach the peer: the node is now blocked on it.
	conn, err := silent.Accept()
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if _, err := conn.Read(make([]byte, 1)); err != nil {
		t.Fatal(err)
	}

	closed := make(chan struct{})
	go func() {
		n.Close()
		close(closed)
	}()
	select {
	case <-closed:
	case <-time.After(5 * time.Second):
		t.Fatal("Close still waiting on a silent peer after 5s")
	}
}

// TestBackfillRefusesOversizedSegment: a peer segment longer than
// maxSegmentBytes fails the fetch with jobs.ErrResponseTooLarge, and
// back-fill imports nothing from it — neither a segment file nor a
// record of its valid prefix.
func TestBackfillRefusesOversizedSegment(t *testing.T) {
	testutil.VerifyNoLeaks(t)
	const name = "seg-000001.jsonl"
	line := `{"k":"result/prefix","v":1}` + "\n"
	peer := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		switch r.URL.Path {
		case "/internal/segments":
			writeJSON(w, http.StatusOK, []jobs.SegmentInfo{{Name: name, Size: maxSegmentBytes + 1}})
		case "/internal/segments/" + name:
			// Streamed from a generator: the whole body is never in memory.
			w.Header().Set("Content-Length", strconv.Itoa(maxSegmentBytes+1))
			_, _ = io.Copy(w, &repeated{unit: []byte(line), n: maxSegmentBytes + 1})
		default:
			http.NotFound(w, r)
		}
	}))
	defer peer.Close()
	dir := t.TempDir()
	store, err := jobs.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer store.Close()
	var logs []string
	n, err := New(Config{
		Self:  "a",
		Peers: []Peer{{Name: "a", URL: "http://127.0.0.1:1"}, {Name: "b", URL: peer.URL}},
		Logf:  func(format string, args ...any) { logs = append(logs, fmt.Sprintf(format, args...)) },
	})
	if err != nil {
		t.Fatal(err)
	}
	n.Wire(&jobs.Executor{Store: store})

	if _, err := n.fetchSegment(n.others[0], name); !errors.Is(err, jobs.ErrResponseTooLarge) {
		t.Fatalf("fetchSegment of an oversized body: %v, want jobs.ErrResponseTooLarge", err)
	}
	var wg sync.WaitGroup
	wg.Add(1)
	n.backfill(&wg)
	if store.Len() != 0 {
		t.Errorf("back-fill imported %d records from an oversized segment", store.Len())
	}
	if segs, err := store.Segments(); err != nil || len(segs) != 0 {
		t.Errorf("oversized segment landed: %v %v", segs, err)
	}
	if len(logs) != 1 || !strings.Contains(logs[0], "exceeds its bound") {
		t.Errorf("back-fill logged %q, want one bound error", logs)
	}
}
