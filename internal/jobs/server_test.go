package jobs

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"testing"
	"time"

	"repro/internal/canon"
	"repro/internal/sim"
	"repro/internal/telemetry"
	"repro/internal/testutil"
)

// newTestServer boots a full stack — store, executor, scheduler, HTTP
// handler — and returns the test server plus a client pointed at it.
func newTestServer(t *testing.T, opts Options) (*httptest.Server, *Client, *Scheduler) {
	t.Helper()
	// Runs after the server, scheduler and store cleanups (LIFO): an HTTP
	// handler still streaming or a worker still running is a failure.
	testutil.VerifyNoLeaks(t)
	store, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { store.Close() })
	live := telemetry.NewLive()
	sched := NewScheduler(&Executor{Store: store, Live: live}, opts)
	t.Cleanup(sched.Close)
	srv := httptest.NewServer((&Server{Sched: sched, Live: live}).Handler())
	t.Cleanup(srv.Close)
	return srv, &Client{BaseURL: srv.URL, HTTPClient: srv.Client()}, sched
}

// TestServerSubmitTwiceCacheHit is the end-to-end acceptance check: the
// same spec submitted twice over HTTP is simulated once; the second
// submission is answered from the store, byte-identical.
func TestServerSubmitTwiceCacheHit(t *testing.T) {
	srv, c, sched := newTestServer(t, Options{})
	spec := testSpec(42, 2)

	st, err := c.Submit(spec, 0)
	if err != nil {
		t.Fatal(err)
	}
	if st.State != StateQueued && st.State != StateRunning && st.State != StateDone {
		t.Fatalf("first submit state %s", st.State)
	}
	first, err := c.Result(st.Key)
	if err != nil {
		t.Fatal(err)
	}
	if first.Key != st.Key || len(first.Trials) != 2 {
		t.Fatalf("first result malformed: %+v", first)
	}

	// Drop the in-memory job record so only the store can answer.
	sched.mu.Lock()
	delete(sched.jobs, st.Key)
	sched.mu.Unlock()

	st2, err := c.Submit(spec, 0)
	if err != nil {
		t.Fatal(err)
	}
	if st2.State != StateDone || !st2.FromCache {
		t.Fatalf("second submit not served from cache: %+v", st2)
	}
	second, err := c.Result(st.Key)
	if err != nil {
		t.Fatal(err)
	}
	fb, _ := json.Marshal(first)
	sb, _ := json.Marshal(second)
	if !bytes.Equal(fb, sb) {
		t.Error("cached result differs from original over HTTP")
	}

	// The raw submit status code distinguishes hit (200) from accepted
	// (202).
	body, _ := json.Marshal(SubmitRequest{Spec: spec})
	resp, err := srv.Client().Post(srv.URL+"/jobs", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Errorf("cache-hit submit returned %d, want 200", resp.StatusCode)
	}
}

// TestServerServesStoredBytes: the result route answers with the bytes
// the store holds for the job plus a newline, with nothing decoded or
// re-encoded in between, for a cold job, for a hit after the in-memory
// job is dropped and for a hit through a new scheduler on the reopened
// store. Client.Result decodes those bytes to the value Executor.Run
// returns for the stored job, and they are the canonical encoding of a
// fresh run's result.
func TestServerServesStoredBytes(t *testing.T) {
	testutil.VerifyNoLeaks(t)
	dir := t.TempDir()
	spec := testSpec(44, 3)
	key := mustKey(t, spec)
	fresh, _, err := (&Executor{}).Run(spec, sim.NewEngine(), nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	want, err := canon.Marshal(fresh)
	if err != nil {
		t.Fatal(err)
	}

	// serve runs the server over a scheduler on the store in dir, calls
	// use with it, then shuts it down.
	serve := func(use func(store *Store, sched *Scheduler, srv *httptest.Server, c *Client)) {
		t.Helper()
		store, err := Open(dir)
		if err != nil {
			t.Fatal(err)
		}
		defer func() {
			if err := store.Close(); err != nil {
				t.Fatal(err)
			}
		}()
		sched := NewScheduler(&Executor{Store: store}, Options{})
		defer sched.Close()
		srv := httptest.NewServer((&Server{Sched: sched}).Handler())
		defer srv.Close()
		use(store, sched, srv, &Client{BaseURL: srv.URL, HTTPClient: srv.Client()})
	}
	// check submits the spec and compares what the result route serves
	// with the stored bytes and with Executor.Run.
	check := func(name string, store *Store, srv *httptest.Server, c *Client, fromCache bool) {
		t.Helper()
		st, err := c.Submit(spec, 0)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if st.FromCache != fromCache {
			t.Fatalf("%s: submit from_cache=%v, want %v", name, st.FromCache, fromCache)
		}
		resp, err := srv.Client().Get(srv.URL + "/jobs/" + key + "/result?wait=1")
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		body, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if resp.StatusCode != http.StatusOK || resp.Header.Get("Content-Type") != "application/json" {
			t.Fatalf("%s: HTTP %d, Content-Type %q", name, resp.StatusCode, resp.Header.Get("Content-Type"))
		}
		stored, ok := store.Get(ResultKey(key))
		if !ok {
			t.Fatalf("%s: result not stored", name)
		}
		if !bytes.Equal(body, append(bytes.Clone(stored), '\n')) {
			t.Errorf("%s: served body is not the stored bytes plus a newline:\n got %.200s\nwant %.200s", name, body, stored)
		}
		if !bytes.Equal(stored, want) {
			t.Errorf("%s: stored bytes are not the canonical encoding of a fresh run", name)
		}
		got, err := c.Result(key)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		run, hit, err := (&Executor{Store: store}).Run(spec, nil, nil, nil)
		if err != nil || !hit {
			t.Fatalf("%s: Executor.Run on the store: hit=%v err=%v", name, hit, err)
		}
		if !reflect.DeepEqual(got, run) {
			t.Errorf("%s: Client.Result differs from Executor.Run", name)
		}
	}

	serve(func(store *Store, sched *Scheduler, srv *httptest.Server, c *Client) {
		check("cold job", store, srv, c, false)
		sched.mu.Lock()
		delete(sched.jobs, key)
		sched.mu.Unlock()
		check("hit after the job is dropped", store, srv, c, true)
	})
	serve(func(store *Store, _ *Scheduler, srv *httptest.Server, c *Client) {
		check("hit on the reopened store", store, srv, c, true)
	})
}

// TestServerBackpressure429: a full queue yields HTTP 429 with a
// Retry-After header.
func TestServerBackpressure429(t *testing.T) {
	srv, c, _ := newTestServer(t, Options{Workers: 1, QueueSize: 1, RetryAfter: 3 * time.Second})
	// Occupy the worker, then the queue.
	st, err := c.Submit(testSpec(900, 10000), 0)
	if err != nil {
		t.Fatal(err)
	}
	for {
		cur, err := c.Status(st.Key)
		if err != nil {
			t.Fatal(err)
		}
		if cur.State == StateRunning {
			break
		}
		time.Sleep(time.Millisecond)
	}
	if _, err := c.Submit(testSpec(901, 1), 0); err != nil {
		t.Fatal(err)
	}
	body, _ := json.Marshal(SubmitRequest{Spec: testSpec(902, 1)})
	resp, err := srv.Client().Post(srv.URL+"/jobs", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("status %d, want 429", resp.StatusCode)
	}
	if ra := resp.Header.Get("Retry-After"); ra != "3" {
		t.Errorf("Retry-After = %q, want \"3\"", ra)
	}
	if err := c.Cancel(st.Key); err != nil {
		t.Fatal(err)
	}
}

// TestServerSubmitBodyBound: a POST /jobs body one byte over
// MaxSubmitBytes is refused with 413 and queues nothing, while the same
// spec in a normal-sized body is still accepted.
func TestServerSubmitBodyBound(t *testing.T) {
	srv, _, sched := newTestServer(t, Options{})
	spec := testSpec(77, 1)
	body, err := json.Marshal(SubmitRequest{Spec: spec})
	if err != nil {
		t.Fatal(err)
	}
	post := func(b []byte) int {
		t.Helper()
		resp, err := srv.Client().Post(srv.URL+"/jobs", "application/json", bytes.NewReader(b))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		return resp.StatusCode
	}

	// Pad inside the object, so the decoder has to read past the bound
	// to reach the closing brace.
	over := append(bytes.Clone(body[:len(body)-1]), bytes.Repeat([]byte(" "), MaxSubmitBytes-len(body)+1)...)
	over = append(over, '}')
	if len(over) != MaxSubmitBytes+1 {
		t.Fatalf("padded body is %d bytes, want %d", len(over), MaxSubmitBytes+1)
	}
	if code := post(over); code != http.StatusRequestEntityTooLarge {
		t.Fatalf("oversized submit: status %d, want 413", code)
	}
	if m := sched.Metrics(); m.QueueDepth != 0 || m.Running != 0 || m.JobsDone != 0 {
		t.Fatalf("oversized submit reached the scheduler: %+v", m)
	}
	if _, err := sched.Status(mustKey(t, spec)); !errors.Is(err, ErrUnknownJob) {
		t.Fatalf("oversized submit registered its job: %v", err)
	}

	if code := post(body); code != http.StatusAccepted {
		t.Fatalf("normal submit: status %d, want 202", code)
	}
}

// TestServerSubmitTrialsBound: an experiment asking for more trials than
// any job may run is refused with 400 and queues nothing; running it
// would size per-trial state from the count before any work.
func TestServerSubmitTrialsBound(t *testing.T) {
	srv, _, sched := newTestServer(t, Options{})
	resp, err := srv.Client().Post(srv.URL+"/jobs", "application/json",
		strings.NewReader(`{"spec":{"experiment":{"id":"E1","trials":2000000000}}}`))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("status %d, want 400", resp.StatusCode)
	}
	if m := sched.Metrics(); m.QueueDepth != 0 || m.Running != 0 || m.JobsDone != 0 {
		t.Fatalf("oversized experiment reached the scheduler: %+v", m)
	}
}

// TestServerRejectsUnbuildableNetworks: a route or dynamic job on a
// network whose constructor would panic is refused with 400 and queues
// nothing, and the daemon goes on serving.
func TestServerRejectsUnbuildableNetworks(t *testing.T) {
	srv, c, sched := newTestServer(t, Options{})
	for _, n := range unbuildableNetworks {
		dynamic := testDynamicSpec(t, 1, 1)
		dynamic.Dynamic.Network = n
		for _, spec := range []Spec{{Route: &RouteSpec{Network: n, Trials: 1}}, dynamic} {
			body, err := json.Marshal(SubmitRequest{Spec: spec})
			if err != nil {
				t.Fatal(err)
			}
			resp, err := srv.Client().Post(srv.URL+"/jobs", "application/json", bytes.NewReader(body))
			if err != nil {
				t.Fatal(err)
			}
			resp.Body.Close()
			if resp.StatusCode != http.StatusBadRequest {
				t.Fatalf("%+v: status %d, want 400", n, resp.StatusCode)
			}
		}
	}
	if m := sched.Metrics(); m.QueueDepth != 0 || m.Running != 0 || m.JobsDone != 0 {
		t.Fatalf("an unbuildable network reached the scheduler: %+v", m)
	}
	st, err := c.Submit(testSpec(5, 1), 0)
	if err != nil {
		t.Fatal(err)
	}
	if res, err := c.Result(st.Key); err != nil || len(res.Trials) != 1 {
		t.Fatalf("daemon stopped serving: %v", err)
	}
}

// TestServerRejectsOverlongRuns: a route or dynamic job whose run would
// span more steps than the serving limit is refused with 400 and queues
// nothing.
func TestServerRejectsOverlongRuns(t *testing.T) {
	srv, _, sched := newTestServer(t, Options{})
	for name, spec := range overlongSpecs(t) {
		body, err := json.Marshal(SubmitRequest{Spec: spec})
		if err != nil {
			t.Fatal(err)
		}
		resp, err := srv.Client().Post(srv.URL+"/jobs", "application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		msg, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest || !bytes.Contains(msg, []byte("steps, over the limit")) {
			t.Fatalf("%s: status %d (%s), want 400 for the span limit", name, resp.StatusCode, msg)
		}
	}
	if m := sched.Metrics(); m.QueueDepth != 0 || m.Running != 0 || m.JobsDone != 0 {
		t.Fatalf("an overlong run reached the scheduler: %+v", m)
	}
}

// TestServerStream: the NDJSON stream ends with a settled state.
func TestServerStream(t *testing.T) {
	srv, c, _ := newTestServer(t, Options{})
	st, err := c.Submit(testSpec(55, 5), 0)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := srv.Client().Get(srv.URL + "/jobs/" + st.Key + "/stream")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "application/x-ndjson" {
		t.Errorf("stream content type %q", ct)
	}
	var last JobStatus
	lines := 0
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		if err := json.Unmarshal(sc.Bytes(), &last); err != nil {
			t.Fatalf("bad stream line %q: %v", sc.Text(), err)
		}
		lines++
	}
	if lines == 0 {
		t.Fatal("empty stream")
	}
	if last.State != StateDone {
		t.Errorf("final streamed state %s", last.State)
	}
	if last.DoneTrials != 5 {
		t.Errorf("final streamed progress %d/5", last.DoneTrials)
	}
}

// TestServerCancelAndErrors: DELETE cancels; unknown keys 404; bad specs
// 400.
func TestServerCancelAndErrors(t *testing.T) {
	srv, c, _ := newTestServer(t, Options{Workers: 1})
	st, err := c.Submit(testSpec(66, 10000), 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Cancel(st.Key); err != nil {
		t.Fatal(err)
	}
	for {
		cur, err := c.Status(st.Key)
		if err != nil {
			t.Fatal(err)
		}
		if cur.State == StateCanceled {
			break
		}
		time.Sleep(time.Millisecond)
	}

	if _, err := c.Status("deadbeef"); err == nil || !strings.Contains(err.Error(), "HTTP 404") {
		t.Errorf("unknown status error: %v", err)
	}
	if err := c.Cancel("deadbeef"); err == nil {
		t.Error("unknown cancel succeeded")
	}
	if _, err := c.Submit(Spec{}, 0); err == nil || !strings.Contains(err.Error(), "HTTP 400") {
		t.Errorf("invalid spec error: %v", err)
	}
	resp, err := srv.Client().Post(srv.URL+"/jobs", "application/json", strings.NewReader("{not json"))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("garbage body status %d", resp.StatusCode)
	}
}

// TestServerMetrics: /metrics exposes telemetry and the optnetd_ gauges;
// /snapshot serves the telemetry snapshot.
func TestServerMetrics(t *testing.T) {
	srv, c, _ := newTestServer(t, Options{})
	st, err := c.Submit(testSpec(77, 2), 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Result(st.Key); err != nil {
		t.Fatal(err)
	}
	resp, err := srv.Client().Get(srv.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		t.Fatal(err)
	}
	text := buf.String()
	for _, want := range []string{
		"optnetd_queue_depth",
		"optnetd_jobs_running",
		"optnetd_cache_hits_total",
		"optnetd_cache_misses_total 1",
		"optnetd_cache_hit_ratio",
		"optnetd_jobs_completed_total 1",
		"optnetd_jobs_per_second",
		"optnetd_store_entries 1",
		"optnet_runs_total 2", // telemetry flowed into Live
	} {
		if !strings.Contains(text, want) {
			t.Errorf("/metrics missing %q", want)
		}
	}

	snap, err := srv.Client().Get(srv.URL + "/snapshot")
	if err != nil {
		t.Fatal(err)
	}
	defer snap.Body.Close()
	var s telemetry.Snapshot
	if err := json.NewDecoder(snap.Body).Decode(&s); err != nil {
		t.Fatal(err)
	}
	if s.Runs != 2 {
		t.Errorf("/snapshot runs = %d, want 2", s.Runs)
	}
}

// failingResponseWriter drops every body write, like a scraper that
// disconnected after the status line.
type failingResponseWriter struct{ header http.Header }

func (f *failingResponseWriter) Header() http.Header {
	if f.header == nil {
		f.header = http.Header{}
	}
	return f.header
}

func (f *failingResponseWriter) WriteHeader(int) {}

func (f *failingResponseWriter) Write([]byte) (int, error) {
	return 0, errors.New("connection reset by peer")
}

// TestServerMetricsTruncatedWrite pins the /metrics error path: a failed
// response write must be reported through httpLogf, not silently
// swallowed the way the old unbuffered fmt.Fprintf calls did.
func TestServerMetricsTruncatedWrite(t *testing.T) {
	sched := newTestScheduler(t, Options{})
	srv := &Server{Sched: sched}

	var logged []string
	old := httpLogf
	httpLogf = func(format string, args ...any) {
		logged = append(logged, fmt.Sprintf(format, args...))
	}
	defer func() { httpLogf = old }()

	srv.metrics(&failingResponseWriter{}, httptest.NewRequest("GET", "/metrics", nil))

	if len(logged) != 1 || !strings.Contains(logged[0], "/metrics response truncated") {
		t.Fatalf("expected one truncated-response log line, got %v", logged)
	}
}

// TestServerMetricsBuffered checks the happy path still renders every
// gauge after the buffering change.
func TestServerMetricsBuffered(t *testing.T) {
	sched := newTestScheduler(t, Options{})
	srv := &Server{Sched: sched}
	rr := httptest.NewRecorder()
	srv.metrics(rr, httptest.NewRequest("GET", "/metrics", nil))
	body := rr.Body.String()
	for _, want := range []string{
		"optnetd_queue_depth", "optnetd_jobs_running", "optnetd_cache_hits_total",
		"optnetd_jobs_completed_total", "optnetd_store_entries",
	} {
		if !strings.Contains(body, want) {
			t.Errorf("metrics output missing %s:\n%s", want, body)
		}
	}
}
