package jobs

import (
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/testutil"
)

// clientSpec is a minimal valid route spec for client tests.
func clientSpec() Spec {
	return Spec{Route: &RouteSpec{
		Network:  NetworkSpec{Kind: "torus", Dims: 2, Side: 4},
		Workload: WorkloadSpec{Kind: "permutation"},
		Protocol: ProtocolSpec{Bandwidth: 2, Length: 4},
		Seed:     1,
		Trials:   1,
	}}
}

// TestClientSubmitRetries429 drives Submit against servers that answer
// 429 a configured number of times, covering backoff-then-success and
// retry-budget exhaustion.
func TestClientSubmitRetries429(t *testing.T) {
	testutil.VerifyNoLeaks(t)
	cases := []struct {
		name       string
		rejections int64 // 429s before the server accepts
		budget     int   // client retry budget (0 = default 4)
		retryAfter string
		wantOK     bool
		wantSleeps int
	}{
		{name: "success first try", rejections: 0, budget: 2, wantOK: true, wantSleeps: 0},
		{name: "429 then success", rejections: 1, budget: 2, retryAfter: "1", wantOK: true, wantSleeps: 1},
		{name: "429s within budget", rejections: 4, budget: 0, retryAfter: "1", wantOK: true, wantSleeps: 4},
		{name: "budget exhausted", rejections: 3, budget: 2, retryAfter: "1", wantOK: false, wantSleeps: 2},
		{name: "retries disabled", rejections: 1, budget: -1, wantOK: false, wantSleeps: 0},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var submits atomic.Int64
			srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
				if submits.Add(1) <= tc.rejections {
					if tc.retryAfter != "" {
						w.Header().Set("Retry-After", tc.retryAfter)
					}
					writeJSON(w, http.StatusTooManyRequests, errorBody{Error: "jobs: queue full"})
					return
				}
				writeJSON(w, http.StatusAccepted, JobStatus{Key: "k", State: StateQueued})
			}))
			defer srv.Close()

			var sleeps []time.Duration
			c := &Client{
				BaseURL:     srv.URL,
				RetryBudget: tc.budget,
				Sleep:       func(d time.Duration) { sleeps = append(sleeps, d) },
			}
			st, err := c.Submit(clientSpec(), 0)
			if tc.wantOK {
				if err != nil {
					t.Fatalf("Submit: %v", err)
				}
				if st.Key != "k" {
					t.Fatalf("got status %+v", st)
				}
			} else {
				if err == nil {
					t.Fatalf("Submit succeeded, want budget exhaustion (status %+v)", st)
				}
				if !strings.Contains(err.Error(), "retry budget exhausted") {
					t.Fatalf("error %q does not name the exhausted budget", err)
				}
			}
			if len(sleeps) != tc.wantSleeps {
				t.Fatalf("slept %d times (%v), want %d", len(sleeps), sleeps, tc.wantSleeps)
			}
			// Every backoff must honor the server's hint as its floor and
			// stay under the cap plus jitter headroom.
			for i, d := range sleeps {
				if tc.retryAfter == "1" && d < time.Second {
					t.Errorf("sleep %d = %v shorter than the Retry-After hint", i, d)
				}
				if d > 10*time.Second {
					t.Errorf("sleep %d = %v exceeds any sane cap", i, d)
				}
			}
		})
	}
}

// TestClientBackoffDeterministic pins the jitter seam: the same
// (base URL, key, attempt) triple always produces the same delay, and
// delays are capped.
func TestClientBackoffDeterministic(t *testing.T) {
	c := &Client{BaseURL: "http://x", BackoffCap: 2 * time.Second}
	d1 := c.backoffDelay("k", 3, 500*time.Millisecond)
	d2 := c.backoffDelay("k", 3, 500*time.Millisecond)
	if d1 != d2 {
		t.Fatalf("backoff not deterministic: %v vs %v", d1, d2)
	}
	// 500ms << 3 = 4s caps at 2s, plus at most 25% jitter.
	if d1 < 2*time.Second || d1 > 2*time.Second+2*time.Second/4+time.Millisecond {
		t.Fatalf("capped delay %v outside [cap, cap+25%%]", d1)
	}
	if d3 := c.backoffDelay("other", 3, 500*time.Millisecond); d3 == d1 {
		t.Logf("distinct keys share a jitter value (legal, just unlucky)")
	}
}

// TestClientHeaderApplied verifies the extra header fields ride on every
// request — the cluster layer's forwarding hop accounting depends on it.
func TestClientHeaderApplied(t *testing.T) {
	testutil.VerifyNoLeaks(t)
	var got atomic.Value
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		got.Store(r.Header.Get("X-Optnet-Via"))
		writeJSON(w, http.StatusAccepted, JobStatus{Key: "k"})
	}))
	defer srv.Close()
	c := &Client{BaseURL: srv.URL, Header: http.Header{"X-Optnet-Via": []string{"a,b"}}}
	if _, err := c.Submit(clientSpec(), 0); err != nil {
		t.Fatal(err)
	}
	if v, _ := got.Load().(string); v != "a,b" {
		t.Fatalf("header not forwarded: got %q", v)
	}
}

// closeRecorder is a response body that records its Close.
type closeRecorder struct {
	io.Reader
	closed bool
}

// Close implements io.Closer.
func (c *closeRecorder) Close() error {
	c.closed = true
	return nil
}

// TestReadResponse pins the bounded read at a 4-byte limit: a body at the
// bound reads whole, one past it fails with ErrResponseTooLarge instead
// of returning a prefix, and so does a body that declares a longer
// Content-Length. The body is closed either way.
func TestReadResponse(t *testing.T) {
	for _, tc := range []struct {
		body     string
		declared int64
		ok       bool
	}{
		{"", 0, true},
		{"abc", -1, true},
		{"abcd", -1, true},
		{"abcd", 4, true},
		{"abcde", -1, false},
		{"abcdefgh", -1, false},
		{"ab", 5, false},
	} {
		body := &closeRecorder{Reader: strings.NewReader(tc.body)}
		data, err := ReadResponse(&http.Response{Body: body, ContentLength: tc.declared}, 4)
		switch {
		case tc.ok && (err != nil || string(data) != tc.body):
			t.Errorf("%q (declared %d): got %q, %v; want the whole body", tc.body, tc.declared, data, err)
		case !tc.ok && (!errors.Is(err, ErrResponseTooLarge) || data != nil):
			t.Errorf("%q (declared %d): got %q, %v; want ErrResponseTooLarge", tc.body, tc.declared, data, err)
		}
		if !body.closed {
			t.Errorf("%q (declared %d): body not closed", tc.body, tc.declared)
		}
	}
}
