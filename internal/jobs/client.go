package jobs

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"hash/fnv"
	"io"
	"net/http"
	"strconv"
	"strings"
	"time"
)

// Client talks to an optnetd server. The zero value is not usable; set
// BaseURL (e.g. "http://localhost:9090").
//
// Submit retries 429 backpressure responses: the server's Retry-After
// hint seeds a capped exponential backoff with deterministic jitter, so
// a burst of rejected clients spreads out instead of re-stampeding the
// queue in lockstep. All other methods fail fast.
type Client struct {
	// BaseURL is the server root, without a trailing slash.
	BaseURL string
	// HTTPClient overrides http.DefaultClient when set.
	HTTPClient *http.Client
	// Header fields are added to every request. Cluster forwarding uses
	// this for hop accounting (X-Optnet-Via); plain clients leave it nil.
	Header http.Header
	// RetryBudget is the maximum number of retried Submit attempts after
	// a 429 (so a submit makes at most RetryBudget+1 requests). Zero
	// selects the default of 4; negative disables retrying.
	RetryBudget int
	// BackoffCap bounds one backoff sleep (default 5s).
	BackoffCap time.Duration
	// Sleep is the backoff sleep seam (default time.Sleep); tests inject
	// a recorder.
	Sleep func(time.Duration)
}

// defaultRetryBudget is the 429 retry budget when the caller sets none.
const defaultRetryBudget = 4

// httpClient returns the configured or default HTTP client.
func (c *Client) httpClient() *http.Client {
	if c.HTTPClient != nil {
		return c.HTTPClient
	}
	return http.DefaultClient
}

// url joins the base URL and path.
func (c *Client) url(path string) string {
	return strings.TrimSuffix(c.BaseURL, "/") + path
}

// do issues one request with the client's extra header fields applied.
func (c *Client) do(method, url string, body []byte) (*http.Response, error) {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequest(method, url, rd)
	if err != nil {
		return nil, err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	//optlint:allow mapiter order-independent: each key Adds only its own values to req.Header
	for k, vs := range c.Header {
		for _, v := range vs {
			req.Header.Add(k, v)
		}
	}
	return c.httpClient().Do(req)
}

// maxResponseBytes bounds a response body the client reads.
const maxResponseBytes = 64 << 20

// ErrResponseTooLarge is wrapped by ReadResponse's error for a body
// longer than its bound.
var ErrResponseTooLarge = errors.New("jobs: response body exceeds its bound")

// ReadResponse reads and closes resp's body, which may hold at most limit
// bytes. A longer body is an error wrapping ErrResponseTooLarge, never a
// silent prefix: a body that declares a longer Content-Length is refused
// unread, and otherwise at most limit+1 bytes are read to tell a body at
// the bound from one past it.
func ReadResponse(resp *http.Response, limit int64) ([]byte, error) {
	//optlint:allow errsink the body is only read; close cannot lose data
	defer resp.Body.Close()
	if resp.ContentLength > limit {
		return nil, fmt.Errorf("%w: %d bytes declared, bound %d", ErrResponseTooLarge, resp.ContentLength, limit)
	}
	data, err := io.ReadAll(io.LimitReader(resp.Body, limit+1))
	if err != nil {
		return nil, err
	}
	if int64(len(data)) > limit {
		return nil, fmt.Errorf("%w: more than %d bytes", ErrResponseTooLarge, limit)
	}
	return data, nil
}

// readBody reads one response body, translating error envelopes and
// 4xx/5xx statuses into errors.
func readBody(resp *http.Response) ([]byte, error) {
	body, err := ReadResponse(resp, maxResponseBytes)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode >= 400 {
		var e errorBody
		if json.Unmarshal(body, &e) == nil && e.Error != "" {
			return nil, fmt.Errorf("jobs: server: %s (HTTP %d)", e.Error, resp.StatusCode)
		}
		return nil, fmt.Errorf("jobs: server: HTTP %d", resp.StatusCode)
	}
	return body, nil
}

// decode reads one JSON response into out (nil: body discarded), like
// readBody.
func decode(resp *http.Response, out any) error {
	body, err := readBody(resp)
	if err != nil || out == nil {
		return err
	}
	return json.Unmarshal(body, out)
}

// backoffDelay computes the sleep before retry number attempt (0-based):
// the server's Retry-After hint (or 100ms absent one) doubled per
// attempt, capped, plus up to 25% deterministic jitter keyed on the
// request and attempt. Hash-derived jitter keeps the client free of
// ambient randomness (reproducible tests) while still de-synchronizing
// distinct keys and attempts.
func (c *Client) backoffDelay(key string, attempt int, retryAfter time.Duration) time.Duration {
	base := retryAfter
	if base <= 0 {
		base = 100 * time.Millisecond
	}
	maxDelay := c.BackoffCap
	if maxDelay <= 0 {
		maxDelay = 5 * time.Second
	}
	d := base << uint(attempt)
	if d > maxDelay || d <= 0 { // <= 0: shift overflow
		d = maxDelay
	}
	h := fnv.New64a()
	_, _ = io.WriteString(h, c.BaseURL)
	_, _ = io.WriteString(h, key)
	_, _ = io.WriteString(h, strconv.Itoa(attempt))
	jitter := time.Duration(h.Sum64() % uint64(d/4+1))
	return d + jitter
}

// retryAfterHint parses a 429 response's Retry-After header (seconds).
func retryAfterHint(resp *http.Response) time.Duration {
	secs, err := strconv.Atoi(resp.Header.Get("Retry-After"))
	if err != nil || secs < 0 {
		return 0
	}
	return time.Duration(secs) * time.Second
}

// Submit submits the spec and returns the job's status. A previously
// stored result comes back already done with FromCache set. A 429 (full
// queue) is retried with capped exponential backoff seeded by the
// server's Retry-After hint until the retry budget is exhausted.
func (c *Client) Submit(spec Spec, priority int) (JobStatus, error) {
	body, err := json.Marshal(SubmitRequest{Spec: spec, Priority: priority})
	if err != nil {
		return JobStatus{}, err
	}
	key, _ := spec.Key() // jitter seed only; the server re-validates
	budget := c.RetryBudget
	if budget == 0 {
		budget = defaultRetryBudget
	}
	if budget < 0 {
		budget = 0
	}
	sleep := c.Sleep
	if sleep == nil {
		sleep = time.Sleep
	}
	for attempt := 0; ; attempt++ {
		resp, err := c.do(http.MethodPost, c.url("/jobs"), body)
		if err != nil {
			return JobStatus{}, err
		}
		if resp.StatusCode == http.StatusTooManyRequests && attempt < budget {
			hint := retryAfterHint(resp)
			_ = decode(resp, nil) // drains and closes; a 429 always decodes to an error
			sleep(c.backoffDelay(key, attempt, hint))
			continue
		}
		if resp.StatusCode == http.StatusTooManyRequests {
			if err := decode(resp, nil); err != nil {
				return JobStatus{}, fmt.Errorf("jobs: retry budget exhausted after %d attempts: %w", attempt+1, err)
			}
			return JobStatus{}, fmt.Errorf("jobs: retry budget exhausted after %d attempts", attempt+1)
		}
		var st JobStatus
		if err := decode(resp, &st); err != nil {
			return JobStatus{}, err
		}
		return st, nil
	}
}

// Status fetches the job's current status.
func (c *Client) Status(key string) (JobStatus, error) {
	resp, err := c.do(http.MethodGet, c.url("/jobs/"+key), nil)
	if err != nil {
		return JobStatus{}, err
	}
	var st JobStatus
	if err := decode(resp, &st); err != nil {
		return JobStatus{}, err
	}
	return st, nil
}

// Result fetches the job's result, blocking server-side until the job
// settles.
func (c *Client) Result(key string) (*Result, error) {
	raw, err := c.ResultJSON(key)
	if err != nil {
		return nil, err
	}
	res, err := decodeResult(raw)
	if err != nil {
		return nil, fmt.Errorf("jobs: result of %s: %w", key, err)
	}
	return res, nil
}

// ResultJSON fetches the job's result as the canonical JSON the server
// stores for it, blocking server-side until the job settles.
func (c *Client) ResultJSON(key string) (json.RawMessage, error) {
	resp, err := c.do(http.MethodGet, c.url("/jobs/"+key+"/result?wait=1"), nil)
	if err != nil {
		return nil, err
	}
	body, err := readBody(resp)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("jobs: result of %s: HTTP %d", key, resp.StatusCode)
	}
	return bytes.TrimSuffix(body, []byte("\n")), nil
}

// Cancel cancels the job.
func (c *Client) Cancel(key string) error {
	resp, err := c.do(http.MethodDelete, c.url("/jobs/"+key), nil)
	if err != nil {
		return err
	}
	return decode(resp, nil)
}
