package jobs

import (
	"bufio"
	"encoding/json"
	"errors"
	"fmt"
	"log"
	"net/http"
	"strconv"
	"time"

	"repro/internal/telemetry"
)

// Server exposes the scheduler over HTTP/JSON:
//
//	POST   /jobs              submit {"spec": ..., "priority": n}
//	GET    /jobs/{key}        status
//	GET    /jobs/{key}/result result (202 while pending; ?wait=1 blocks)
//	GET    /jobs/{key}/stream NDJSON status stream until the job settles
//	DELETE /jobs/{key}        cancel
//	GET    /metrics           telemetry + optnetd_ serving gauges
//	GET    /snapshot          telemetry snapshot as JSON
//
// A full queue answers 429 with a Retry-After header.
type Server struct {
	// Sched serves the jobs.
	Sched *Scheduler
	// Live is the telemetry aggregate rendered by /metrics and /snapshot;
	// nil serves only the serving gauges.
	Live *telemetry.Live
}

// MaxSubmitBytes bounds a POST /jobs body, on a single node and on a
// cluster node alike: the server reads at most this many bytes and
// answers 413 when the request needs more. The largest legitimate
// submissions are trace-replay specs, which carry their whole arrival
// trace inline.
const MaxSubmitBytes = 16 << 20

// SubmitRequest is the POST /jobs body.
type SubmitRequest struct {
	// Spec is the job to run.
	Spec Spec `json:"spec"`
	// Priority orders the queue (higher first, FIFO within).
	Priority int `json:"priority"`
}

// Handler returns the server's HTTP handler.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /jobs", s.submit)
	mux.HandleFunc("GET /jobs/{key}", s.status)
	mux.HandleFunc("GET /jobs/{key}/result", s.result)
	mux.HandleFunc("GET /jobs/{key}/stream", s.stream)
	mux.HandleFunc("DELETE /jobs/{key}", s.cancel)
	mux.HandleFunc("GET /metrics", s.metrics)
	mux.HandleFunc("GET /snapshot", s.snapshot)
	return mux
}

// writeJSON writes v with the given status code.
func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(v)
}

// errorBody is the JSON error envelope.
type errorBody struct {
	Error string `json:"error"`
}

// BodyErrorStatus is the status for a request body that failed to read or
// decode: 413 when it overran its http.MaxBytesReader bound, 400
// otherwise.
func BodyErrorStatus(err error) int {
	var tooLarge *http.MaxBytesError
	if errors.As(err, &tooLarge) {
		return http.StatusRequestEntityTooLarge
	}
	return http.StatusBadRequest
}

// submit handles POST /jobs.
func (s *Server) submit(w http.ResponseWriter, r *http.Request) {
	var req SubmitRequest
	if err := json.NewDecoder(http.MaxBytesReader(w, r.Body, MaxSubmitBytes)).Decode(&req); err != nil {
		writeJSON(w, BodyErrorStatus(err), errorBody{Error: "bad request body: " + err.Error()})
		return
	}
	st, err := s.Sched.Submit(req.Spec, req.Priority)
	switch {
	case errors.Is(err, ErrBusy):
		w.Header().Set("Retry-After", strconv.Itoa(int(s.Sched.RetryAfter()/time.Second)))
		writeJSON(w, http.StatusTooManyRequests, errorBody{Error: err.Error()})
		return
	case err != nil:
		writeJSON(w, http.StatusBadRequest, errorBody{Error: err.Error()})
		return
	}
	code := http.StatusAccepted
	if st.State == StateDone {
		code = http.StatusOK
	}
	writeJSON(w, code, st)
}

// status handles GET /jobs/{key}.
func (s *Server) status(w http.ResponseWriter, r *http.Request) {
	st, err := s.Sched.Status(r.PathValue("key"))
	if err != nil {
		writeJSON(w, http.StatusNotFound, errorBody{Error: err.Error()})
		return
	}
	writeJSON(w, http.StatusOK, st)
}

// result handles GET /jobs/{key}/result; ?wait=1 blocks until the job
// settles (bounded by the request context).
func (s *Server) result(w http.ResponseWriter, r *http.Request) {
	key := r.PathValue("key")
	if r.URL.Query().Get("wait") == "1" {
		done, err := s.Sched.Done(key)
		if err != nil {
			writeJSON(w, http.StatusNotFound, errorBody{Error: err.Error()})
			return
		}
		select {
		case <-done:
		case <-r.Context().Done():
			writeJSON(w, http.StatusRequestTimeout, errorBody{Error: "client gave up waiting"})
			return
		}
	}
	res, st, err := s.Sched.Result(key)
	switch {
	case errors.Is(err, ErrUnknownJob):
		writeJSON(w, http.StatusNotFound, errorBody{Error: err.Error()})
	case err != nil:
		writeJSON(w, http.StatusConflict, st)
	case res == nil:
		writeJSON(w, http.StatusAccepted, st)
	default:
		writeJSON(w, http.StatusOK, res)
	}
}

// stream handles GET /jobs/{key}/stream: one status line per progress
// change (NDJSON), final line when the job settles.
func (s *Server) stream(w http.ResponseWriter, r *http.Request) {
	key := r.PathValue("key")
	done, err := s.Sched.Done(key)
	if err != nil {
		writeJSON(w, http.StatusNotFound, errorBody{Error: err.Error()})
		return
	}
	w.Header().Set("Content-Type", "application/x-ndjson")
	w.WriteHeader(http.StatusOK)
	flusher, _ := w.(http.Flusher)
	enc := json.NewEncoder(w)
	tick := time.NewTicker(50 * time.Millisecond)
	defer tick.Stop()
	var last JobStatus
	emit := func() bool {
		st, err := s.Sched.Status(key)
		if err != nil {
			return false
		}
		if st != last {
			last = st
			_ = enc.Encode(st)
			if flusher != nil {
				flusher.Flush()
			}
		}
		return true
	}
	if !emit() {
		return
	}
	for {
		select {
		case <-done:
			emit()
			return
		case <-r.Context().Done():
			return
		case <-tick.C:
			if !emit() {
				return
			}
		}
	}
}

// cancel handles DELETE /jobs/{key}.
func (s *Server) cancel(w http.ResponseWriter, r *http.Request) {
	key := r.PathValue("key")
	if err := s.Sched.Cancel(key); err != nil {
		writeJSON(w, http.StatusNotFound, errorBody{Error: err.Error()})
		return
	}
	st, err := s.Sched.Status(key)
	if err != nil {
		writeJSON(w, http.StatusNotFound, errorBody{Error: err.Error()})
		return
	}
	writeJSON(w, http.StatusOK, st)
}

// metrics handles GET /metrics: the telemetry aggregate in Prometheus
// text format followed by the optnetd_ serving gauges.
func (s *Server) metrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	if s.Live != nil {
		if err := s.Live.Snapshot().WritePrometheus(w); err != nil {
			http.Error(w, err.Error(), http.StatusInternalServerError)
			return
		}
	}
	m := s.Sched.Metrics()
	// Gauges render into a buffer first: writes to the concrete
	// *bufio.Writer cannot fail, and the one real failure mode — the
	// scraper hanging up mid-response — surfaces at the checked Flush.
	bw := bufio.NewWriter(w)
	gauge := func(name, help string, v float64) {
		fmt.Fprintf(bw, "# HELP %s %s\n# TYPE %s gauge\n%s %g\n", name, help, name, name, v)
	}
	gauge("optnetd_queue_depth", "Jobs waiting in the priority queue.", float64(m.QueueDepth))
	gauge("optnetd_jobs_running", "Jobs currently executing.", float64(m.Running))
	gauge("optnetd_cache_hits_total", "Submissions answered from the result store.", float64(m.CacheHits))
	gauge("optnetd_cache_misses_total", "Submissions that had to simulate.", float64(m.CacheMisses))
	gauge("optnetd_cache_hit_ratio", "Cache hits over completed submissions.", m.CacheHitRatio)
	gauge("optnetd_jobs_completed_total", "Jobs finished in any state.", float64(m.JobsDone))
	gauge("optnetd_jobs_per_second", "Job completion rate since start.", m.JobsPerSecond)
	if m.StoreEntries >= 0 {
		gauge("optnetd_store_entries", "Live keys in the result store.", float64(m.StoreEntries))
	}
	if err := bw.Flush(); err != nil {
		// The scraper disconnected mid-response; the status line is already
		// sent, so surfacing the failure to it is impossible. Count nothing:
		// /metrics must stay side-effect free.
		httpLogf("jobs: /metrics response truncated: %v", err)
	}
}

// httpLogf reports server-side I/O failures that cannot reach the client.
// It is a variable so tests can capture the message.
var httpLogf = log.Printf

// snapshot handles GET /snapshot.
func (s *Server) snapshot(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "application/json")
	if s.Live == nil {
		writeJSON(w, http.StatusOK, &telemetry.Snapshot{})
		return
	}
	if err := s.Live.Snapshot().WriteJSON(w); err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
	}
}
