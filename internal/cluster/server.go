package cluster

import (
	"bufio"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"

	"repro/internal/jobs"
)

// Handler returns the node's HTTP handler: the full jobs API with
// ownership forwarding layered on top, plus the peer-only /internal
// endpoints (work stealing, record replication, segment shipping).
// /internal is unauthenticated by design — the cluster assumes a
// private network, like the rest of the daemon's API.
func (n *Node) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /jobs", n.submit)
	mux.HandleFunc("GET /jobs/{key}", n.status)
	mux.HandleFunc("GET /jobs/{key}/result", n.result)
	mux.HandleFunc("GET /metrics", n.metrics)
	mux.HandleFunc("POST /internal/steal", n.handleSteal)
	mux.HandleFunc("POST /internal/steal/complete", n.handleStealComplete)
	mux.HandleFunc("POST /internal/store", n.handleStorePut)
	// Store keys contain slashes (result/<hex>, ckpt/<hex>), hence the
	// rest-of-path wildcard.
	mux.HandleFunc("GET /internal/store/{key...}", n.handleStoreGet)
	mux.HandleFunc("GET /internal/segments", n.handleSegmentList)
	mux.HandleFunc("GET /internal/segments/{name}", n.handleSegmentGet)
	mux.HandleFunc("POST /internal/segments/{name}", n.handleSegmentPut)
	// Everything else — streams, cancels, snapshots — serves locally.
	mux.Handle("/", n.inner)
	return mux
}

// writeJSON writes v with the given status code.
func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	// The client hanging up mid-response is the only failure mode and it
	// has nowhere to surface.
	_ = enc.Encode(v)
}

// errorBody is the JSON error envelope, matching the jobs server's.
type errorBody struct {
	Error string `json:"error"`
}

// submit handles POST /jobs: forward to the key's owner when the hop
// budget allows, execute locally otherwise (including when the owner is
// unreachable — placement is best effort, availability is not).
func (n *Node) submit(w http.ResponseWriter, r *http.Request) {
	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, jobs.MaxSubmitBytes))
	if err != nil {
		writeJSON(w, jobs.BodyErrorStatus(err), errorBody{Error: "bad request body: " + err.Error()})
		return
	}
	var req jobs.SubmitRequest
	if err := json.Unmarshal(body, &req); err != nil {
		writeJSON(w, http.StatusBadRequest, errorBody{Error: "bad request body: " + err.Error()})
		return
	}
	key, err := req.Spec.Key()
	if err != nil {
		writeJSON(w, http.StatusBadRequest, errorBody{Error: err.Error()})
		return
	}
	via := r.Header.Get(viaHeader)
	if owner, ok := n.shouldForward(key, via); ok {
		st, err := n.forwardSubmit(owner, via, req)
		if err == nil {
			code := http.StatusAccepted
			if st.State == jobs.StateDone {
				code = http.StatusOK
			}
			writeJSON(w, code, st)
			return
		}
		n.m.forwardFallbacks.Add(1)
		n.cfg.Logf("cluster: %s: forward %s to owner %s failed (%v); executing locally", n.cfg.Self, key, owner.Name, err)
	}
	n.localSubmit(w, req)
}

// localSubmit runs a submit on the local scheduler, mirroring the jobs
// server's status mapping.
func (n *Node) localSubmit(w http.ResponseWriter, req jobs.SubmitRequest) {
	st, err := n.sched.Submit(req.Spec, req.Priority)
	switch {
	case errors.Is(err, jobs.ErrBusy):
		w.Header().Set("Retry-After", fmt.Sprintf("%d", int(n.sched.RetryAfter().Seconds())))
		writeJSON(w, http.StatusTooManyRequests, errorBody{Error: err.Error()})
		return
	case err != nil:
		writeJSON(w, http.StatusBadRequest, errorBody{Error: err.Error()})
		return
	}
	code := http.StatusAccepted
	if st.State == jobs.StateDone {
		code = http.StatusOK
	}
	writeJSON(w, code, st)
}

// status handles GET /jobs/{key}: serve locally known jobs, otherwise
// ask the owner.
func (n *Node) status(w http.ResponseWriter, r *http.Request) {
	key := r.PathValue("key")
	if _, err := n.sched.Status(key); err == nil {
		n.inner.ServeHTTP(w, r)
		return
	}
	via := r.Header.Get(viaHeader)
	owner, ok := n.shouldForward(key, via)
	if !ok {
		n.inner.ServeHTTP(w, r)
		return
	}
	st, err := n.peerClient(owner, via).Status(key)
	if err != nil {
		writeJSON(w, http.StatusNotFound, errorBody{Error: err.Error()})
		return
	}
	writeJSON(w, http.StatusOK, st)
}

// result handles GET /jobs/{key}/result, forwarding to the owner for
// jobs this node never saw.
func (n *Node) result(w http.ResponseWriter, r *http.Request) {
	key := r.PathValue("key")
	if _, err := n.sched.Status(key); err == nil {
		n.inner.ServeHTTP(w, r)
		return
	}
	via := r.Header.Get(viaHeader)
	owner, ok := n.shouldForward(key, via)
	if !ok {
		n.inner.ServeHTTP(w, r)
		return
	}
	res, err := n.peerClient(owner, via).Result(key)
	if err != nil {
		writeJSON(w, http.StatusNotFound, errorBody{Error: err.Error()})
		return
	}
	writeJSON(w, http.StatusOK, res)
}

// metrics handles GET /metrics: the jobs server's output with the
// optnetd_cluster_ gauges appended.
func (n *Node) metrics(w http.ResponseWriter, r *http.Request) {
	n.inner.ServeHTTP(w, r)
	m := n.Metrics()
	bw := bufio.NewWriter(w)
	gauge := func(name, help string, v uint64) {
		fmt.Fprintf(bw, "# HELP %s %s\n# TYPE %s counter\n%s %d\n", name, help, name, name, v)
	}
	gauge("optnetd_cluster_forwards_total", "Submits forwarded to their owner.", m.Forwards)
	gauge("optnetd_cluster_forward_fallbacks_total", "Submits executed locally after a failed forward.", m.ForwardFallbacks)
	gauge("optnetd_cluster_trials_leased_total", "Trials handed to thieves by this owner.", m.TrialsLeased)
	gauge("optnetd_cluster_trials_stolen_total", "Trials executed for other owners.", m.TrialsStolen)
	gauge("optnetd_cluster_repl_records_total", "Record copies shipped to peers.", m.ReplRecords)
	gauge("optnetd_cluster_repl_segments_total", "Sealed segments shipped to peers.", m.ReplSegments)
	gauge("optnetd_cluster_repl_drops_total", "Replication queue overflows.", m.ReplDrops)
	gauge("optnetd_cluster_repair_hits_total", "Store misses answered by a replica.", m.RepairHits)
	gauge("optnetd_cluster_repair_misses_total", "Store misses no replica could answer.", m.RepairMisses)
	if err := bw.Flush(); err != nil {
		n.cfg.Logf("cluster: /metrics response truncated: %v", err)
	}
}

// maxStealBytes bounds a POST /internal/steal body. A StealRequest is a
// thief name and a batch size, so a megabyte is already generous.
const maxStealBytes = 1 << 20

// handleSteal handles POST /internal/steal: grant a trial lease or 204.
func (n *Node) handleSteal(w http.ResponseWriter, r *http.Request) {
	var req StealRequest
	if err := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxStealBytes)).Decode(&req); err != nil {
		writeJSON(w, jobs.BodyErrorStatus(err), errorBody{Error: err.Error()})
		return
	}
	work, ok := n.steal.steal(req)
	if !ok {
		w.WriteHeader(http.StatusNoContent)
		return
	}
	writeJSON(w, http.StatusOK, work)
}

// The bounds of the peer routes that carry results. A steal batch holds
// a telemetry snapshot per trial, which grows with the network's link
// count; a replicated record is one stored value; a shipped segment rolls
// at jobs.DefaultSegmentBytes unless a single record outgrows that.
const (
	// maxStealCompleteBytes bounds a POST /internal/steal/complete body.
	maxStealCompleteBytes = 256 << 20
	// maxStoreRecordBytes bounds a POST /internal/store body.
	maxStoreRecordBytes = 64 << 20
	// maxSegmentBytes bounds a POST /internal/segments/{name} body.
	maxSegmentBytes = 256 << 20
)

// boundedBody returns r's body bounded at limit bytes: a read past the
// limit fails with *http.MaxBytesError, which jobs.BodyErrorStatus maps
// to 413. A body that declares a larger Content-Length fails its first
// read, so the route refuses it without reading or buffering any of it.
func boundedBody(w http.ResponseWriter, r *http.Request, limit int64) io.Reader {
	if r.ContentLength > limit {
		return errReader{&http.MaxBytesError{Limit: limit}}
	}
	return http.MaxBytesReader(w, r.Body, limit)
}

// errReader is a reader whose every read fails with err.
type errReader struct{ err error }

// Read implements io.Reader.
func (e errReader) Read([]byte) (int, error) { return 0, e.err }

// handleStealComplete handles POST /internal/steal/complete.
func (n *Node) handleStealComplete(w http.ResponseWriter, r *http.Request) {
	var sc StealComplete
	if err := json.NewDecoder(boundedBody(w, r, maxStealCompleteBytes)).Decode(&sc); err != nil {
		writeJSON(w, jobs.BodyErrorStatus(err), errorBody{Error: err.Error()})
		return
	}
	if err := n.steal.complete(sc); err != nil {
		// Gone or congested: the thief drops the batch and the lease TTL
		// re-runs the trials; nothing is lost either way.
		writeJSON(w, http.StatusConflict, errorBody{Error: err.Error()})
		return
	}
	writeJSON(w, http.StatusOK, struct{}{})
}

// handleStorePut handles POST /internal/store: ingest one replicated
// record. PutRaw skips the observer, so the copy is not re-replicated.
func (n *Node) handleStorePut(w http.ResponseWriter, r *http.Request) {
	if n.store == nil {
		writeJSON(w, http.StatusServiceUnavailable, errorBody{Error: "no store on this node"})
		return
	}
	var it replItem
	if err := json.NewDecoder(boundedBody(w, r, maxStoreRecordBytes)).Decode(&it); err != nil {
		writeJSON(w, jobs.BodyErrorStatus(err), errorBody{Error: err.Error()})
		return
	}
	if it.Key == "" || len(it.Value) == 0 {
		writeJSON(w, http.StatusBadRequest, errorBody{Error: "record needs key and value"})
		return
	}
	if err := n.store.PutRaw(it.Key, it.Value); err != nil {
		writeJSON(w, http.StatusInternalServerError, errorBody{Error: err.Error()})
		return
	}
	writeJSON(w, http.StatusOK, struct{}{})
}

// handleStoreGet handles GET /internal/store/{key}: raw value or 404.
func (n *Node) handleStoreGet(w http.ResponseWriter, r *http.Request) {
	if n.store == nil {
		writeJSON(w, http.StatusServiceUnavailable, errorBody{Error: "no store on this node"})
		return
	}
	raw, ok := n.store.Get(r.PathValue("key"))
	if !ok {
		writeJSON(w, http.StatusNotFound, errorBody{Error: "unknown key"})
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(http.StatusOK)
	if _, err := w.Write(raw); err != nil {
		n.cfg.Logf("cluster: /internal/store response truncated: %v", err)
	}
}

// handleSegmentList handles GET /internal/segments.
func (n *Node) handleSegmentList(w http.ResponseWriter, r *http.Request) {
	if n.store == nil {
		writeJSON(w, http.StatusServiceUnavailable, errorBody{Error: "no store on this node"})
		return
	}
	infos, err := n.store.Segments()
	if err != nil {
		writeJSON(w, http.StatusInternalServerError, errorBody{Error: err.Error()})
		return
	}
	writeJSON(w, http.StatusOK, infos)
}

// handleSegmentGet handles GET /internal/segments/{name}.
func (n *Node) handleSegmentGet(w http.ResponseWriter, r *http.Request) {
	if n.store == nil {
		writeJSON(w, http.StatusServiceUnavailable, errorBody{Error: "no store on this node"})
		return
	}
	data, err := n.store.ReadSegment(r.PathValue("name"))
	if err != nil {
		writeJSON(w, http.StatusNotFound, errorBody{Error: err.Error()})
		return
	}
	w.Header().Set("Content-Type", "application/octet-stream")
	w.WriteHeader(http.StatusOK)
	if _, err := w.Write(data); err != nil {
		n.cfg.Logf("cluster: /internal/segments response truncated: %v", err)
	}
}

// handleSegmentPut handles POST /internal/segments/{name}?origin=peer:
// import a shipped segment (gap fill only; local data always wins).
func (n *Node) handleSegmentPut(w http.ResponseWriter, r *http.Request) {
	if n.store == nil {
		writeJSON(w, http.StatusServiceUnavailable, errorBody{Error: "no store on this node"})
		return
	}
	origin := r.URL.Query().Get("origin")
	data, err := io.ReadAll(boundedBody(w, r, maxSegmentBytes))
	if err != nil {
		writeJSON(w, jobs.BodyErrorStatus(err), errorBody{Error: err.Error()})
		return
	}
	added, err := n.store.ImportSegment(origin, r.PathValue("name"), data)
	if err != nil {
		writeJSON(w, http.StatusBadRequest, errorBody{Error: err.Error()})
		return
	}
	writeJSON(w, http.StatusOK, map[string]int{"applied": added})
}
