package jobs

import (
	"container/heap"
	"encoding/json"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/canon"
	"repro/internal/sim"
)

// ErrBusy is returned by Submit when the queue is at capacity; servers
// translate it into a 429 with the scheduler's RetryAfter hint.
var ErrBusy = errors.New("jobs: queue full")

// ErrUnknownJob is returned for keys the scheduler has never seen.
var ErrUnknownJob = errors.New("jobs: unknown job")

// JobState enumerates a job's lifecycle.
type JobState string

// Job lifecycle states.
const (
	// StateQueued means the job waits in the priority queue.
	StateQueued JobState = "queued"
	// StateRunning means a worker is executing the job.
	StateRunning JobState = "running"
	// StateDone means the job finished and its result is available.
	StateDone JobState = "done"
	// StateFailed means the job finished with an error.
	StateFailed JobState = "failed"
	// StateCanceled means the job was canceled; its checkpoint, if any,
	// is retained for a later resume.
	StateCanceled JobState = "canceled"
)

// JobStatus is a point-in-time, serializable view of one job.
type JobStatus struct {
	// Key is the job's content address.
	Key string `json:"key"`
	// State is the job's lifecycle state.
	State JobState `json:"state"`
	// Priority is the submission priority (higher runs first).
	Priority int `json:"priority"`
	// FromCache reports whether the result came from the store without
	// re-simulation.
	FromCache bool `json:"from_cache"`
	// DoneTrials and TotalTrials report sweep progress.
	DoneTrials int `json:"done_trials"`
	// TotalTrials is the sweep's trial count (0 for experiment jobs until
	// known).
	TotalTrials int `json:"total_trials"`
	// Error is the failure message for failed/canceled jobs.
	Error string `json:"error,omitempty"`
}

// job is the scheduler's internal record; its mutable fields are guarded
// by the scheduler mutex except cancel and doneTrials, which the worker
// touches mid-run. A job holds its spec only until a worker takes it, and
// a done job keeps its result as canonical JSON, the bytes the store
// holds, so serving it needs no encoding.
type job struct {
	key      string
	spec     Spec //optlint:guardedby mu
	priority int
	seq      uint64
	heapIdx  int //optlint:guardedby mu

	state       JobState //optlint:guardedby mu
	fromCache   bool     //optlint:guardedby mu
	totalTrials int
	doneTrials  atomic.Int64
	cancel      atomic.Bool
	err         error           //optlint:guardedby mu
	result      json.RawMessage //optlint:guardedby mu
	done        chan struct{}
}

// jobHeap orders queued jobs by descending priority, FIFO within a
// priority (ascending sequence number).
type jobHeap []*job

// Len implements heap.Interface.
func (h jobHeap) Len() int { return len(h) }

// Less implements heap.Interface: higher priority first, then FIFO.
//
//optlint:locked mu
func (h jobHeap) Less(i, j int) bool {
	if h[i].priority != h[j].priority {
		return h[i].priority > h[j].priority
	}
	return h[i].seq < h[j].seq
}

// Swap implements heap.Interface, maintaining each job's heap index.
//
//optlint:locked mu
func (h jobHeap) Swap(i, j int) {
	h[i], h[j] = h[j], h[i]
	h[i].heapIdx = i
	h[j].heapIdx = j
}

// Push implements heap.Interface.
//
//optlint:locked mu
func (h *jobHeap) Push(x any) {
	j := x.(*job)
	j.heapIdx = len(*h)
	*h = append(*h, j)
}

// Pop implements heap.Interface.
//
//optlint:locked mu
func (h *jobHeap) Pop() any {
	old := *h
	n := len(old)
	j := old[n-1]
	old[n-1] = nil
	j.heapIdx = -1
	*h = old[:n-1]
	return j
}

// Options configure a Scheduler.
type Options struct {
	// Workers is the worker-goroutine count (default 1). Each worker owns
	// one reused sim.Engine, preserving the allocation-free steady state.
	Workers int
	// QueueSize bounds the number of queued jobs (default 64); further
	// submissions get ErrBusy.
	QueueSize int
	// RetryAfter is the backpressure hint returned with ErrBusy
	// (default 1s).
	RetryAfter time.Duration
	// Now is the scheduler's clock. The caller injects it (cmd/optnetd
	// passes time.Now); nil falls back to a frozen zero clock, which only
	// zeroes the jobs-per-second gauge — scheduling itself is clock-free.
	Now func() time.Time
}

// Scheduler serves job submissions: it deduplicates identical in-flight
// jobs (singleflight by content address), short-circuits store hits,
// queues the rest in a bounded priority queue, and executes them on
// worker goroutines with per-worker reused engines.
type Scheduler struct {
	exec *Executor
	opts Options

	mu     sync.Mutex
	cond   *sync.Cond
	queue  jobHeap         //optlint:guardedby mu
	jobs   map[string]*job //optlint:guardedby mu
	seq    uint64          //optlint:guardedby mu
	closed bool            //optlint:guardedby mu
	wg     sync.WaitGroup

	started     time.Time
	running     int    //optlint:guardedby mu
	cacheHits   uint64 //optlint:guardedby mu
	cacheMisses uint64 //optlint:guardedby mu
	jobsDone    uint64 //optlint:guardedby mu
}

// NewScheduler starts a scheduler over the executor with opts defaults
// filled in. Call Close to stop the workers.
func NewScheduler(exec *Executor, opts Options) *Scheduler {
	if opts.Workers < 1 {
		opts.Workers = 1
	}
	if opts.QueueSize < 1 {
		opts.QueueSize = 64
	}
	if opts.RetryAfter <= 0 {
		opts.RetryAfter = time.Second
	}
	if opts.Now == nil {
		opts.Now = func() time.Time { return time.Time{} }
	}
	s := &Scheduler{
		exec:    exec,
		opts:    opts,
		jobs:    make(map[string]*job),
		started: opts.Now(),
	}
	s.cond = sync.NewCond(&s.mu)
	for w := 0; w < opts.Workers; w++ {
		s.wg.Add(1)
		go s.worker()
	}
	return s
}

// RetryAfter returns the backpressure hint for ErrBusy responses.
func (s *Scheduler) RetryAfter() time.Duration { return s.opts.RetryAfter }

// Submit enqueues the spec and returns its status. An identical job
// already queued, running or done is joined, not duplicated
// (singleflight), before the store is probed; a stored result makes the
// job done immediately without consuming a queue slot or waking a worker
// — the pure-cache-hit path matters after a restart, when the
// singleflight map is cold but the store is warm; a full queue returns
// ErrBusy.
func (s *Scheduler) Submit(spec Spec, priority int) (JobStatus, error) {
	key, err := spec.Key()
	if err != nil {
		return JobStatus{}, err
	}
	s.mu.Lock()
	st, joined, err := s.joinLocked(key)
	s.mu.Unlock()
	if joined {
		return st, err
	}
	norm := spec.Normalized()
	totalTrials := 0
	if norm.Route != nil {
		totalTrials = norm.Route.Trials
	} else if norm.Dynamic != nil {
		totalTrials = norm.Dynamic.Trials
	}

	// Probe the local store without the scheduler mutex: the store's read
	// lock can wait behind a segment fsync, and holding the scheduler
	// mutex across it would stall every worker's state transition. The
	// stored bytes are the job's result as served, so nothing is decoded.
	// Only the local index is consulted here — a remote read-repair probe
	// would put peer latency on every cold submit; the worker's Run path
	// consults replicas before computing instead.
	var cached json.RawMessage
	if s.exec.Store != nil {
		cached, _ = s.exec.Store.Get(resultKey(key))
	}

	s.mu.Lock()
	defer s.mu.Unlock()
	// Another submit may have created the job while the store was probed.
	if st, joined, err := s.joinLocked(key); joined {
		return st, err
	}
	if cached != nil {
		j := &job{
			key: key, priority: priority,
			state: StateDone, fromCache: true,
			totalTrials: totalTrials, result: cached,
			done: make(chan struct{}),
		}
		j.doneTrials.Store(int64(totalTrials))
		close(j.done)
		s.jobs[key] = j
		s.cacheHits++
		s.jobsDone++
		return s.statusLocked(j), nil
	}
	if len(s.queue) >= s.opts.QueueSize {
		return JobStatus{}, ErrBusy
	}
	s.seq++
	j := &job{
		key: key, spec: norm, priority: priority, seq: s.seq,
		state: StateQueued, totalTrials: totalTrials,
		done: make(chan struct{}),
	}
	s.jobs[key] = j
	heap.Push(&s.queue, j)
	s.cond.Signal()
	return s.statusLocked(j), nil
}

// joinLocked returns the status of key's live job — queued, running and
// completed jobs are shared (singleflight) — or the error of a closed
// scheduler. joined is false when the caller must create the job.
//
//optlint:locked mu
func (s *Scheduler) joinLocked(key string) (st JobStatus, joined bool, err error) {
	if s.closed {
		return JobStatus{}, true, fmt.Errorf("jobs: scheduler closed")
	}
	if j, ok := s.jobs[key]; ok && j.state != StateFailed && j.state != StateCanceled {
		return s.statusLocked(j), true, nil
	}
	return JobStatus{}, false, nil
}

// worker executes queued jobs on a goroutine-owned engine until Close.
func (s *Scheduler) worker() {
	defer s.wg.Done()
	eng := sim.NewEngine() // reused across all of this worker's jobs
	for {
		s.mu.Lock()
		for len(s.queue) == 0 && !s.closed {
			s.cond.Wait()
		}
		if s.closed {
			s.mu.Unlock()
			return
		}
		j := heap.Pop(&s.queue).(*job)
		j.state = StateRunning
		spec := j.spec
		j.spec = Spec{}
		s.running++
		s.mu.Unlock()

		progress := func(done, total int) {
			j.doneTrials.Store(int64(done))
		}
		res, raw, fromCache, err := s.exec.run(spec, eng, progress, j.cancel.Load)
		if err == nil && raw == nil {
			// No store holds the result: encode it as Store.Put would, so
			// a job serves the same bytes with a store and without one.
			raw, err = canon.Marshal(res)
		}

		s.mu.Lock()
		s.running--
		s.jobsDone++
		switch {
		case errors.Is(err, ErrCanceled):
			j.state = StateCanceled
			j.err = err
		case err != nil:
			j.state = StateFailed
			j.err = err
			s.cacheMisses++
		default:
			j.state = StateDone
			j.result = raw
			j.fromCache = fromCache
			if fromCache {
				s.cacheHits++
			} else {
				s.cacheMisses++
			}
		}
		close(j.done)
		s.mu.Unlock()
	}
}

// statusLocked snapshots a job; callers hold the scheduler mutex.
//
//optlint:locked mu
func (s *Scheduler) statusLocked(j *job) JobStatus {
	st := JobStatus{
		Key:         j.key,
		State:       j.state,
		Priority:    j.priority,
		FromCache:   j.fromCache,
		DoneTrials:  int(j.doneTrials.Load()),
		TotalTrials: j.totalTrials,
	}
	if j.err != nil {
		st.Error = j.err.Error()
	}
	return st
}

// Status returns the job's current status.
func (s *Scheduler) Status(key string) (JobStatus, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	j, ok := s.jobs[key]
	if !ok {
		return JobStatus{}, ErrUnknownJob
	}
	return s.statusLocked(j), nil
}

// Result returns the finished job's result, decoded from its canonical
// JSON; the result is nil while the job is still pending.
func (s *Scheduler) Result(key string) (*Result, JobStatus, error) {
	raw, st, err := s.ResultJSON(key)
	if err != nil || raw == nil {
		return nil, st, err
	}
	res, err := decodeResult(raw)
	if err != nil {
		return nil, st, fmt.Errorf("jobs: result of %s: %w", key, err)
	}
	return res, st, nil
}

// ResultJSON returns the finished job's result as canonical JSON, the
// bytes the store holds for it; they are nil while the job is still
// pending, shared, and must not be modified.
func (s *Scheduler) ResultJSON(key string) (json.RawMessage, JobStatus, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	j, ok := s.jobs[key]
	if !ok {
		return nil, JobStatus{}, ErrUnknownJob
	}
	st := s.statusLocked(j)
	if j.state == StateFailed || j.state == StateCanceled {
		return nil, st, j.err
	}
	return j.result, st, nil
}

// Done returns a channel closed when the job finishes (in any state).
func (s *Scheduler) Done(key string) (<-chan struct{}, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	j, ok := s.jobs[key]
	if !ok {
		return nil, ErrUnknownJob
	}
	return j.done, nil
}

// Cancel cancels a queued or running job. A queued job is removed from
// the queue immediately; a running sweep stops at the next trial
// boundary, retaining its checkpoint for a later resume.
func (s *Scheduler) Cancel(key string) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	j, ok := s.jobs[key]
	if !ok {
		return ErrUnknownJob
	}
	switch j.state {
	case StateQueued:
		heap.Remove(&s.queue, j.heapIdx)
		j.state = StateCanceled
		j.err = ErrCanceled
		s.jobsDone++
		close(j.done)
	case StateRunning:
		j.cancel.Store(true)
	}
	return nil
}

// Metrics is the scheduler's serving gauge set, exported under the
// optnetd_ namespace by the server's /metrics.
type Metrics struct {
	// QueueDepth is the number of queued jobs.
	QueueDepth int `json:"queue_depth"`
	// Running is the number of jobs being executed.
	Running int `json:"running"`
	// CacheHits and CacheMisses count completed submissions by whether
	// the store answered them.
	CacheHits uint64 `json:"cache_hits"`
	// CacheMisses counts jobs that had to simulate.
	CacheMisses uint64 `json:"cache_misses"`
	// CacheHitRatio is hits / (hits + misses), 0 before any completion.
	CacheHitRatio float64 `json:"cache_hit_ratio"`
	// JobsDone counts finished jobs (any final state).
	JobsDone uint64 `json:"jobs_done"`
	// JobsPerSecond is the completion rate since the scheduler started
	// (0 without an injected clock).
	JobsPerSecond float64 `json:"jobs_per_second"`
	// StoreEntries is the store's live key count (-1 without a store).
	StoreEntries int `json:"store_entries"`
}

// Metrics snapshots the serving gauges.
func (s *Scheduler) Metrics() Metrics {
	s.mu.Lock()
	m := Metrics{
		QueueDepth:   len(s.queue),
		Running:      s.running,
		CacheHits:    s.cacheHits,
		CacheMisses:  s.cacheMisses,
		JobsDone:     s.jobsDone,
		StoreEntries: -1,
	}
	elapsed := s.opts.Now().Sub(s.started).Seconds()
	s.mu.Unlock()
	if total := m.CacheHits + m.CacheMisses; total > 0 {
		m.CacheHitRatio = float64(m.CacheHits) / float64(total)
	}
	if elapsed > 0 {
		m.JobsPerSecond = float64(m.JobsDone) / elapsed
	}
	if s.exec.Store != nil {
		m.StoreEntries = s.exec.Store.Len()
	}
	return m
}

// Close stops the workers after their current jobs and waits for them.
// Queued jobs are left unfinished (their checkpoints, if any, persist).
func (s *Scheduler) Close() {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return
	}
	s.closed = true
	s.cond.Broadcast()
	s.mu.Unlock()
	s.wg.Wait()
}
