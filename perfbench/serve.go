package main

import (
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"

	"repro/internal/canon"
	"repro/internal/core"
	"repro/internal/jobs"
	"repro/internal/optical"
	"repro/internal/paths"
	"repro/internal/rng"
	"repro/internal/sim"
	"repro/internal/telemetry"
	"repro/internal/topology"
)

// serveSize fixes serve-mixed: sweeps of trials on a side x side torus, a
// pool of stored specs that hits draw from, one cold sweep in every
// coldEvery requests, and the traced replay's rounds and requests per
// client per round.
type serveSize struct{ side, trials, hitPool, coldEvery, rounds, replay int }

// serveSizeFor returns the full or smoke size.
func serveSizeFor(smoke bool) serveSize {
	if smoke {
		return serveSize{side: 8, trials: 2, hitPool: 2, coldEvery: 4, rounds: 1, replay: 8}
	}
	return serveSize{side: 16, trials: 8, hitPool: 8, coldEvery: 10, rounds: 4, replay: 50}
}

// clients is the closed-loop client count of serve-mixed.
const clients = 2

// sweepSpec is a cold-sweep job: a torus permutation with B=4, L=8 and
// one-flit acknowledgements.
func sweepSpec(side, trials int, seed uint64) jobs.Spec {
	return jobs.Spec{Route: &jobs.RouteSpec{
		Network:  jobs.NetworkSpec{Kind: "torus", Dims: 2, Side: side},
		Workload: jobs.WorkloadSpec{Kind: "permutation"},
		Protocol: jobs.ProtocolSpec{Bandwidth: 4, Length: 8, AckLength: 1},
		Seed:     seed,
		Trials:   trials,
	}}
}

// request is one client request of a serving workload.
type request struct {
	spec jobs.Spec
	cold bool
}

// serveRequest returns client c's n-th request: a fresh seed for a cold
// sweep, otherwise a spec from the stored pool. Seeds derive from the
// workload seed, so a seed fixes every request.
func serveRequest(size serveSize, seed uint64, c, n int) request {
	if (n+c*size.coldEvery/2)%size.coldEvery == 0 {
		return request{spec: sweepSpec(size.side, size.trials, seed<<24|uint64(1+c)<<20|uint64(n)), cold: true}
	}
	return request{spec: sweepSpec(size.side, size.trials, seed<<24|uint64((3*n+c)%size.hitPool))}
}

// hitPool returns the specs setup stores before the first request.
func hitPool(size serveSize, seed uint64) []jobs.Spec {
	specs := make([]jobs.Spec, size.hitPool)
	for i := range specs {
		specs[i] = sweepSpec(size.side, size.trials, seed<<24|uint64(i))
	}
	return specs
}

// daemon is an in-process optnetd: store, executor, scheduler with
// optnetd's defaults (one worker, queue 64) and the HTTP server on a
// loopback listener.
type daemon struct {
	store  *jobs.Store
	exec   *jobs.Executor
	sched  *jobs.Scheduler
	srv    *http.Server
	url    string
	served chan struct{}
}

// startDaemon opens a store under dir, stores the pool's results by
// running them once, and starts serving.
func startDaemon(dir string, pool []jobs.Spec) (*daemon, error) {
	store, err := jobs.Open(dir)
	if err != nil {
		return nil, err
	}
	live := telemetry.NewLive()
	exec := &jobs.Executor{Store: store, Live: live}
	eng := sim.NewEngine()
	for _, spec := range pool {
		if _, _, err := exec.Run(spec, eng, nil, nil); err != nil {
			store.Close()
			return nil, fmt.Errorf("pre-populating the store: %w", err)
		}
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		store.Close()
		return nil, err
	}
	sched := jobs.NewScheduler(exec, jobs.Options{Workers: 1, QueueSize: 64, Now: time.Now})
	d := &daemon{
		store: store, exec: exec, sched: sched,
		srv:    &http.Server{Handler: (&jobs.Server{Sched: sched, Live: live}).Handler()},
		url:    "http://" + ln.Addr().String(),
		served: make(chan struct{}),
	}
	go func() {
		defer close(d.served)
		_ = d.srv.Serve(ln) // returns http.ErrServerClosed on close
	}()
	return d, nil
}

// close stops the server, the scheduler and the store, and waits for the
// serving goroutine.
func (d *daemon) close() error {
	err := d.srv.Close()
	<-d.served
	d.sched.Close()
	return errors.Join(err, d.store.Close())
}

// newHTTPClient returns an HTTP client bounded to clients connections.
func newHTTPClient() *http.Client {
	return &http.Client{Transport: &http.Transport{MaxConnsPerHost: clients, MaxIdleConnsPerHost: clients}}
}

// resultDigest is the digest of a result's canonical encoding, the form
// the store keeps.
func resultDigest(res *jobs.Result) (string, error) {
	b, err := canon.Marshal(res)
	if err != nil {
		return "", err
	}
	return digest(b), nil
}

// served is one completed (or failed) request.
type served struct {
	req    request
	lat    time.Duration
	end    time.Time
	key    string
	digest string
	err    error
}

// httpRequest submits the spec and waits for its full result.
func httpRequest(cl *jobs.Client, q request) (string, *jobs.Result, error) {
	st, err := cl.Submit(q.spec, 0)
	if err != nil {
		return "", nil, err
	}
	res, err := cl.Result(st.Key)
	return st.Key, res, err
}

// doFunc performs client c's i-th request and returns the job key and
// its result.
type doFunc func(c, i int, q request) (string, *jobs.Result, error)

// closedLoop runs one goroutine per client; each sends its next request
// only after the previous one has completed, until stop reports true.
// next returns a client's n-th request and do performs it. A result's
// digest is taken after its latency, as client think time.
func closedLoop(n int, next func(c, i int) request, do doFunc, stop func(c, i int) bool) []served {
	var mu sync.Mutex
	var out []served
	var wg sync.WaitGroup
	for c := 0; c < n; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i := 0; !stop(c, i); i++ {
				q := next(c, i)
				t0 := time.Now()
				key, res, err := do(c, i, q)
				end := time.Now()
				var dig string
				if err == nil {
					dig, err = resultDigest(res)
				}
				mu.Lock()
				out = append(out, served{req: q, lat: end.Sub(t0), end: end, key: key, digest: dig, err: err})
				mu.Unlock()
			}
		}(c)
	}
	wg.Wait()
	sort.Slice(out, func(a, b int) bool { return out[a].end.Before(out[b].end) })
	return out
}

// referenceDigests computes, on two goroutines, the digest of each
// distinct spec's result from a plain executor (no store, no HTTP, no
// cluster): the single-node answer every served result must match.
func referenceDigests(specs []jobs.Spec) (map[string]string, error) {
	type job struct {
		key  string
		spec jobs.Spec
	}
	var todo []job
	seen := make(map[string]bool)
	for _, s := range specs {
		key, err := s.Key()
		if err != nil {
			return nil, err
		}
		if !seen[key] {
			seen[key] = true
			todo = append(todo, job{key, s})
		}
	}
	out := make(map[string]string, len(todo))
	errs := make([]error, clients)
	var mu sync.Mutex
	var wg sync.WaitGroup
	for w := 0; w < clients; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			eng := sim.NewEngine()
			exec := &jobs.Executor{}
			for i := w; i < len(todo); i += clients {
				res, _, err := exec.Run(todo[i].spec, eng, nil, nil)
				var d string
				if err == nil {
					d, err = resultDigest(res)
				}
				if err != nil {
					errs[w] = err
					return
				}
				mu.Lock()
				out[todo[i].key] = d
				mu.Unlock()
			}
		}(w)
	}
	wg.Wait()
	return out, errors.Join(errs...)
}

// checkServed counts every request and fails errors and results that
// differ from the single-node reference.
func checkServed(r *report, reqs []served) error {
	specs := make([]jobs.Spec, len(reqs))
	for i, s := range reqs {
		specs[i] = s.req.spec
	}
	ref, err := referenceDigests(specs)
	if err != nil {
		return err
	}
	for _, s := range reqs {
		r.attempted++
		switch {
		case s.err != nil:
			r.fail("request %s: %v", s.key, s.err)
		case s.digest != ref[s.key]:
			r.fail("result of %s differs from the single-node run (%s vs %s)", s.key, s.digest, ref[s.key])
		}
	}
	return nil
}

// checkStored fails pool entries whose stored bytes differ from the
// reference: a hit serves these bytes, so a hit that matches the
// reference is byte-identical to its stored cold result.
func checkStored(r *report, store *jobs.Store, pool []jobs.Spec) error {
	ref, err := referenceDigests(pool)
	if err != nil {
		return err
	}
	for _, spec := range pool {
		key, err := spec.Key()
		if err != nil {
			return err
		}
		raw, ok := store.Get(jobs.ResultKey(key))
		r.attempted++
		if !ok || digest(raw) != ref[key] {
			r.fail("stored result of %s differs from the single-node run", key)
		}
	}
	return nil
}

// latencies splits served requests into cold and hit latencies, in
// seconds, skipping failures.
func latencies(reqs []served) (all, cold, hit samples) {
	for _, s := range reqs {
		if s.err != nil {
			continue
		}
		all.add(s.lat)
		if s.req.cold {
			cold.add(s.lat)
		} else {
			hit.add(s.lat)
		}
	}
	return all, cold, hit
}

// batchTimes is the wall time of each run of per consecutive
// completions: the serving workloads' fixed batch.
func batchTimes(start time.Time, reqs []served, per int) samples {
	var out samples
	prev := start
	for i := per - 1; i < len(reqs); i += per {
		out.add(reqs[i].end.Sub(prev))
		prev = reqs[i].end
	}
	if len(out) == 0 && len(reqs) > 0 {
		out.add(reqs[len(reqs)-1].end.Sub(start))
	}
	return out
}

// tailLine formats a percentile with its sample count, or says why it is
// not reported.
func tailLine(name string, xs []float64, q float64) string {
	if b := beyond(len(xs), q); b < minBeyond {
		return fmt.Sprintf("%s not reported: %d samples, %d beyond the percentile (need %d)", name, len(xs), b, minBeyond)
	}
	return fmt.Sprintf("%s %.6g s (n=%d)", name, quantile(xs, q), len(xs))
}

// serveBatch is the number of completed requests in serve-mixed's fixed
// batch.
const serveBatch = 250

// timedServe is the serve-mixed timed run.
func timedServe(cfg runConfig, r *report) error {
	size := serveSizeFor(cfg.smoke)
	pool := hitPool(size, cfg.seed)
	hc := newHTTPClient()
	defer hc.CloseIdleConnections()
	var d *daemon
	setups := 0
	err := repeatSetup(r, func() error {
		if d != nil {
			if err := d.close(); err != nil {
				return err
			}
		}
		setups++
		var err error
		d, err = startDaemon(filepath.Join(cfg.dir, fmt.Sprintf("store-%d", setups)), pool)
		if err != nil {
			return err
		}
		// Warm-up: one hit per client opens the connections.
		for c := 0; c < clients; c++ {
			if _, _, err := httpRequest(&jobs.Client{BaseURL: d.url, HTTPClient: hc}, request{spec: pool[c%len(pool)]}); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		return err
	}
	defer d.close()

	cls := make([]*jobs.Client, clients)
	for c := range cls {
		cls[c] = &jobs.Client{BaseURL: d.url, HTTPClient: hc}
	}
	start := time.Now()
	reqs := closedLoop(clients,
		func(c, i int) request { return serveRequest(size, cfg.seed, c, i) },
		func(c, _ int, q request) (string, *jobs.Result, error) { return httpRequest(cls[c], q) },
		func(c, i int) bool { return time.Since(start) >= cfg.seconds })
	elapsed := time.Since(start).Seconds()
	m := d.sched.Metrics()

	all, cold, hit := latencies(reqs)
	r.set("run_s", median(batchTimes(start, reqs, serveBatch)), "s", len(reqs)/serveBatch)
	r.set("ops_per_s", float64(len(all))/elapsed, "1/s", len(all))
	r.set("op_p50_s", median(all), "s", len(all))
	r.set("cold_p50_s", median(cold), "s", len(cold))
	r.line(tailLine("cold_p90_s", cold, 0.9))
	r.line("hit_p50_s %.6g s (n=%d)", median(hit), len(hit))
	r.line(tailLine("hit_p99_s", hit, 0.99))
	r.line("jobs_per_s %.6g 1/s (n=%d; scheduler cache_hit_ratio %.4g)", float64(len(all))/elapsed, len(all), m.CacheHitRatio)
	if err := checkServed(r, reqs); err != nil {
		return err
	}
	return checkStored(r, d.store, pool)
}

// coldHit returns the cold and hit latency medians of one level of the
// traced replay.
func coldHit(reqs []served) (cold, hit float64) {
	_, c, h := latencies(reqs)
	return median(c), median(h)
}

// serveLevels pools the traced replay's requests by the level they were
// sent to.
type serveLevels struct {
	httpPlain, httpTraced, sched, exec, noStore, noStorePlain []served
	simPerJob, selfPerJob, persistBytes                       samples
}

// tracedServe replays fixed request lists at each level a request
// crosses, on a fresh store each time so the same sweeps are cold again,
// and derives each layer's time by subtraction:
//
//	http   = HTTP latency - scheduler latency     (2 clients each)
//	queue  = scheduler latency - Executor.Run with a store
//	store  = Executor.Run with a store - Executor.Run without one
//	sim    = engine spans nested under Executor.Run (timedSim)
//	exec   = Executor.Run self time: keying, route setup, protocol loop, telemetry fold
//
// The levels take turns over several rounds, so a drift in host speed
// lands on every level alike instead of on the differences.
func tracedServe(cfg runConfig, tr *tracer, r *report) (map[string]float64, error) {
	size := serveSizeFor(cfg.smoke)
	pool := hitPool(size, cfg.seed)
	hc := newHTTPClient()
	defer hc.CloseIdleConnections()
	eng := sim.NewEngine()
	nsSim := &timedSim{eng: eng, tr: tr}
	var lv serveLevels
	var respBytes int
	var hitRatio float64
	var getT, resultBytes samples
	for round := 0; round < size.rounds; round++ {
		lists := make([][]request, clients)
		var merged []request // client order interleaved, for the one-worker levels
		for i := round * size.replay; i < (round+1)*size.replay; i++ {
			for c := 0; c < clients; c++ {
				q := serveRequest(size, cfg.seed, c, i)
				lists[c] = append(lists[c], q)
				merged = append(merged, q)
			}
		}
		dir := func(level string) string { return filepath.Join(cfg.dir, fmt.Sprintf("trace-%d-%s", round, level)) }
		replay := func(do doFunc) []served {
			return closedLoop(clients,
				func(c, i int) request { return lists[c][i] },
				do,
				func(c, i int) bool { return i >= len(lists[c]) })
		}

		// HTTP, untraced and traced (a span per request, keyed by job key).
		for _, traced := range []bool{false, true} {
			d, err := startDaemon(dir(fmt.Sprint("http-", traced)), pool)
			if err != nil {
				return nil, err
			}
			cl := &jobs.Client{BaseURL: d.url, HTTPClient: hc}
			reqs := replay(func(_, _ int, q request) (string, *jobs.Result, error) {
				if !traced {
					return httpRequest(cl, q)
				}
				sp := tr.begin("http.request", "", -1)
				key, res, err := httpRequest(cl, q)
				tr.end(sp)
				tr.setID(sp, key)
				return key, res, err
			})
			if traced {
				lv.httpTraced = append(lv.httpTraced, reqs...)
				hitRatio = d.sched.Metrics().CacheHitRatio
				if respBytes, err = responseBytes(hc, d.url, pool[0]); err != nil {
					return nil, err
				}
			} else {
				lv.httpPlain = append(lv.httpPlain, reqs...)
			}
			if err := d.close(); err != nil {
				return nil, err
			}
		}

		// Scheduler, two submitting goroutines, no HTTP.
		d, err := startDaemon(dir("sched"), pool)
		if err != nil {
			return nil, err
		}
		lv.sched = append(lv.sched, replay(func(_, _ int, q request) (string, *jobs.Result, error) {
			sp := tr.begin("sched.request", "", -1)
			key, res, err := schedRequest(d.sched, q)
			tr.end(sp)
			tr.setID(sp, key)
			return key, res, err
		})...)
		if err := d.close(); err != nil {
			return nil, err
		}

		// Executor with a store: one worker, so one goroutine, requests in
		// arrival order. The engine is wrapped, so sim spans nest under it.
		storeDir := dir("exec")
		store, err := jobs.Open(storeDir)
		if err != nil {
			return nil, err
		}
		exec := &jobs.Executor{Store: store, Live: telemetry.NewLive()}
		for _, spec := range pool {
			if _, _, err := exec.Run(spec, eng, nil, nil); err != nil {
				return nil, err
			}
		}
		withStore := execLeg(tr, "jobs.exec", exec, &timedSim{eng: eng, tr: tr}, merged, func(q request, run func()) {
			before := dirBytes(storeDir)
			run()
			if q.cold {
				lv.persistBytes = append(lv.persistBytes, float64(dirBytes(storeDir)-before))
			}
		})
		lv.exec = append(lv.exec, withStore.reqs...)
		for _, spec := range pool {
			key, err := spec.Key()
			if err != nil {
				return nil, err
			}
			var res jobs.Result
			t0 := time.Now()
			ok, err := store.GetJSON(jobs.ResultKey(key), &res)
			getT.add(time.Since(t0))
			if err != nil || !ok {
				return nil, fmt.Errorf("stored result of %s missing: %v", key, err)
			}
			raw, _ := store.Get(jobs.ResultKey(key))
			resultBytes = append(resultBytes, float64(len(raw)))
		}
		if err := store.Close(); err != nil {
			return nil, err
		}

		// Executor without a store, cold sweeps only: traced, then plain.
		var colds []request
		for _, q := range merged {
			if q.cold {
				colds = append(colds, q)
			}
		}
		plainExec := &jobs.Executor{Live: telemetry.NewLive()}
		noStore := execLeg(tr, "jobs.exec_nostore", plainExec, nsSim, colds, nil)
		lv.noStore = append(lv.noStore, noStore.reqs...)
		lv.simPerJob = append(lv.simPerJob, noStore.simPerJob...)
		lv.selfPerJob = append(lv.selfPerJob, noStore.selfPerJob...)
		lv.noStorePlain = append(lv.noStorePlain, execLeg(nil, "", plainExec, eng, colds, nil).reqs...)
	}

	// Keying alone.
	var keyT samples
	for i := 0; i < size.rounds*size.replay; i++ {
		for c := 0; c < clients; c++ {
			q := serveRequest(size, cfg.seed, c, i)
			sp := tr.begin("jobs.key", "", -1)
			t0 := time.Now()
			_, err := q.spec.Key()
			keyT.add(time.Since(t0))
			tr.end(sp)
			if err != nil {
				return nil, err
			}
		}
	}

	tel, err := serveTelemetry(size, cfg.seed)
	if err != nil {
		return nil, err
	}

	// Every level's results must match the single-node reference.
	for _, reqs := range [][]served{lv.httpPlain, lv.httpTraced, lv.sched, lv.exec, lv.noStore, lv.noStorePlain} {
		if err := checkServed(r, reqs); err != nil {
			return nil, err
		}
	}

	h0Cold, _ := coldHit(lv.httpPlain)
	hCold, hHit := coldHit(lv.httpTraced)
	sCold, sHit := coldHit(lv.sched)
	eCold, _ := coldHit(lv.exec)
	nCold, _ := coldHit(lv.noStore)
	npCold, _ := coldHit(lv.noStorePlain)
	simPer, selfPer := median(lv.simPerJob), median(lv.selfPerJob)
	c := nsSim.counts
	simBusy := sum(lv.simPerJob)
	m := map[string]float64{
		"http.overhead_cold_s":  hCold - sCold,
		"http.overhead_hit_s":   hHit - sHit,
		"http.response_bytes":   float64(respBytes),
		"jobs.queue_wait_s":     sCold - eCold,
		"jobs.exec_s":           eCold,
		"jobs.persist_s":        eCold - nCold,
		"jobs.persist_bytes":    median(lv.persistBytes),
		"jobs.store_get_s":      median(getT),
		"jobs.result_bytes":     median(resultBytes),
		"jobs.cache_hit_ratio":  hitRatio,
		"jobs.key_s":            median(keyT),
		"jobs.key_calls":        float64(len(keyT)),
		"sim.run_calls":         float64(c.calls),
		"sim.busy_s":            simBusy,
		"sim.worms":             float64(c.worms),
		"sim.steps":             float64(c.steps),
		"sim.ns_per_step":       simBusy * 1e9 / float64(max(c.steps, 1)),
		"sim.collisions":        float64(c.collisions),
		"sim.deliver_ratio":     float64(c.delivered) / float64(max(c.worms, 1)),
		"trace.cold_overhead_s": nCold - npCold,
	}
	for k, v := range tel {
		m[k] = v
	}
	parts := []struct {
		name string
		v    float64
	}{
		{"http (HTTP - scheduler)", hCold - sCold},
		{"queue wait and contention (scheduler - executor)", sCold - eCold},
		{"store writes (executor with - without store)", eCold - nCold},
		{"sim engine (sim.run spans)", simPer},
		{"executor self (key, setup, protocol loop, telemetry)", selfPer},
	}
	attributed := 0.0
	for _, p := range parts {
		attributed += p.v
	}
	m["trace.cold_coverage"] = attributed / h0Cold
	if !cfg.smoke {
		r.line("where the time goes, serve-mixed cold sweep (medians over %d cold sweeps per level in %d rounds; untraced HTTP cold p50 %.4g s):", len(lv.noStore), size.rounds, h0Cold)
		for _, p := range parts {
			r.line("  %-52s %.4g s  %5.1f%%", p.name, p.v, 100*p.v/h0Cold)
		}
		r.line("  %-52s %.4g s  %5.1f%% of the untraced cold p50", "attributed", attributed, 100*attributed/h0Cold)
		r.line("  tracing overhead (traced - untraced executor median) %.4g s; HTTP traced - untraced cold median %.4g s", nCold-npCold, hCold-h0Cold)
		r.line("  jobs.key_s (measured alone, inside executor self) %.4g s per call", median(keyT))
	}
	return m, nil
}

// schedRequest submits straight to the scheduler and waits for the
// result.
func schedRequest(s *jobs.Scheduler, q request) (string, *jobs.Result, error) {
	st, err := s.Submit(q.spec, 0)
	if err != nil {
		return "", nil, err
	}
	done, err := s.Done(st.Key)
	if err != nil {
		return st.Key, nil, err
	}
	<-done
	res, _, err := s.Result(st.Key)
	return st.Key, res, err
}

// execResult is an executor-level leg of the traced replay.
type execResult struct {
	reqs                  []served
	simPerJob, selfPerJob samples
}

// execLeg runs the requests one after another through exec on eng. With
// a tracer each run is a span named name and, when eng is a timedSim, the
// engine spans nest under it. around, when set, wraps each run.
func execLeg(tr *tracer, name string, exec *jobs.Executor, eng jobs.Simulator, reqs []request, around func(q request, run func())) execResult {
	var out execResult
	ts, _ := eng.(*timedSim)
	for _, q := range reqs {
		var key, dig string
		var err error
		var lat time.Duration
		run := func() {
			sp := -1
			if tr != nil {
				key, _ = q.spec.Key()
				sp = tr.begin(name, key, -1)
				if ts != nil {
					ts.parent, ts.id = sp, key
				}
			}
			t0 := time.Now()
			var res *jobs.Result
			res, _, err = exec.Run(q.spec, eng, nil, nil)
			lat = time.Since(t0)
			if tr != nil {
				tr.end(sp)
			}
			if err == nil {
				key = res.Key
				dig, err = resultDigest(res)
			}
			if tr != nil && ts != nil {
				simT, selfT := childTime(tr, sp)
				out.simPerJob = append(out.simPerJob, simT)
				out.selfPerJob = append(out.selfPerJob, selfT)
			}
		}
		if around != nil {
			around(q, run)
		} else {
			run()
		}
		out.reqs = append(out.reqs, served{req: q, lat: lat, end: time.Now(), key: key, digest: dig, err: err})
	}
	return out
}

// dirBytes sums the sizes of the regular files in dir.
func dirBytes(dir string) int64 {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return 0
	}
	var n int64
	for _, e := range entries {
		if info, err := e.Info(); err == nil && info.Mode().IsRegular() {
			n += info.Size()
		}
	}
	return n
}

// responseBytes fetches one stored result over HTTP and returns the body
// size.
func responseBytes(hc *http.Client, url string, spec jobs.Spec) (int, error) {
	key, err := spec.Key()
	if err != nil {
		return 0, err
	}
	resp, err := hc.Get(url + "/jobs/" + key + "/result?wait=1")
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		return 0, err
	}
	if resp.StatusCode != http.StatusOK {
		return 0, fmt.Errorf("GET result of %s: HTTP %d", key, resp.StatusCode)
	}
	return len(b), nil
}

// serveTelemetry prices the telemetry Collector on the serving sweep: the
// same trials with and without it, per trial, plus the snapshot taken
// after each trial and its encoded size.
func serveTelemetry(size serveSize, seed uint64) (map[string]float64, error) {
	tor := topology.NewTorus(2, size.side)
	src := rng.New(seed)
	routes, err := paths.Build(tor.Graph(), paths.RandomPermutation(tor.Graph().NumNodes(), src), paths.DimOrderTorus(tor))
	if err != nil {
		return nil, err
	}
	cfg := core.Config{Bandwidth: 4, Length: 8, AckLength: 1, Rule: optical.ServeFirst}
	col := telemetry.NewCollector()
	probed := cfg
	probed.Probe = col
	eng := sim.NewEngine()
	var plainT, probeT, snapT samples
	snapBytes := 0
	const rounds = 4 // repeat the sweep's trials to steady the medians
	for k := 0; k < rounds; k++ {
		plainSrcs, probedSrcs := rng.New(seed+1).SplitN(size.trials), rng.New(seed+1).SplitN(size.trials)
		for i := range plainSrcs {
			t0 := time.Now()
			if _, err := core.RunWithSimulator(routes, cfg, plainSrcs[i], eng); err != nil {
				return nil, err
			}
			plainT.add(time.Since(t0))
			t0 = time.Now()
			if _, err := core.RunWithSimulator(routes, probed, probedSrcs[i], eng); err != nil {
				return nil, err
			}
			probeT.add(time.Since(t0))
			t0 = time.Now()
			snap := col.Snapshot()
			snapT.add(time.Since(t0))
			b, err := canon.Marshal(snap)
			if err != nil {
				return nil, err
			}
			snapBytes = len(b)
			col.Reset()
		}
	}
	return map[string]float64{
		"telemetry.probe_s":        median(probeT) - median(plainT),
		"telemetry.snapshot_s":     median(snapT),
		"telemetry.snapshot_bytes": float64(snapBytes),
	}, nil
}
