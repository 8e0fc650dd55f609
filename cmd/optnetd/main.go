// Command optnetd serves routing jobs over HTTP/JSON: clients submit a
// declarative job spec (a routed network sweep or a named experiment),
// the daemon simulates it on a pool of workers with reused engines, and
// a content-addressed result store memoizes completed jobs so identical
// submissions are answered without re-simulation. Sweeps checkpoint
// after every trial; a killed daemon resumes them byte-identically.
//
// Usage:
//
//	optnetd -addr :9090 -store ./results          # serve
//	optnetd -once job.json -store ./results       # run one spec, print, exit
//
// Endpoints: POST /jobs, GET /jobs/{key}, GET /jobs/{key}/result
// (?wait=1 blocks), GET /jobs/{key}/stream (NDJSON progress),
// DELETE /jobs/{key}, GET /metrics (Prometheus text), GET /snapshot.
// The result body is the stored canonical JSON, compact on one line
// (pipe it through jq to read it); status and error bodies are indented.
//
// A full queue answers 429 with a Retry-After header; the job key in
// every response is the spec's content address (see README "Serving").
// SIGINT or SIGTERM stops the daemon: requests in flight get a few
// seconds to finish, then the cluster node, the scheduler and the store
// close, and the exit status is 0.
//
// With -peers, N daemons serve one logical namespace: submits forward
// to the job key's rendezvous owner, idle peers steal trial batches,
// and completed store segments replicate (see README "Distributed
// serving"):
//
//	optnetd -addr :9090 -self a -peers a=http://h1:9090,b=http://h2:9090 -store ./a
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"log"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"repro/internal/cluster"
	"repro/internal/experiments"
	"repro/internal/jobs"
	"repro/internal/sim"
	"repro/internal/telemetry"
)

// Serving limits. ReadHeaderTimeout drops a client that never finishes
// its request headers and IdleTimeout closes idle keep-alive
// connections. There is no WriteTimeout: it would cut ?wait=1 long polls
// and NDJSON streams, which last as long as their job. shutdownTimeout
// bounds the wait for requests in flight after SIGINT or SIGTERM.
const (
	readHeaderTimeout = 10 * time.Second
	idleTimeout       = 2 * time.Minute
	shutdownTimeout   = 5 * time.Second
)

func main() {
	if err := run(); err != nil {
		fatal(err)
	}
}

// run serves until SIGINT or SIGTERM, or runs one spec with -once. It
// returns instead of exiting, so the deferred closes run on every path.
func run() error {
	var (
		addr    = flag.String("addr", ":9090", "HTTP listen address")
		dir     = flag.String("store", "", "result-store directory (empty = no persistence)")
		workers = flag.Int("workers", 1, "worker goroutines, one reused engine each")
		queue   = flag.Int("queue", 64, "bound on queued jobs before 429")
		retry   = flag.Duration("retry-after", time.Second, "Retry-After hint for 429 responses")
		once    = flag.String("once", "", "run the job spec in this file, print the result, exit")

		peers    = flag.String("peers", "", "cluster membership as name=url,name=url (empty = single node)")
		self     = flag.String("self", "", "this node's name in -peers")
		replicas = flag.Int("replicas", 1, "extra copies of each record/segment shipped to peers")
		stealIvl = flag.Duration("steal-interval", 250*time.Millisecond, "idle work-stealing poll period (<0 disables)")
		stealMax = flag.Int("steal-batch", 8, "max trials per stolen lease")
		maxHops  = flag.Int("max-hops", 2, "submit forwarding hop bound")
	)
	flag.Parse()

	var store *jobs.Store
	if *dir != "" {
		var err error
		store, err = jobs.Open(*dir)
		if err != nil {
			return err
		}
		defer func() {
			// Close seals the final segment with an fsync; a failure here is
			// the last chance to learn that results did not reach the disk.
			if err := store.Close(); err != nil {
				log.Printf("optnetd: closing store: %v", err)
			}
		}()
	}
	live := telemetry.NewLive()
	experiments.SetLive(live) // experiment jobs report through the same aggregate
	exec := &jobs.Executor{
		Store:       store,
		Experiments: experiments.JobRunner(),
		Live:        live,
	}

	if *once != "" {
		return runOnce(exec, *once)
	}

	var node *cluster.Node
	if *peers != "" {
		list, err := parsePeers(*peers)
		if err != nil {
			return err
		}
		node, err = cluster.New(cluster.Config{
			Self:          *self,
			Peers:         list,
			Replicas:      *replicas,
			StealInterval: *stealIvl,
			StealBatch:    *stealMax,
			MaxHops:       *maxHops,
			Now:           time.Now,
		})
		if err != nil {
			return err
		}
		node.Wire(exec) // before the scheduler starts executing jobs
	}

	sched := jobs.NewScheduler(exec, jobs.Options{
		Workers:    *workers,
		QueueSize:  *queue,
		RetryAfter: *retry,
		Now:        time.Now,
	})
	defer sched.Close()
	var handler http.Handler
	if node != nil {
		node.Start(sched, live)
		defer node.Close()
		handler = node.Handler()
		log.Printf("optnetd: serving on %s as cluster node %q (%d peers, workers=%d queue=%d store=%q)",
			*addr, *self, len(strings.Split(*peers, ",")), *workers, *queue, *dir)
	} else {
		srv := &jobs.Server{Sched: sched, Live: live}
		handler = srv.Handler()
		log.Printf("optnetd: serving on %s (workers=%d queue=%d store=%q)", *addr, *workers, *queue, *dir)
	}
	return serve(*addr, handler)
}

// serve answers HTTP on addr until SIGINT or SIGTERM, then shuts the
// server down, waiting up to shutdownTimeout for requests in flight.
func serve(addr string, handler http.Handler) error {
	srv := &http.Server{
		Addr:              addr,
		Handler:           handler,
		ReadHeaderTimeout: readHeaderTimeout,
		IdleTimeout:       idleTimeout,
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	errc := make(chan error, 1)
	go func() { errc <- srv.ListenAndServe() }()
	select {
	case err := <-errc:
		return err
	case <-ctx.Done():
	}
	stop() // a second signal kills the process outright
	log.Printf("optnetd: shutting down")
	sctx, cancel := context.WithTimeout(context.Background(), shutdownTimeout)
	defer cancel()
	if err := srv.Shutdown(sctx); err != nil {
		log.Printf("optnetd: shutdown: %v", err)
	}
	if err := <-errc; !errors.Is(err, http.ErrServerClosed) {
		return err
	}
	return nil
}

// parsePeers parses the -peers flag: comma-separated name=url pairs.
func parsePeers(s string) ([]cluster.Peer, error) {
	var list []cluster.Peer
	for _, part := range strings.Split(s, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		name, url, ok := strings.Cut(part, "=")
		if !ok || name == "" || url == "" {
			return nil, fmt.Errorf("optnetd: bad -peers entry %q (want name=url)", part)
		}
		list = append(list, cluster.Peer{Name: name, URL: strings.TrimSuffix(url, "/")})
	}
	return list, nil
}

// runOnce executes one job spec file inline — no scheduler, no HTTP —
// and prints the result JSON. With -store it still reads and writes the
// cache, so a repeated -once invocation is a cache hit.
func runOnce(exec *jobs.Executor, path string) error {
	raw, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	var spec jobs.Spec
	if err := json.Unmarshal(raw, &spec); err != nil {
		return fmt.Errorf("optnetd: bad spec %s: %w", path, err)
	}
	res, fromCache, err := exec.Run(spec, sim.NewEngine(), nil, nil)
	if err != nil {
		return err
	}
	log.Printf("optnetd: job %s done (from_cache=%v)", res.Key, fromCache)
	enc := json.NewEncoder(os.Stdout)
	enc.SetIndent("", "  ")
	return enc.Encode(res)
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, err)
	os.Exit(1)
}
