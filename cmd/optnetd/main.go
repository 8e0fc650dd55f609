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
//
// A full queue answers 429 with a Retry-After header; the job key in
// every response is the spec's content address (see README "Serving").
//
// With -peers, N daemons serve one logical namespace: submits forward
// to the job key's rendezvous owner, idle peers steal trial batches,
// and completed store segments replicate (see README "Distributed
// serving"):
//
//	optnetd -addr :9090 -self a -peers a=http://h1:9090,b=http://h2:9090 -store ./a
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"log"
	"net/http"
	"os"
	"strings"
	"time"

	"repro/internal/cluster"
	"repro/internal/experiments"
	"repro/internal/jobs"
	"repro/internal/sim"
	"repro/internal/telemetry"
)

func main() {
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
			fatal(err)
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
		if err := runOnce(exec, *once); err != nil {
			fatal(err)
		}
		return
	}

	var node *cluster.Node
	if *peers != "" {
		list, err := parsePeers(*peers)
		if err != nil {
			fatal(err)
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
			fatal(err)
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
	if err := http.ListenAndServe(*addr, handler); err != nil {
		fatal(err)
	}
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
