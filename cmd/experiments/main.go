// Command experiments regenerates the paper's result tables: one
// experiment per theorem, figure and ablation (see DESIGN.md and
// EXPERIMENTS.md for the index).
//
// Usage:
//
//	experiments -all                # run everything
//	experiments -run E5             # one experiment
//	experiments -run E5 -quick      # reduced ladder (seconds)
//	experiments -list               # show what exists
//	experiments -run E5 -store dir  # memoize via the job result store
//
// With -metrics-addr the process also serves live telemetry while the
// experiments run: Prometheus text format on /metrics and a JSON dump on
// /snapshot, aggregated across every simulated round so far.
//
// With -store the command routes each experiment through the optnetd
// result store: the table is keyed by its content address (experiment
// ID, seed, trials, quick), so rerunning the same invocation replays
// the stored output byte-for-byte instead of re-simulating. The same
// directory can be served by optnetd.
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"log"
	"os"

	"repro/internal/experiments"
	"repro/internal/jobs"
	"repro/internal/telemetry"
)

func main() {
	var (
		run      = flag.String("run", "", "experiment ID (see -list)")
		all      = flag.Bool("all", false, "run every experiment")
		list     = flag.Bool("list", false, "list experiment IDs")
		quick    = flag.Bool("quick", false, "use reduced problem-size ladders")
		seed     = flag.Uint64("seed", 1, "master random seed")
		trials   = flag.Int("trials", 0, "Monte-Carlo trials per configuration (0 = default)")
		asJSON   = flag.Bool("json", false, "emit tables as JSON instead of text")
		maddr    = flag.String("metrics-addr", "", "serve live telemetry on this address (/metrics and /snapshot)")
		storeDir = flag.String("store", "", "memoize tables in this optnetd result-store directory")
	)
	flag.Parse()

	if *maddr != "" {
		live := telemetry.NewLive()
		experiments.SetLive(live)
		exp := telemetry.NewExporter(live.Snapshot)
		go func() {
			if err := exp.ListenAndServe(*maddr); err != nil {
				log.Printf("experiments: metrics server: %v", err)
			}
		}()
	}

	var exec *jobs.Executor
	if *storeDir != "" {
		store, err := jobs.Open(*storeDir)
		if err != nil {
			fatal(err)
		}
		defer store.Close()
		exec = &jobs.Executor{Store: store, Experiments: experiments.JobRunner()}
	}
	opts := experiments.Options{Seed: *seed, Quick: *quick, Trials: *trials}

	switch {
	case *list:
		for _, id := range experiments.IDs() {
			fmt.Println(id)
		}
	case *all:
		for _, id := range experiments.IDs() {
			if err := emit(os.Stdout, exec, id, opts, *asJSON); err != nil {
				fatal(fmt.Errorf("%s: %w", id, err))
			}
		}
	case *run != "":
		if err := emit(os.Stdout, exec, *run, opts, *asJSON); err != nil {
			fatal(err)
		}
	default:
		flag.Usage()
		os.Exit(1)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "experiments:", err)
	os.Exit(1)
}

// emit renders one experiment to w, through the result store when exec
// is set. A stored table is compact, so -json indents it back into the
// layout Table.WriteJSON prints: a replay prints the same bytes as a run
// without a store.
func emit(w io.Writer, exec *jobs.Executor, id string, opts experiments.Options, asJSON bool) error {
	if exec == nil {
		tbl, err := experiments.Run(id, opts)
		if err != nil {
			return err
		}
		if asJSON {
			return tbl.WriteJSON(w)
		}
		tbl.Fprint(w)
		return nil
	}
	spec := jobs.Spec{Experiment: &jobs.ExperimentSpec{
		ID: id, Seed: opts.Seed, Trials: opts.Trials, Quick: opts.Quick,
	}}
	res, fromCache, err := exec.Run(spec, nil, nil, nil)
	if err != nil {
		return err
	}
	if fromCache {
		log.Printf("experiments: %s replayed from store (key %s)", id, res.Key)
	}
	if !asJSON {
		_, err = io.WriteString(w, res.Text)
		return err
	}
	var out bytes.Buffer
	if err := json.Indent(&out, res.Table, "", "  "); err != nil {
		return fmt.Errorf("%s: stored table: %w", id, err)
	}
	out.WriteByte('\n')
	_, err = w.Write(out.Bytes())
	return err
}
