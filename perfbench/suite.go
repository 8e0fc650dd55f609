package main

import (
	"fmt"
	"sort"
	"time"

	"repro/internal/experiments"
)

// suitePass runs every experiment table once, timing each and checking
// its canonical JSON against the recording for the input seed (full size
// only). each, when set, wraps every table run.
func suitePass(cfg runConfig, r *report, each func(id string) func()) (map[string]time.Duration, error) {
	seed := inputSeed(cfg.seed)
	want := expected.Tables[fmt.Sprint(seed)]
	times := make(map[string]time.Duration)
	for _, id := range experiments.IDs() {
		done := func() {}
		if each != nil {
			done = each(id)
		}
		t0 := time.Now()
		tbl, err := experiments.Run(id, experiments.Options{Seed: seed, Quick: cfg.smoke})
		times[id] = time.Since(t0)
		done()
		r.attempted++
		if err != nil {
			r.fail("experiment %s: %v", id, err)
			continue
		}
		if cfg.smoke {
			continue
		}
		d, err := tableDigest(tbl)
		if err != nil {
			return nil, err
		}
		if d != want[id] {
			r.fail("experiment %s seed %d: table digest %s, recorded %q", id, seed, d, want[id])
		}
	}
	return times, nil
}

// timedSuite is the experiments-all timed run: whole passes over every
// table until the measuring time is used up (one pass at full size
// already takes longer than a typical run).
func timedSuite(cfg runConfig, r *report) error {
	warm := cfg
	warm.smoke = true
	err := repeatSetup(r, func() error {
		_, err := suitePass(warm, newReport(), nil)
		return err
	})
	if err != nil {
		return err
	}
	// The operation is a whole pass, what a reader reproducing the
	// tables waits for; per-table times are the traced run's
	// experiments.<ID>_s.
	var passes samples
	start := time.Now()
	for another(start, cfg.seconds, passes) {
		t0 := time.Now()
		if _, err := suitePass(cfg, r, nil); err != nil {
			return err
		}
		passes.add(time.Since(t0))
	}
	elapsed := time.Since(start).Seconds()
	r.set("run_s", median(passes), "s", len(passes))
	r.set("ops_per_s", float64(len(passes))/elapsed, "1/s", len(passes))
	r.set("op_p50_s", median(passes), "s", len(passes))
	r.set("cold_p50_s", median(passes), "s", len(passes))
	return nil
}

// tracedSuite measures one pass with a span per table and reports each
// table's time as experiments.<ID>_s.
func tracedSuite(cfg runConfig, tr *tracer, r *report) (map[string]float64, error) {
	times, err := suitePass(cfg, r, func(id string) func() {
		sp := tr.begin("experiments.table", id, -1)
		return func() { tr.end(sp) }
	})
	if err != nil {
		return nil, err
	}
	m := make(map[string]float64, len(times))
	ids := make([]string, 0, len(times))
	total := 0.0
	for id, d := range times {
		m["experiments."+id+"_s"] = d.Seconds()
		ids = append(ids, id)
		total += d.Seconds()
	}
	if !cfg.smoke {
		sort.Slice(ids, func(a, b int) bool { return times[ids[a]] > times[ids[b]] })
		r.line("where the time goes, experiments-all (%.4g s over %d tables), slowest first:", total, len(ids))
		for _, id := range ids[:min(8, len(ids))] {
			r.line("  %-4s %8.4g s  %5.1f%%", id, times[id].Seconds(), 100*times[id].Seconds()/total)
		}
	}
	return m, nil
}
