package jobs

import (
	"fmt"
	"time"

	"repro/internal/telemetry"
)

// trialRunner runs the trials of one materialized sweep on one engine.
// Every trial is observed by col, which step empties again, so each
// trial's snapshot holds exactly that trial.
type trialRunner[S any] struct {
	col *telemetry.Collector
	run func(i int) (S, error) // runs trial i with col attached
}

// step runs trial i and returns its summary and its solo telemetry
// snapshot. Local sweeps and stolen ranges (RunTrialRange) both run
// trials through it.
func (r trialRunner[S]) step(i int) (S, *telemetry.Snapshot, error) {
	sum, err := r.run(i)
	if err != nil {
		return sum, nil, err
	}
	snap := r.col.Snapshot()
	r.col.Reset()
	return sum, snap, nil
}

// sweep is a route or dynamic sweep as the fold sees it; S is the kind's
// per-trial summary.
type sweep[S any] struct {
	key   string
	total int
	// trials gives where a checkpoint keeps this kind's summaries.
	trials func(*checkpoint) *[]S
	runner trialRunner[S]
	// session, when set, opens remote distribution of the trials from
	// start on; it may return nil. Only route sweeps set it.
	session func(start int) TrialSession
}

// outcome is a finished trial waiting for its turn in the fold.
type outcome[S any] struct {
	sum  S
	snap *telemetry.Snapshot
}

// distPollInterval bounds the owner's wait for stolen outcomes, so
// cancellation and reclaimed trials are noticed promptly.
const distPollInterval = 50 * time.Millisecond

// fold runs (or resumes) the sweep and returns the summaries and folded
// telemetry of all its trials. It is the one fold every sweep takes:
// sequential, resumed and stolen. It resumes from the last checkpoint
// (local store or replica), claims trials — the next index, or the
// session's ClaimLocal — and runs them, buffers finished trials by index
// (local ones and stolen ones from the session), and folds them strictly
// in trial order: each step adds the trial's snapshot to the fold and to
// Live and checkpoints. A result and every checkpoint are therefore the
// bytes of an uninterrupted single-node run. canceled is polled before
// every claim and stops the sweep with ErrCanceled, the checkpoint
// holding the folded prefix.
func (sw *sweep[S]) fold(e *Executor, progress func(done, total int), canceled func() bool) ([]S, *telemetry.Snapshot, error) {
	ck := checkpoint{Key: sw.key}
	done := sw.trials(&ck)
	*done = make([]S, 0, sw.total)
	tel := telemetry.NewCollector()
	if e.Store != nil || e.Lookup != nil {
		// The checkpoint lookup consults replicas too: a sweep whose owner
		// died resumes on the next node from the replicated checkpoint.
		var stored checkpoint
		raw, err := e.lookupJSON(checkpointKey(sw.key), &stored)
		if err != nil {
			return nil, nil, err
		}
		prefix := *sw.trials(&stored)
		if raw != nil && stored.Key == sw.key && stored.Done == len(prefix) && stored.Done <= sw.total && stored.Telemetry != nil {
			if err := tel.AddSnapshot(stored.Telemetry); err != nil {
				return nil, nil, err
			}
			*done = append(*done, prefix...)
			ck.Done = stored.Done
		}
	}
	next := ck.Done // trials [0, next) are folded
	if progress != nil {
		progress(next, sw.total)
	}
	var sess TrialSession
	if sw.session != nil {
		if sess = sw.session(next); sess != nil {
			defer sess.Close()
		}
	}

	pending := make(map[int]outcome[S]) // finished, not yet folded
	wanted := func(i int) bool {
		_, dup := pending[i]
		return i >= next && i < sw.total && !dup
	}
	// receive buffers stolen outcomes. An index already folded or pending
	// is a reclaimed trial's second copy and is dropped.
	receive := func(outs []TrialOutcome) error {
		for _, o := range outs {
			if i := o.Summary.Trial; wanted(i) {
				if o.Snapshot == nil {
					return fmt.Errorf("jobs: sweep %s: a trial without its telemetry snapshot", sw.key)
				}
				// Only route sweeps have a session, so S is TrialSummary.
				pending[i] = outcome[S]{sum: any(o.Summary).(S), snap: o.Snapshot}
			}
		}
		return nil
	}

	for next < sw.total {
		if canceled != nil && canceled() {
			return nil, nil, ErrCanceled
		}
		i, ok := next, true
		if sess != nil {
			i, ok = sess.ClaimLocal()
		}
		switch {
		case ok && wanted(i):
			sum, snap, err := sw.runner.step(i)
			if err != nil {
				return nil, nil, err
			}
			pending[i] = outcome[S]{sum: sum, snap: snap}
		case !ok:
			// Every remaining trial is claimed remotely: wait for outcomes,
			// bounded so expired claims (dead peer) flow back to ClaimLocal.
			select {
			case outs := <-sess.Completed():
				if err := receive(outs); err != nil {
					return nil, nil, err
				}
			case <-time.After(distPollInterval):
			}
		}
	drained:
		for sess != nil {
			select {
			case outs := <-sess.Completed():
				if err := receive(outs); err != nil {
					return nil, nil, err
				}
			default:
				break drained
			}
		}
		for o, ok := pending[next]; ok; o, ok = pending[next] {
			delete(pending, next)
			if err := tel.AddSnapshot(o.snap); err != nil {
				return nil, nil, err
			}
			if e.Live != nil {
				if err := e.Live.AddSnapshot(o.snap); err != nil {
					return nil, nil, err
				}
			}
			*done = append(*done, o.sum)
			next++
			if e.Store != nil {
				ck.Done, ck.Telemetry = next, tel.Snapshot()
				if err := e.Store.Put(checkpointKey(sw.key), ck); err != nil {
					return nil, nil, err
				}
			}
			if progress != nil {
				progress(next, sw.total)
			}
		}
	}
	return *done, tel.Snapshot(), nil
}
