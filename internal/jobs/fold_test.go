package jobs

import (
	"bytes"
	"errors"
	"strings"
	"testing"

	"repro/internal/canon"
	"repro/internal/sim"
	"repro/internal/telemetry"
)

// scriptSession is a TrialSession that plays a fixed script, with no
// cluster and no timing: before its n-th ClaimLocal call it queues the
// batches deliver[n] lists, then answers the n-th scripted claim, or
// none once the claims are spent. Delivered outcomes are the thief's
// (RunTrialRange) unless forged; an index past the sweep reuses trial
// 0's outcome under that index.
type scriptSession struct {
	claims  []int
	deliver map[int][][]int
	forged  map[int]TrialOutcome
	outs    []TrialOutcome
	ch      chan []TrialOutcome
	calls   int
	closed  bool
}

// ClaimLocal implements TrialSession.
func (s *scriptSession) ClaimLocal() (int, bool) {
	for _, batch := range s.deliver[s.calls] {
		b := make([]TrialOutcome, 0, len(batch))
		for _, i := range batch {
			o, ok := s.forged[i]
			switch {
			case ok:
			case i < len(s.outs):
				o = s.outs[i]
			default:
				o = s.outs[0]
				o.Summary.Trial = i
			}
			b = append(b, o)
		}
		s.ch <- b
	}
	s.calls++
	if s.calls > len(s.claims) {
		return 0, false
	}
	return s.claims[s.calls-1], true
}

// Completed implements TrialSession.
func (s *scriptSession) Completed() <-chan []TrialOutcome { return s.ch }

// Close implements TrialSession.
func (s *scriptSession) Close() { s.closed = true }

// scriptDistributor hands every sweep the same session.
type scriptDistributor struct{ sess *scriptSession }

// Distribute implements TrialDistributor.
func (d scriptDistributor) Distribute(key string, spec Spec, start, total int) TrialSession {
	return d.sess
}

// snapshotBytes is the canonical encoding of a telemetry snapshot.
func snapshotBytes(t *testing.T, s *telemetry.Snapshot) []byte {
	t.Helper()
	b, err := canon.Marshal(s)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// newScript returns a session over the outcomes of every trial of spec.
func newScript(t *testing.T, spec Spec, claims []int, deliver map[int][][]int) *scriptSession {
	t.Helper()
	outs, err := RunTrialRange(spec, sim.NewEngine(), 0, spec.Route.Trials)
	if err != nil {
		t.Fatal(err)
	}
	return &scriptSession{claims: claims, deliver: deliver, outs: outs, ch: make(chan []TrialOutcome, 16)}
}

// TestFoldWithSession drives the fold through a scripted session: local
// claims and stolen outcomes interleaved, duplicated, out of range and
// canceled. Every row's result has the bytes of a plain run, Live holds
// exactly the result's telemetry (each trial counted once), and a
// canceled sweep's checkpoint is exactly its folded prefix, the bytes a
// plain run canceled there stores.
func TestFoldWithSession(t *testing.T) {
	const trials = 4
	spec := testSpec(31, trials)
	ref, _, err := (&Executor{}).Run(spec, sim.NewEngine(), nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	refBytes := resultBytes(t, ref)
	key := mustKey(t, spec)
	// prefixCheckpoint is the checkpoint a plain run canceled after done
	// trials stores.
	prefixCheckpoint := func(done int) []byte {
		store, err := Open(t.TempDir())
		if err != nil {
			t.Fatal(err)
		}
		defer store.Close()
		n := 0
		_, _, err = (&Executor{Store: store}).Run(spec, sim.NewEngine(),
			func(d, total int) { n = d }, func() bool { return n >= done })
		if !errors.Is(err, ErrCanceled) {
			t.Fatalf("plain run canceled at %d: %v", done, err)
		}
		raw, _ := store.Get(checkpointKey(key))
		return raw
	}

	for _, row := range []struct {
		name    string
		claims  []int
		deliver map[int][][]int // claim call -> stolen batches queued before it
		// cancelAt cancels on this canceled() poll (1-based; 0 never) and
		// wantDone is the checkpoint's progress then.
		cancelAt, wantDone int
	}{
		{name: "reclaimed trial already stolen", claims: []int{0, 2, 1, 3}, deliver: map[int][][]int{0: {{2}}}},
		{name: "out of order, some in one batch", claims: []int{1, 3}, deliver: map[int][][]int{1: {{2, 0}}}},
		{name: "stale duplicates and indexes past the sweep", claims: []int{0, 1, 0, trials, 2, 3},
			deliver: map[int][][]int{2: {{0, trials}}, 3: {{1, trials + 5}}}},
		{name: "cancel with outcomes pending, then resume", claims: []int{0, 2},
			deliver: map[int][][]int{1: {{3}}}, cancelAt: 3, wantDone: 1},
	} {
		t.Run(row.name, func(t *testing.T) {
			store, err := Open(t.TempDir())
			if err != nil {
				t.Fatal(err)
			}
			defer store.Close()
			live := telemetry.NewLive()
			sess := newScript(t, spec, row.claims, row.deliver)
			exec := &Executor{Store: store, Live: live, Distribute: scriptDistributor{sess}}
			polls := 0
			canceled := func() bool { polls++; return polls == row.cancelAt }
			res, _, err := exec.Run(spec, sim.NewEngine(), nil, canceled)
			if !sess.closed {
				t.Error("the fold did not close its session")
			}
			if row.cancelAt > 0 {
				if !errors.Is(err, ErrCanceled) {
					t.Fatalf("want ErrCanceled, got %v", err)
				}
				raw, ok := store.Get(checkpointKey(key))
				if !ok {
					t.Fatal("no checkpoint after the cancel")
				}
				if want := prefixCheckpoint(row.wantDone); !bytes.Equal(raw, want) {
					t.Fatalf("checkpoint after the cancel is not the %d-trial prefix:\n got %s\nwant %s", row.wantDone, raw, want)
				}
				res, _, err = (&Executor{Store: store, Live: live}).Run(spec, sim.NewEngine(), nil, nil)
			}
			if err != nil {
				t.Fatal(err)
			}
			if got := resultBytes(t, res); !bytes.Equal(got, refBytes) {
				t.Errorf("result differs from a plain run:\n got %s\nwant %s", got, refBytes)
			}
			if got, want := snapshotBytes(t, live.Snapshot()), snapshotBytes(t, res.Telemetry); !bytes.Equal(got, want) {
				t.Errorf("Live differs from the result's telemetry:\n got %s\nwant %s", got, want)
			}
		})
	}
}

// TestFoldRefusesForeignGeometry: a stolen or stored snapshot the fold
// cannot take — histograms in a foreign bucket layout, or a stolen
// outcome without a snapshot — fails the sweep with a telemetry error
// and feeds nothing to Live. The forged trial is the first in fold
// order, so the refusal comes before any trial reaches Live.
func TestFoldRefusesForeignGeometry(t *testing.T) {
	spec := testSpec(32, 4)
	foreign := func(s *telemetry.Snapshot) *telemetry.Snapshot {
		f := *s
		f.Retries.Bounds = f.Retries.Bounds[1:]
		return &f
	}
	for _, name := range []string{"foreign layout", "no snapshot"} {
		t.Run(name, func(t *testing.T) {
			live := telemetry.NewLive()
			sess := newScript(t, spec, []int{1}, map[int][][]int{0: {{0}}})
			forged := sess.outs[0]
			forged.Snapshot = nil
			if name == "foreign layout" {
				forged.Snapshot = foreign(sess.outs[0].Snapshot)
			}
			sess.forged = map[int]TrialOutcome{0: forged}
			_, _, err := (&Executor{Live: live, Distribute: scriptDistributor{sess}}).Run(spec, sim.NewEngine(), nil, nil)
			if err == nil || !strings.Contains(err.Error(), "telemetry") {
				t.Fatalf("stolen outcome with snapshot %+v: err = %v, want a telemetry error", forged.Snapshot, err)
			}
			if s := live.Snapshot(); s.Runs != 0 {
				t.Errorf("Live was fed by a refused sweep: %d runs", s.Runs)
			}
		})
	}

	// A stored checkpoint in a foreign layout is refused on resume.
	store, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer store.Close()
	done := 0
	_, _, err = (&Executor{Store: store}).Run(spec, sim.NewEngine(),
		func(d, total int) { done = d }, func() bool { return done >= 2 })
	if !errors.Is(err, ErrCanceled) {
		t.Fatalf("want ErrCanceled, got %v", err)
	}
	key := mustKey(t, spec)
	var ck checkpoint
	if ok, err := store.GetJSON(checkpointKey(key), &ck); err != nil || !ok {
		t.Fatalf("checkpoint missing: %v", err)
	}
	ck.Telemetry = foreign(ck.Telemetry)
	if err := store.Put(checkpointKey(key), ck); err != nil {
		t.Fatal(err)
	}
	live := telemetry.NewLive()
	if _, _, err := (&Executor{Store: store, Live: live}).Run(spec, sim.NewEngine(), nil, nil); err == nil || !strings.Contains(err.Error(), "telemetry") {
		t.Fatalf("resume from a checkpoint in a foreign layout: err = %v, want a telemetry error", err)
	}
	if s := live.Snapshot(); s.Runs != 0 {
		t.Errorf("Live was fed by a refused resume: %d runs", s.Runs)
	}
}
