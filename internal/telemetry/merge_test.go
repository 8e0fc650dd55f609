package telemetry

import (
	"bytes"
	"encoding/json"
	"reflect"
	"testing"

	"repro/internal/canon"
)

// feedTrial drives one synthetic trial's worth of events into c. The
// trial index varies the event mix so merged snapshots actually exercise
// merging (distinct histogram buckets, fault counters on every other
// trial).
func feedTrial(c *Collector, trial int) {
	c.BeginRun(4)
	c.RoundStarted(trial + 1)
	c.StepAdvanced(3, 1)
	c.WormCut(MessageBand)
	c.WormCut(AckBand)
	c.WormDelivered(4 + trial)
	c.AckCompleted(trial)
	c.FaultStarted()
	if trial%2 == 0 {
		c.FaultEnded()
		c.WormKilledByFault(MessageBand)
	}
	c.RoundFinished(RoundInfo{Round: trial + 1, Acked: 1, ActiveBefore: 4})
	c.EndRun(8 + trial)
}

// trialSnapshot is the snapshot of one feedTrial trial on its own.
func trialSnapshot(trial int) *Snapshot {
	c := NewCollector()
	feedTrial(c, trial)
	return c.Snapshot()
}

// canonBytes is the canonical encoding of c's snapshot.
func canonBytes(t testing.TB, c *Collector) []byte {
	t.Helper()
	b, err := canon.Marshal(c.Snapshot())
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// TestAddSnapshotReproducesCollector is the checkpoint-resume identity:
// folding per-trial snapshots with AddSnapshot gives, field for field,
// the snapshot of one collector that observed the same trials, and that
// snapshot folded into an empty collector reproduces itself.
func TestAddSnapshotReproducesCollector(t *testing.T) {
	const trials = 5
	direct := NewCollector()
	folded := NewCollector()
	for trial := 0; trial < trials; trial++ {
		feedTrial(direct, trial)
		if err := folded.AddSnapshot(trialSnapshot(trial)); err != nil {
			t.Fatalf("AddSnapshot trial %d: %v", trial, err)
		}
	}
	want := direct.Snapshot()
	if got := folded.Snapshot(); !reflect.DeepEqual(got, want) {
		gb, _ := json.Marshal(got)
		wb, _ := json.Marshal(want)
		t.Errorf("folded snapshot diverges from the observing collector:\n got %s\nwant %s", gb, wb)
	}
	again := NewCollector()
	if err := again.AddSnapshot(want); err != nil {
		t.Fatal(err)
	}
	if got := again.Snapshot(); !reflect.DeepEqual(got, want) {
		t.Error("a collector's snapshot folded into an empty collector does not reproduce it")
	}
}

// TestSnapshotAddJSONRoundTrip: AddSnapshot must produce the same result
// when the per-trial snapshots have been through a JSON round trip, which
// is exactly what the job store's checkpoints and stolen trials do.
func TestSnapshotAddJSONRoundTrip(t *testing.T) {
	direct := NewCollector()
	viaJSON := NewCollector()
	for trial := 0; trial < 3; trial++ {
		snap := trialSnapshot(trial)
		if err := direct.AddSnapshot(snap); err != nil {
			t.Fatal(err)
		}
		b, err := json.Marshal(snap)
		if err != nil {
			t.Fatal(err)
		}
		var back Snapshot
		if err := json.Unmarshal(b, &back); err != nil {
			t.Fatal(err)
		}
		if err := viaJSON.AddSnapshot(&back); err != nil {
			t.Fatal(err)
		}
	}
	if d, j := canonBytes(t, direct), canonBytes(t, viaJSON); !bytes.Equal(d, j) {
		t.Errorf("JSON round trip changed the fold:\n got %s\nwant %s", j, d)
	}
}

// TestSnapshotAddHistogramMismatch: a histogram that does not fit —
// another bucket layout, counts that contradict its own count and sum,
// or extremes that contradict its buckets, as a corrupt checkpoint or a
// peer's input may hold — is an error, not a silent misfold or a panic,
// and leaves the collector unchanged.
func TestSnapshotAddHistogramMismatch(t *testing.T) {
	for _, tc := range []struct {
		name string
		snap func() *Snapshot
	}{
		{"different bounds", func() *Snapshot {
			o := trialSnapshot(1)
			o.Retries.Bounds[0]++
			return o
		}},
		{"different layout", func() *Snapshot {
			o := trialSnapshot(1)
			o.Makespan.Bounds = o.Makespan.Bounds[:3]
			o.Makespan.Counts = o.Makespan.Counts[:4]
			return o
		}},
		{"no +Inf bucket", func() *Snapshot {
			o := trialSnapshot(1)
			o.StepsToDelivery.Counts = o.StepsToDelivery.Counts[:len(o.StepsToDelivery.Bounds)]
			return o
		}},
		{"sum without observations", func() *Snapshot {
			return &Snapshot{Retries: Histogram{Sum: 7, Max: 9}}
		}},
		{"counts exceed count", func() *Snapshot {
			o := trialSnapshot(1)
			o.StepsToDelivery.Counts[0] += 4
			return o
		}},
		// trialSnapshot(1) delivers one worm after 5 steps, in the
		// StepsToDelivery bucket (4, 8].
		{"min above max", func() *Snapshot {
			o := trialSnapshot(1)
			o.StepsToDelivery.Min, o.StepsToDelivery.Max = 7, 6
			return o
		}},
		{"max beyond its bucket", func() *Snapshot {
			o := trialSnapshot(1)
			o.StepsToDelivery.Max = 1 << 40
			return o
		}},
		{"min below its bucket", func() *Snapshot {
			o := trialSnapshot(1)
			o.StepsToDelivery.Min = 4
			return o
		}},
		{"negative min", func() *Snapshot {
			o := trialSnapshot(0)
			o.Retries.Min = -1
			return o
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			c := NewCollector()
			feedTrial(c, 0)
			before := canonBytes(t, c)
			if err := c.AddSnapshot(tc.snap()); err == nil {
				t.Fatal("the fold must error")
			}
			if after := canonBytes(t, c); !bytes.Equal(after, before) {
				t.Error("a refused snapshot changed the collector")
			}
		})
	}
	h := NewHistogram([]int{1, 2})
	other := NewHistogram([]int{1, 3})
	if h.fits(&other) {
		t.Error("histograms with different bounds fit")
	}
}

// TestSnapshotAddRoundsCap: the fold honors the collector's round
// retention cap and accounts for the surplus in RoundsDropped.
func TestSnapshotAddRoundsCap(t *testing.T) {
	c := NewCollector()
	per := maxTrackedRounds/2 + 10
	for i := 0; i < 3; i++ {
		o := &Snapshot{Rounds: make([]RoundInfo, per)}
		for j := range o.Rounds {
			o.Rounds[j] = RoundInfo{Round: i*per + j}
		}
		if err := c.AddSnapshot(o); err != nil {
			t.Fatal(err)
		}
	}
	s := c.Snapshot()
	if len(s.Rounds) != maxTrackedRounds {
		t.Errorf("retained %d rounds, want cap %d", len(s.Rounds), maxTrackedRounds)
	}
	if want := uint64(3*per - maxTrackedRounds); s.RoundsDropped != want {
		t.Errorf("RoundsDropped = %d, want %d", s.RoundsDropped, want)
	}
	if s.Rounds[0].Round != 0 || s.Rounds[maxTrackedRounds-1].Round != maxTrackedRounds-1 {
		t.Error("rounds not retained in fold order")
	}
}

// FuzzCollectorAddSnapshot folds arbitrary decoded snapshots — the
// telemetry of checkpoints read from disk and of trials posted by peers —
// into a collector that has observed one run. The fold either errors and
// leaves the collector's canonical bytes unchanged, or succeeds; it never
// panics, every histogram of the folded collector still has counts that
// sum to its Count and, with observations, quantiles between its Min and
// Max, and the folded collector's snapshot, folded into an empty
// collector, reproduces its canonical bytes. Nothing is sized from the
// input, so every decodable input is folded. testdata/fuzz holds a
// per-trial snapshot and the two-trial checkpoint telemetry of the golden
// route sweep of internal/jobs, and one per-trial snapshot in the older
// layout that also carried per-link tables, as stores written before
// their removal still hold it.
func FuzzCollectorAddSnapshot(f *testing.F) {
	seed := func(s *Snapshot) {
		b, err := json.Marshal(s)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(b)
	}
	seed(trialSnapshot(1))
	// The older layout's per-link fields, one cell outside its declared
	// geometry: the fold reads none of them.
	old, err := json.Marshal(trialSnapshot(2))
	if err != nil {
		f.Fatal(err)
	}
	f.Add(append([]byte(`{"links":8,"bandwidth":2,"fragment_splits":1,"collisions":[{"band":0,"link":8,"wavelength":0,"count":1}],`+
		`"link_busy_steps":[{"band":1,"link":5,"busy_slot_steps":7}],`), old[1:]...))
	layout := trialSnapshot(3)
	layout.Retries.Bounds = layout.Retries.Bounds[1:]
	seed(layout)
	f.Fuzz(func(t *testing.T, data []byte) {
		var s Snapshot
		if json.Unmarshal(data, &s) != nil {
			return
		}
		c := NewCollector()
		c.BeginRun(2)
		c.WormCut(MessageBand)
		c.WormDelivered(5)
		c.EndRun(9)
		before := canonBytes(t, c)
		if err := c.AddSnapshot(&s); err != nil {
			if after := canonBytes(t, c); !bytes.Equal(after, before) {
				t.Fatalf("refused fold (%v) changed the collector:\n got %s\nwant %s", err, after, before)
			}
			return
		}
		folded := c.Snapshot()
		for i, h := range folded.histograms() {
			var n uint64
			for _, k := range h.Counts {
				n += k
			}
			if n != h.Count {
				t.Fatalf("histogram %d after the fold: counts sum to %d, count is %d", i, n, h.Count)
			}
			if h.Count == 0 {
				continue
			}
			for _, q := range []float64{0, 0.5, 0.99, 1} {
				if v := h.Quantile(q); v < float64(h.Min) || v > float64(h.Max) {
					t.Fatalf("histogram %d after the fold: Quantile(%v) = %v outside [Min %d, Max %d]", i, q, v, h.Min, h.Max)
				}
			}
		}
		want := canonBytes(t, c)
		again := NewCollector()
		if err := again.AddSnapshot(folded); err != nil {
			t.Fatalf("a collector's own snapshot does not fold: %v", err)
		}
		if got := canonBytes(t, again); !bytes.Equal(got, want) {
			t.Fatalf("snapshot folded into an empty collector differs:\n got %s\nwant %s", got, want)
		}
	})
}
