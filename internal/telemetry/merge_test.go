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
// cell merging (overlapping and disjoint heatmap cells, distinct
// histogram buckets).
func feedTrial(c *Collector, trial int) {
	c.BeginRun(8, 2, 4)
	c.RoundStarted(trial + 1)
	c.StepAdvanced(3, 1)
	c.SlotClaimed(0, MessageBand, trial%4)
	c.SlotClaimed(0, MessageBand, 5)
	c.SlotReleased(3+trial, MessageBand, trial%4)
	c.WormCut(MessageBand, trial%4, 0)
	c.WormCut(AckBand, 6, 1)
	c.FragmentSplit()
	c.WormDelivered(4 + trial)
	c.AckCompleted(trial)
	c.FaultStarted()
	if trial%2 == 0 {
		c.FaultEnded()
		c.WormKilledByFault(MessageBand)
	}
	c.SlotReleased(7+trial, MessageBand, 5)
	c.RoundFinished(RoundInfo{Round: trial + 1, Acked: 1, Active: 4})
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

// TestSnapshotAddGeometryMismatch: AddSnapshot grows the tables to a
// larger geometry and folds per-link cells only while the bandwidths
// agree; a geometry that cannot be sized, or a cell outside the
// snapshot's own geometry, is an error that leaves the collector as it
// was.
func TestSnapshotAddGeometryMismatch(t *testing.T) {
	c := NewCollector()
	c.BeginRun(4, 2, 0)
	c.WormCut(MessageBand, 3, 1)
	if err := c.AddSnapshot(trialSnapshot(0)); err != nil { // 8 links, B=2
		t.Fatalf("growing to a larger geometry: %v", err)
	}
	s := c.Snapshot()
	if s.Links != 8 || s.Bandwidth != 2 {
		t.Errorf("geometry %dx%d after the fold, want 8x2", s.Links, s.Bandwidth)
	}
	if want := []SlotCount{
		{Band: MessageBand, Link: 0, Wavelength: 0, Count: 1},
		{Band: MessageBand, Link: 3, Wavelength: 1, Count: 1},
		{Band: AckBand, Link: 6, Wavelength: 1, Count: 1},
	}; !reflect.DeepEqual(s.Collisions, want) {
		t.Errorf("collisions after growth = %+v, want %+v", s.Collisions, want)
	}

	// A narrower band adds its counters but none of its per-link cells.
	narrow := NewCollector()
	narrow.BeginRun(8, 1, 0)
	narrow.WormCut(MessageBand, 2, 0)
	if err := c.AddSnapshot(narrow.Snapshot()); err != nil {
		t.Fatal(err)
	}
	if s2 := c.Snapshot(); s2.MessageCuts != s.MessageCuts+1 || !reflect.DeepEqual(s2.Collisions, s.Collisions) {
		t.Errorf("bandwidth 1 into 2: cuts %d -> %d, collisions %+v", s.MessageCuts, s2.MessageCuts, s2.Collisions)
	}

	before := canonBytes(t, c)
	for name, bad := range map[string]*Snapshot{
		"negative links":      {Links: -1, Bandwidth: 2},
		"unsizable":           {Links: 1 << 62, Bandwidth: 1 << 4},
		"link outside":        {Links: 8, Bandwidth: 2, Collisions: []SlotCount{{Link: 8, Count: 1}}},
		"wavelength outside":  {Links: 8, Bandwidth: 2, Collisions: []SlotCount{{Link: 1, Wavelength: 2, Count: 1}}},
		"band outside":        {Links: 8, Bandwidth: 2, Collisions: []SlotCount{{Band: NumBands, Count: 1}}},
		"negative link":       {Links: 8, Bandwidth: 2, Collisions: []SlotCount{{Link: -1, Count: 1}}},
		"busy link outside":   {Links: 8, Bandwidth: 2, LinkBusySteps: []LinkBusy{{Link: 9, BusySlotSteps: 1}}},
		"busy band outside":   {Links: 8, Bandwidth: 2, LinkBusySteps: []LinkBusy{{Band: -1, BusySlotSteps: 1}}},
		"cells without links": {Collisions: []SlotCount{{Count: 1}}},
	} {
		bad.Runs = 1
		if err := c.AddSnapshot(bad); err == nil {
			t.Errorf("%s: AddSnapshot accepted %+v", name, bad)
		}
		if after := canonBytes(t, c); !bytes.Equal(after, before) {
			t.Fatalf("%s: a refused snapshot changed the collector", name)
		}
	}
}

// TestSnapshotAddHistogramMismatch: a histogram with another bucket
// layout — corrupt checkpoint or peer input — is an error, not a silent
// misfold or a panic, and leaves the collector unchanged.
func TestSnapshotAddHistogramMismatch(t *testing.T) {
	c := NewCollector()
	feedTrial(c, 0)
	before := canonBytes(t, c)
	o := trialSnapshot(1)
	o.Retries.Bounds[0]++
	if err := c.AddSnapshot(o); err == nil {
		t.Fatal("adding histograms with different bounds must error")
	}
	o2 := trialSnapshot(1)
	o2.Makespan.Bounds = o2.Makespan.Bounds[:3]
	o2.Makespan.Counts = o2.Makespan.Counts[:4]
	if err := c.AddSnapshot(o2); err == nil {
		t.Fatal("adding histograms with different layouts must error")
	}
	o3 := trialSnapshot(1)
	o3.StepsToDelivery.Counts = o3.StepsToDelivery.Counts[:len(o3.StepsToDelivery.Bounds)]
	if err := c.AddSnapshot(o3); err == nil {
		t.Fatal("adding a histogram without its +Inf bucket must error")
	}
	if after := canonBytes(t, c); !bytes.Equal(after, before) {
		t.Error("a refused snapshot changed the collector")
	}
	h := NewHistogram([]int{1, 2})
	other := NewHistogram([]int{1, 3})
	if os := other.Snapshot(); h.fits(&os) {
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

// fuzzGeometry is the fixed geometry of FuzzCollectorAddSnapshot's
// collector: the 5x5 torus (100 directed links) at one wavelength that
// the golden route sweep of internal/jobs runs on.
const fuzzLinks, fuzzBandwidth = 100, 1

// FuzzCollectorAddSnapshot folds arbitrary decoded snapshots — the
// telemetry of checkpoints read from disk and of trials posted by peers —
// into a collector of fixed geometry. The fold either errors and leaves
// the collector's canonical bytes unchanged, or succeeds; it never
// panics, and the folded collector's snapshot, folded into an empty
// collector, reproduces its canonical bytes. AddSnapshot sizes tables
// from the declared geometry, and callers folding outside input bound it
// first (the jobs fold refuses all but the job's own), so inputs
// declaring more than 64x the fixed geometry are skipped rather than
// allocated. testdata/fuzz holds a per-trial snapshot and the two-trial
// checkpoint telemetry of that golden sweep.
func FuzzCollectorAddSnapshot(f *testing.F) {
	seed := func(s *Snapshot) {
		b, err := json.Marshal(s)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(b)
	}
	seed(trialSnapshot(1))
	outside := trialSnapshot(2)
	outside.Collisions = append(outside.Collisions, SlotCount{Link: outside.Links, Count: 1})
	seed(outside)
	layout := trialSnapshot(3)
	layout.Retries.Bounds = layout.Retries.Bounds[1:]
	seed(layout)
	f.Fuzz(func(t *testing.T, data []byte) {
		var s Snapshot
		if json.Unmarshal(data, &s) != nil {
			return
		}
		if s.Links > 64*fuzzLinks || s.Bandwidth > 64*fuzzBandwidth {
			return
		}
		c := NewCollector()
		c.BeginRun(fuzzLinks, fuzzBandwidth, 2)
		c.WormCut(MessageBand, 7, 0)
		c.WormDelivered(5)
		c.EndRun(9)
		before := canonBytes(t, c)
		if err := c.AddSnapshot(&s); err != nil {
			if after := canonBytes(t, c); !bytes.Equal(after, before) {
				t.Fatalf("refused fold (%v) changed the collector:\n got %s\nwant %s", err, after, before)
			}
			return
		}
		want := canonBytes(t, c)
		again := NewCollector()
		if err := again.AddSnapshot(c.Snapshot()); err != nil {
			t.Fatalf("a collector's own snapshot does not fold: %v", err)
		}
		if got := canonBytes(t, again); !bytes.Equal(got, want) {
			t.Fatalf("snapshot folded into an empty collector differs:\n got %s\nwant %s", got, want)
		}
	})
}
