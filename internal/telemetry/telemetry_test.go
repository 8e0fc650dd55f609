package telemetry

import (
	"bytes"
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
)

func TestHistogramObserve(t *testing.T) {
	h := NewHistogram([]int{1, 2, 4, 8})
	for _, v := range []int{0, 1, 2, 3, 5, 9, 100, -7} {
		h.Observe(v)
	}
	// -7 clamps to 0; buckets (<=1, <=2, <=4, <=8, +Inf).
	want := []uint64{3, 1, 1, 1, 2}
	s := h.Snapshot()
	for i, w := range want {
		if s.Counts[i] != w {
			t.Errorf("bucket %d: got %d, want %d (counts %v)", i, s.Counts[i], w, s.Counts)
		}
	}
	if h.Count != 8 {
		t.Errorf("count = %d, want 8", h.Count)
	}
	if h.Sum != 0+1+2+3+5+9+100+0 {
		t.Errorf("sum = %d", h.Sum)
	}
	if s.Min != 0 || s.Max != 100 {
		t.Errorf("min/max = %d/%d, want 0/100", s.Min, s.Max)
	}
	if got := h.Mean(); got != 15 {
		t.Errorf("mean = %v, want 15", got)
	}
}

func TestHistogramEmpty(t *testing.T) {
	h := NewHistogram([]int{1})
	if h.Mean() != 0 {
		t.Error("empty mean must be 0")
	}
	s := h.Snapshot()
	if s.Min != -1 || s.Max != 0 || s.Mean() != 0 {
		t.Errorf("empty snapshot min/max/mean = %d/%d/%v", s.Min, s.Max, s.Mean())
	}
}

// TestHistogramMerge: a histogram snapshot folds into a histogram of the
// same layout, the way Collector.AddSnapshot folds each of its five.
func TestHistogramMerge(t *testing.T) {
	a := NewHistogram([]int{2, 4})
	b := NewHistogram([]int{2, 4})
	a.Observe(1)
	a.Observe(5)
	b.Observe(3)
	bs := b.Snapshot()
	if !a.fits(&bs) {
		t.Fatal("same layouts do not fit")
	}
	a.add(&bs)
	if a.Count != 3 || a.Sum != 9 {
		t.Errorf("merged count/sum = %d/%d, want 3/9", a.Count, a.Sum)
	}
	s := a.Snapshot()
	if s.Min != 1 || s.Max != 5 {
		t.Errorf("merged min/max = %d/%d", s.Min, s.Max)
	}
	// Merging an empty histogram must not disturb min.
	empty := NewHistogram([]int{2, 4})
	es := empty.Snapshot()
	a.add(&es)
	if a.Snapshot().Min != 1 {
		t.Error("merging empty histogram changed min")
	}
}

// TestHistogramMergeLayoutPanics: folding a histogram of another bucket
// layout panics instead of misfolding; AddSnapshot, which folds outside
// input, checks layouts first and returns an error.
func TestHistogramMergeLayoutPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("merging different layouts must panic")
		}
	}()
	a := NewHistogram([]int{1, 2})
	b := NewHistogram([]int{1, 3})
	bs := b.Snapshot()
	a.add(&bs)
}

func TestBucketConstructors(t *testing.T) {
	if got := ExpBuckets(1, 2, 5); len(got) != 5 || got[0] != 1 || got[4] != 16 {
		t.Errorf("ExpBuckets(1,2,5) = %v", got)
	}
	if got := LinearBuckets(3, 2, 4); got[0] != 3 || got[3] != 9 {
		t.Errorf("LinearBuckets(3,2,4) = %v", got)
	}
}

// drive feeds a collector a tiny synthetic run: one worm delivered and
// acked over four steps, one message-band cut, and one injected fault
// window killing an ack train.
func drive(c *Collector) {
	c.BeginRun(1)
	c.StepAdvanced(1, 0)
	c.FaultStarted()
	c.StepAdvanced(2, 0)
	c.WormCut(MessageBand)
	c.WormKilledByFault(AckBand)
	c.StepAdvanced(1, 0)
	c.FaultEnded()
	c.WormDelivered(3)
	c.AckCompleted(0)
	c.StepAdvanced(0, 0)
	c.EndRun(3)
}

func TestCollectorCounters(t *testing.T) {
	c := NewCollector()
	drive(c)
	s := c.Snapshot()
	if s.Runs != 1 || s.Steps != 4 || s.WormsLaunched != 1 {
		t.Errorf("runs/steps/worms = %d/%d/%d", s.Runs, s.Steps, s.WormsLaunched)
	}
	if s.MessageBusySlotSteps != 4 || s.AckBusySlotSteps != 0 {
		t.Errorf("busy = %d/%d, want 4/0", s.MessageBusySlotSteps, s.AckBusySlotSteps)
	}
	if s.MessageCuts != 1 || s.AckCuts != 0 {
		t.Errorf("cuts = %d/%d, want 1/0", s.MessageCuts, s.AckCuts)
	}
	if s.Delivered != 1 || s.Acked != 1 {
		t.Errorf("delivered/acked = %d/%d", s.Delivered, s.Acked)
	}
	if s.FaultsStarted != 1 || s.FaultsEnded != 1 {
		t.Errorf("faults started/ended = %d/%d, want 1/1", s.FaultsStarted, s.FaultsEnded)
	}
	if s.MessageFaultKills != 0 || s.AckFaultKills != 1 {
		t.Errorf("fault kills message/ack = %d/%d, want 0/1", s.MessageFaultKills, s.AckFaultKills)
	}
	if s.Makespan.Count != 1 || s.Makespan.Sum != 3 {
		t.Errorf("makespan histogram = %+v", s.Makespan)
	}
	if s.StepsToDelivery.Sum != 3 || s.StepsToDelivery.Count != 1 {
		t.Errorf("delivery histogram = %+v", s.StepsToDelivery)
	}
}

func TestCollectorRoundHooks(t *testing.T) {
	c := NewCollector()
	c.RoundStarted(1)
	c.BeginRun(10)
	c.AckCompleted(2)
	c.EndRun(5)
	c.RoundFinished(RoundInfo{Round: 1, DelayRange: 64, ActiveBefore: 10, Acked: 1, Makespan: 5, ResidualCongestion: -1})
	c.RoundStarted(2)
	c.BeginRun(9)
	c.AckCompleted(2)
	c.EndRun(4)
	c.RoundFinished(RoundInfo{Round: 2, DelayRange: 32, ActiveBefore: 9, Acked: 1, Makespan: 4, ResidualCongestion: -1})

	s := c.Snapshot()
	if s.RoundsObserved != 2 || len(s.Rounds) != 2 {
		t.Fatalf("rounds observed/kept = %d/%d", s.RoundsObserved, len(s.Rounds))
	}
	if s.Rounds[1].DelayRange != 32 {
		t.Errorf("round 2 info = %+v", s.Rounds[1])
	}
	// Worm 0 acked in round 1 (0 retries), worm 1 in round 2 (1 retry).
	if s.Retries.Sum != 1 || s.Retries.Count != 2 {
		t.Errorf("retries histogram = %+v", s.Retries)
	}
	if s.RoundsToAck.Sum != 3 {
		t.Errorf("rounds-to-ack sum = %d, want 3", s.RoundsToAck.Sum)
	}
}

func TestCollectorRoundRetention(t *testing.T) {
	c := NewCollector()
	for r := 1; r <= maxTrackedRounds+3; r++ {
		c.RoundFinished(RoundInfo{Round: r})
	}
	s := c.Snapshot()
	if len(s.Rounds) != maxTrackedRounds || s.RoundsDropped != 3 {
		t.Errorf("kept %d rounds, dropped %d", len(s.Rounds), s.RoundsDropped)
	}
}

// TestCollectorMerge: two collectors merge as c.AddSnapshot(o.Snapshot()).
func TestCollectorMerge(t *testing.T) {
	a, b := NewCollector(), NewCollector()
	drive(a)
	drive(b)
	if err := a.AddSnapshot(b.Snapshot()); err != nil {
		t.Fatal(err)
	}
	s := a.Snapshot()
	if s.Runs != 2 || s.Steps != 8 || s.Delivered != 2 {
		t.Errorf("merged runs/steps/delivered = %d/%d/%d", s.Runs, s.Steps, s.Delivered)
	}
	if s.MessageBusySlotSteps != 8 {
		t.Errorf("merged busy = %d, want 8", s.MessageBusySlotSteps)
	}
	if s.MessageCuts != 2 {
		t.Errorf("merged cuts = %d, want 2", s.MessageCuts)
	}
	if s.StepsToDelivery.Count != 2 {
		t.Errorf("merged delivery count = %d", s.StepsToDelivery.Count)
	}
	if s.FaultsStarted != 2 || s.FaultsEnded != 2 || s.AckFaultKills != 2 {
		t.Errorf("merged fault counters = %d/%d/%d, want 2/2/2",
			s.FaultsStarted, s.FaultsEnded, s.AckFaultKills)
	}
}

func TestCollectorReset(t *testing.T) {
	c := NewCollector()
	drive(c)
	c.Reset()
	s := c.Snapshot()
	if s.Runs != 0 || s.Steps != 0 || s.MessageCuts != 0 || s.MessageBusySlotSteps != 0 {
		t.Errorf("reset left state behind: %+v", s)
	}
	if s.FaultsStarted != 0 || s.FaultsEnded != 0 || s.MessageFaultKills != 0 || s.AckFaultKills != 0 {
		t.Errorf("reset left fault counters behind: %+v", s)
	}
}

// TestCollectorHooksAllocationFree pins the collector's core promise: the
// per-event path performs zero allocations, and so does the Reset that
// readies a collector for the next trial.
func TestCollectorHooksAllocationFree(t *testing.T) {
	c := NewCollector()
	if avg := testing.AllocsPerRun(100, func() { drive(c) }); avg != 0 {
		t.Errorf("collector hooks allocate %v allocs per run, want 0", avg)
	}
	if avg := testing.AllocsPerRun(100, func() {
		c.RoundStarted(1)
		drive(c)
		c.RoundFinished(RoundInfo{Round: 1, ActiveBefore: 1, Acked: 1})
		c.Reset()
	}); avg != 0 {
		t.Errorf("a round and Reset allocate %v allocs per run, want 0", avg)
	}
}

func TestSnapshotJSONRoundTrip(t *testing.T) {
	c := NewCollector()
	drive(c)
	var buf bytes.Buffer
	if err := c.Snapshot().WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	var back Snapshot
	if err := json.Unmarshal(buf.Bytes(), &back); err != nil {
		t.Fatalf("round-trip decode: %v\n%s", err, buf.String())
	}
	if back.Runs != 1 || back.MessageBusySlotSteps != 4 || back.MessageCuts != 1 {
		t.Errorf("round-tripped snapshot = %+v", back)
	}
	if back.Makespan.Count != 1 {
		t.Errorf("round-tripped histogram = %+v", back.Makespan)
	}
}

func TestWritePrometheus(t *testing.T) {
	c := NewCollector()
	drive(c)
	var buf bytes.Buffer
	if err := c.Snapshot().WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{
		"optnet_runs_total 1\n",
		"optnet_steps_total 4\n",
		"optnet_busy_slot_steps_total{band=\"message\"} 4\n",
		"optnet_cuts_total{band=\"message\"} 1\n",
		"optnet_fragment_splits_total 2\n",
		"optnet_faults_started_total 1\n",
		"optnet_faults_ended_total 1\n",
		"optnet_fault_kills_total{band=\"ack\"} 1\n",
		"optnet_steps_to_delivery_count 1\n",
		"optnet_run_makespan_steps_sum 3\n",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("missing %q in output:\n%s", want, out)
		}
	}
	// Histogram buckets must be cumulative and end at +Inf == count.
	if !strings.Contains(out, "optnet_run_makespan_steps_bucket{le=\"+Inf\"} 1\n") {
		t.Errorf("missing +Inf bucket:\n%s", out)
	}
}

func TestLiveAbsorbAndExporter(t *testing.T) {
	live := NewLive()
	c := NewCollector()
	drive(c)
	live.Absorb(c)
	if c.Snapshot().Runs != 0 {
		t.Error("Absorb must reset the source collector")
	}
	drive(c)
	live.Absorb(c) // second delta accumulates

	srv := httptest.NewServer(NewExporter(live.Snapshot).Handler())
	defer srv.Close()

	get := func(path string) (string, string) {
		resp, err := http.Get(srv.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		body, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("GET %s: %d", path, resp.StatusCode)
		}
		return string(body), resp.Header.Get("Content-Type")
	}

	metrics, ctype := get("/metrics")
	if !strings.HasPrefix(ctype, "text/plain") {
		t.Errorf("/metrics content type = %q", ctype)
	}
	if !strings.Contains(metrics, "optnet_runs_total 2\n") {
		t.Errorf("aggregated metrics missing runs=2:\n%s", metrics)
	}

	snap, ctype := get("/snapshot")
	if ctype != "application/json" {
		t.Errorf("/snapshot content type = %q", ctype)
	}
	var s Snapshot
	if err := json.Unmarshal([]byte(snap), &s); err != nil {
		t.Fatalf("/snapshot is not JSON: %v", err)
	}
	if s.Runs != 2 || s.Delivered != 2 {
		t.Errorf("aggregated snapshot runs/delivered = %d/%d", s.Runs, s.Delivered)
	}
}

func TestHistogramSnapshotQuantile(t *testing.T) {
	h := NewHistogram(LinearBuckets(10, 10, 10)) // bounds 10..100
	// 100 observations of 1..100: quantiles are predictable.
	for v := 1; v <= 100; v++ {
		h.Observe(v)
	}
	s := h.Snapshot()
	cases := []struct {
		q    float64
		lo   float64
		hi   float64
		name string
	}{
		{0, 1, 1, "q0 is min"},
		{0.5, 45, 55, "median near 50"},
		{0.95, 90, 100, "p95 near 95"},
		{1, 100, 100, "q1 is max"},
		{-0.5, 1, 1, "clamped below"},
		{1.5, 100, 100, "clamped above"},
	}
	for _, tc := range cases {
		got := s.Quantile(tc.q)
		if got < tc.lo || got > tc.hi {
			t.Errorf("%s: Quantile(%v) = %v, want in [%v, %v]", tc.name, tc.q, got, tc.lo, tc.hi)
		}
	}

	// Empty snapshot.
	emptyH := NewHistogram([]int{8})
	empty := emptyH.Snapshot()
	if got := empty.Quantile(0.5); got != 0 {
		t.Errorf("empty Quantile = %v, want 0", got)
	}

	// All mass in the +Inf bucket clamps to the observed max.
	over := NewHistogram([]int{4})
	over.Observe(1000)
	over.Observe(2000)
	os := over.Snapshot()
	if got := os.Quantile(0.99); got < 1000 || got > 2000 {
		t.Errorf("+Inf-bucket Quantile = %v, want within observed [1000, 2000]", got)
	}
	if got := os.Quantile(1); got != 2000 {
		t.Errorf("+Inf-bucket Quantile(1) = %v, want 2000 (observed max)", got)
	}
	if got := os.Quantile(0); got != 1000 {
		t.Errorf("+Inf-bucket Quantile(0) = %v, want 1000 (observed min)", got)
	}

	// A single observation answers every quantile exactly.
	one := NewHistogram([]int{8, 16})
	one.Observe(5)
	ones := one.Snapshot()
	for _, q := range []float64{0, 0.5, 0.99, 1} {
		if got := ones.Quantile(q); got != 5 {
			t.Errorf("single-observation Quantile(%v) = %v, want 5", q, got)
		}
	}
}

// brokenWriter fails every write, standing in for a scraper that hung up.
type brokenWriter struct{}

func (brokenWriter) Write([]byte) (int, error) {
	return 0, errors.New("pipe closed")
}

// TestWritePrometheusPropagatesWriteError pins the error path of the
// buffered exposition writer: every byte goes through one *bufio.Writer
// whose sticky error must surface at the final Flush, never be dropped.
func TestWritePrometheusPropagatesWriteError(t *testing.T) {
	c := NewCollector()
	if err := c.Snapshot().WritePrometheus(brokenWriter{}); err == nil {
		t.Fatal("WritePrometheus to a failing writer returned nil error")
	}
}
