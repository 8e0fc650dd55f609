package sim

import (
	"bytes"
	"strings"
	"testing"

	"repro/internal/faults"
	"repro/internal/graph"
	"repro/internal/optical"
)

func TestTraceSingleWorm(t *testing.T) {
	g := chain(4)
	res, tl, err := Trace(g, []Worm{
		{Route: route(g, graph.Path{0, 1, 2, 3}), Length: 2, Delay: 1, Wavelength: 0},
	}, Config{Bandwidth: 1, Rule: optical.ServeFirst})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Outcomes[0].Delivered {
		t.Fatal("worm not delivered")
	}
	// Worm occupies link 0 during steps [1, 2], link 1 during [2, 3],
	// link 2 during [3, 4].
	l0, _ := g.LinkBetween(0, 1)
	l1, _ := g.LinkBetween(1, 2)
	l2, _ := g.LinkBetween(2, 3)
	for _, tc := range []struct {
		link graph.LinkID
		t    int
		want bool
	}{
		{l0, 0, false}, {l0, 1, true}, {l0, 2, true}, {l0, 3, false},
		{l1, 2, true}, {l1, 3, true}, {l1, 1, false},
		{l2, 3, true}, {l2, 4, true}, {l2, 5, false},
	} {
		worm, ok := tl.Occupant(tc.t, MessageBand, tc.link, 0)
		if ok != tc.want {
			t.Errorf("link %d step %d: occupied=%t, want %t", tc.link, tc.t, ok, tc.want)
		}
		if ok && worm != 0 {
			t.Errorf("wrong occupant %d", worm)
		}
	}
	if tl.Steps() < 4 {
		t.Errorf("Steps = %d, want >= 4", tl.Steps())
	}
}

func TestTraceRenderDiagram(t *testing.T) {
	g := chain(4)
	_, tl, err := Trace(g, []Worm{
		{Route: route(g, graph.Path{0, 1, 2, 3}), Length: 2, Delay: 0, Wavelength: 0},
		{Route: route(g, graph.Path{0, 1, 2}), Length: 2, Delay: 1, Wavelength: 0},
	}, Config{Bandwidth: 1, Rule: optical.ServeFirst})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	tl.Render(&buf, MessageBand)
	out := buf.String()
	if !strings.Contains(out, "space-time diagram (messages)") {
		t.Errorf("missing header:\n%s", out)
	}
	// Link 0->1 row: worm 0 occupies steps 0-1; worm 1 is cut at entry.
	if !strings.Contains(out, "0->1") {
		t.Errorf("missing link row:\n%s", out)
	}
	// Worm digit appears somewhere.
	if !strings.Contains(out, "00") {
		t.Errorf("occupancy of worm 0 not rendered:\n%s", out)
	}
}

func TestTraceAckBand(t *testing.T) {
	g := chain(3)
	res, tl, err := Trace(g, []Worm{
		{Route: route(g, graph.Path{0, 1, 2}), Length: 1, Delay: 0, Wavelength: 0},
	}, Config{Bandwidth: 1, Rule: optical.ServeFirst, AckLength: 1})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Outcomes[0].Acked {
		t.Fatal("not acked")
	}
	// The ack occupies the reverse links after delivery at step 1.
	rev, _ := g.LinkBetween(2, 1)
	if _, ok := tl.Occupant(2, AckBand, rev, 0); !ok {
		t.Error("ack occupancy not recorded on reverse link at step 2")
	}
	var buf bytes.Buffer
	tl.Render(&buf, AckBand)
	if !strings.Contains(buf.String(), "space-time diagram (acks)") {
		t.Error("ack band render missing")
	}
	if !strings.Contains(buf.String(), "A") {
		t.Errorf("ack letter not rendered:\n%s", buf.String())
	}
}

func TestTraceWormEvents(t *testing.T) {
	g := chain(4)
	_, tl, err := Trace(g, []Worm{
		{Route: route(g, graph.Path{0, 1, 2, 3}), Length: 2, Delay: 0, Wavelength: 0},
		{Route: route(g, graph.Path{0, 1, 2}), Length: 2, Delay: 1, Wavelength: 0},
	}, Config{Bandwidth: 1, Rule: optical.ServeFirst})
	if err != nil {
		t.Fatal(err)
	}
	if s := tl.WormEvents(0); !strings.Contains(s, "delivered") {
		t.Errorf("worm 0 events = %q", s)
	}
	if s := tl.WormEvents(1); !strings.Contains(s, "cut at link 0") {
		t.Errorf("worm 1 events = %q", s)
	}
}

func TestTraceMatchesEngine(t *testing.T) {
	// Trace's outcomes are the reference simulator's, which the fuzz suite
	// already proves equal to the engine; spot-check here.
	g := chain(5)
	worms := []Worm{
		{Route: route(g, graph.Path{0, 1, 2, 3, 4}), Length: 3, Delay: 0, Wavelength: 0},
		{Route: route(g, graph.Path{1, 2, 3}), Length: 2, Delay: 2, Wavelength: 0},
	}
	cfg := Config{Bandwidth: 1, Rule: optical.ServeFirst, AckLength: 1}
	res1, _, err := Trace(g, worms, cfg)
	if err != nil {
		t.Fatal(err)
	}
	res2, err := NewEngine().Run(g, worms, cfg)
	if err != nil {
		t.Fatal(err)
	}
	for i := range worms {
		if res1.Outcomes[i] != res2.Outcomes[i] {
			t.Errorf("worm %d: trace %+v vs engine %+v", i, res1.Outcomes[i], res2.Outcomes[i])
		}
	}
}

// TestTraceFaultPlan: Trace models an attached fault plan like Engine.Run.
// Link 4 (2->3) of chain(5) is dark over steps [3, 9): the outage kills
// worm 0 mid-body at step 3 and worm 1 as it enters at step 6, and worm 2
// crosses after the repair. Nothing occupies the link while it is dark.
func TestTraceFaultPlan(t *testing.T) {
	g := chain(5)
	worms := []Worm{
		{Route: route(g, graph.Path{0, 1, 2, 3, 4}), Length: 3, Delay: 0, Wavelength: 0},
		{Route: route(g, graph.Path{1, 2, 3, 4}), Length: 2, Delay: 5, Wavelength: 0},
		{Route: route(g, graph.Path{2, 3, 4}), Length: 2, Delay: 9, Wavelength: 0},
	}
	cfg := Config{Bandwidth: 1, Rule: optical.ServeFirst, AckLength: 1, RecordCollisions: true}
	cfg.Faults = sched(t, g, 1, faults.Fault{Kind: faults.LinkOutage, Link: 4, Start: 3, End: 9})
	res, tl, err := Trace(g, worms, cfg)
	if err != nil {
		t.Fatal(err)
	}
	fast, err := NewEngine().Run(g, worms, cfg)
	if err != nil {
		t.Fatal(err)
	}
	compareResults(t, "trace", fast, res)
	if res.FaultKillCount != 2 || res.Outcomes[0].Delivered || res.Outcomes[1].Delivered || !res.Outcomes[2].Acked {
		t.Fatalf("fault plan not modelled: kills %d, outcomes %+v", res.FaultKillCount, res.Outcomes)
	}
	for step := 0; step <= tl.Steps(); step++ {
		for _, band := range []Band{MessageBand, AckBand} {
			worm, ok := tl.Occupant(step, band, 4, 0)
			if dark := step >= 3 && step < 9; ok && dark {
				t.Errorf("step %d: worm %d occupies the dark link in band %d", step, worm, band)
			}
		}
	}
	for _, step := range []int{2, 9} { // before the outage, and after the repair
		if _, ok := tl.Occupant(step, MessageBand, 4, 0); !ok {
			t.Errorf("step %d: link 4 unoccupied outside the outage", step)
		}
	}
}

func TestTraceValidation(t *testing.T) {
	g := chain(3)
	if _, _, err := Trace(g, []Worm{{Route: route(g, graph.Path{0, 1}), Length: 1}}, Config{}); err == nil {
		t.Error("invalid config accepted")
	}
}
