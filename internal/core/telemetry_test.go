package core

import (
	"reflect"
	"testing"

	"repro/internal/optical"
	"repro/internal/rng"
	"repro/internal/telemetry"
)

// TestProbeRoundHooks checks the protocol reports one RoundFinished per
// round, in order, whose payload is the RoundInfo of the RoundStats the
// protocol itself reports, that RoundStarted attributes each acknowledgement to
// its round, and that attaching the probe does not perturb the run.
func TestProbeRoundHooks(t *testing.T) {
	c := torusPermCollection(t, 5, 11)
	cfg := Config{
		Bandwidth: 2,
		Length:    3,
		Rule:      optical.ServeFirst,
		AckLength: 1,
	}
	col := telemetry.NewCollector()
	cfg.Probe = col
	probed, err := Run(c, cfg, rng.New(5))
	if err != nil {
		t.Fatal(err)
	}
	cfg.Probe = nil
	plain, err := Run(c, cfg, rng.New(5))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(probed.Rounds, plain.Rounds) ||
		probed.TotalTime != plain.TotalTime ||
		probed.MeasuredTime != plain.MeasuredTime {
		t.Errorf("probe changed the protocol result:\nprobed %+v\nplain  %+v", probed, plain)
	}

	s := col.Snapshot()
	if len(s.Rounds) != probed.TotalRounds {
		t.Fatalf("collector kept %d rounds, protocol ran %d", len(s.Rounds), probed.TotalRounds)
	}
	for i, rs := range probed.Rounds {
		if s.Rounds[i] != rs.RoundInfo {
			t.Errorf("RoundFinished[%d] = %+v, want %+v", i, s.Rounds[i], rs.RoundInfo)
		}
	}

	// The collector observed one engine run per protocol round and every
	// worm's eventual acknowledgement.
	if s.Runs != uint64(probed.TotalRounds) || s.RoundsObserved != uint64(probed.TotalRounds) {
		t.Errorf("collector runs/rounds = %d/%d, want %d", s.Runs, s.RoundsObserved, probed.TotalRounds)
	}
	n := c.Size()
	if probed.AllDelivered && s.Acked != uint64(n) {
		t.Errorf("collector acked %d of %d worms", s.Acked, n)
	}
	// Retries histogram: one observation per acked worm, with the round
	// histogram consistent with the per-round Acked counts.
	var ackSum uint64
	for _, rs := range probed.Rounds {
		ackSum += uint64(rs.Acked) * uint64(rs.Round)
	}
	if s.RoundsToAck.Count != s.Acked || s.RoundsToAck.Sum != ackSum {
		t.Errorf("rounds-to-ack count/sum = %d/%d, want %d/%d",
			s.RoundsToAck.Count, s.RoundsToAck.Sum, s.Acked, ackSum)
	}
}

// TestRoundUtilizationBands pins the satellite fix: Utilization is
// message-band occupancy over message-band capacity, and ack traffic is
// reported separately, so the two never mix denominators.
func TestRoundUtilizationBands(t *testing.T) {
	c := torusPermCollection(t, 4, 2)
	res, err := Run(c, Config{
		Bandwidth: 2,
		Length:    3,
		Rule:      optical.ServeFirst,
		AckLength: 1,
	}, rng.New(9))
	if err != nil {
		t.Fatal(err)
	}
	for _, rs := range res.Rounds {
		if rs.Utilization < 0 || rs.Utilization > 1 {
			t.Errorf("round %d: Utilization %v out of [0,1]", rs.Round, rs.Utilization)
		}
		if rs.AckUtilization < 0 || rs.AckUtilization > 1 {
			t.Errorf("round %d: AckUtilization %v out of [0,1]", rs.Round, rs.AckUtilization)
		}
	}
	// With L=3 worms against 1-flit acks the message band must dominate.
	if res.Rounds[0].Utilization <= res.Rounds[0].AckUtilization {
		t.Errorf("round 1: message utilization %v should exceed ack utilization %v",
			res.Rounds[0].Utilization, res.Rounds[0].AckUtilization)
	}
}
