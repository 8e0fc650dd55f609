package telemetry

import "fmt"

// Add folds o's observations into s, mirroring Collector.Merge at the
// snapshot level. It exists for the job layer's checkpointed sweeps: a
// resumed sweep replays the per-trial snapshots persisted before the
// kill and folds them, in trial order, with the snapshots of the trials
// it re-runs — producing the same aggregate bytes an uninterrupted run
// would have produced.
//
// Both snapshots must come from same-geometry collectors (equal Links
// and Bandwidth, equal histogram bucket layouts) unless one side is
// empty; Add returns an error otherwise. Rounds are retained up to the
// collector's cap, surplus counted in RoundsDropped, exactly like
// Collector.Merge.
func (s *Snapshot) Add(o *Snapshot) error {
	switch {
	case o.Links == 0 && o.Bandwidth == 0:
		// Empty geometry: nothing per-link to reconcile.
	case s.Links == 0 && s.Bandwidth == 0:
		s.Links, s.Bandwidth = o.Links, o.Bandwidth
	case s.Links != o.Links || s.Bandwidth != o.Bandwidth:
		return fmt.Errorf("telemetry: cannot add snapshot with geometry %dx%d to %dx%d",
			o.Links, o.Bandwidth, s.Links, s.Bandwidth)
	}
	s.Runs += o.Runs
	s.Steps += o.Steps
	s.WormsLaunched += o.WormsLaunched
	s.MessageBusySlotSteps += o.MessageBusySlotSteps
	s.AckBusySlotSteps += o.AckBusySlotSteps
	s.MessageCuts += o.MessageCuts
	s.AckCuts += o.AckCuts
	s.FragmentSplits += o.FragmentSplits
	s.Delivered += o.Delivered
	s.Acked += o.Acked
	s.RoundsObserved += o.RoundsObserved
	s.FaultsStarted += o.FaultsStarted
	s.FaultsEnded += o.FaultsEnded
	s.MessageFaultKills += o.MessageFaultKills
	s.AckFaultKills += o.AckFaultKills
	s.Collisions = mergeSlotCounts(s.Collisions, o.Collisions)
	s.LinkBusySteps = mergeLinkBusy(s.LinkBusySteps, o.LinkBusySteps)
	if err := s.Retries.add(&o.Retries); err != nil {
		return err
	}
	if err := s.RoundsToAck.add(&o.RoundsToAck); err != nil {
		return err
	}
	if err := s.StepsToDelivery.add(&o.StepsToDelivery); err != nil {
		return err
	}
	if err := s.AckResidence.add(&o.AckResidence); err != nil {
		return err
	}
	if err := s.Makespan.add(&o.Makespan); err != nil {
		return err
	}
	for _, r := range o.Rounds {
		if len(s.Rounds) < maxTrackedRounds {
			s.Rounds = append(s.Rounds, r)
		} else {
			s.RoundsDropped++
		}
	}
	s.RoundsDropped += o.RoundsDropped
	return nil
}

// add folds o into h; empty sides pass through, mismatched layouts error
// (Histogram.Merge panics instead, but snapshots cross process and disk
// boundaries, so corrupt input must surface as an error).
func (h *HistogramSnapshot) add(o *HistogramSnapshot) error {
	if o.Count == 0 && len(o.Bounds) == 0 {
		return nil
	}
	if h.Count == 0 && len(h.Bounds) == 0 {
		*h = HistogramSnapshot{
			Bounds: append([]int(nil), o.Bounds...),
			Counts: append([]uint64(nil), o.Counts...),
			Count:  o.Count, Sum: o.Sum, Min: o.Min, Max: o.Max,
		}
		return nil
	}
	if len(h.Bounds) != len(o.Bounds) || len(h.Counts) != len(o.Counts) {
		return fmt.Errorf("telemetry: cannot add histograms with different layouts (%d vs %d bounds)",
			len(h.Bounds), len(o.Bounds))
	}
	for i, b := range o.Bounds {
		if h.Bounds[i] != b {
			return fmt.Errorf("telemetry: cannot add histograms with different bounds at %d: %d vs %d", i, h.Bounds[i], b)
		}
	}
	for i, c := range o.Counts {
		h.Counts[i] += c
	}
	h.Count += o.Count
	h.Sum += o.Sum
	if o.Count > 0 {
		if h.Min < 0 || (o.Min >= 0 && o.Min < h.Min) {
			h.Min = o.Min
		}
		if o.Max > h.Max {
			h.Max = o.Max
		}
	}
	return nil
}

// mergeSlotCounts merges two (band, link, wavelength)-sorted heatmap cell
// lists, summing counts of equal cells. Snapshot emits cells in that
// order, so a linear merge keeps the result sorted and deterministic.
func mergeSlotCounts(a, b []SlotCount) []SlotCount {
	if len(b) == 0 {
		return a
	}
	out := make([]SlotCount, 0, len(a)+len(b))
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		switch {
		case slotKey(a[i]) < slotKey(b[j]):
			out = append(out, a[i])
			i++
		case slotKey(a[i]) > slotKey(b[j]):
			out = append(out, b[j])
			j++
		default:
			c := a[i]
			c.Count += b[j].Count
			out = append(out, c)
			i, j = i+1, j+1
		}
	}
	out = append(out, a[i:]...)
	out = append(out, b[j:]...)
	return out
}

// slotKey orders heatmap cells by (band, link, wavelength).
func slotKey(c SlotCount) uint64 {
	return (uint64(c.Band)<<62 | uint64(uint32(c.Link))<<24) + uint64(uint32(c.Wavelength))
}

// mergeLinkBusy merges two (band, link)-sorted busy-integral cell lists,
// summing equal cells.
func mergeLinkBusy(a, b []LinkBusy) []LinkBusy {
	if len(b) == 0 {
		return a
	}
	out := make([]LinkBusy, 0, len(a)+len(b))
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		ka := uint64(a[i].Band)<<32 + uint64(uint32(a[i].Link))
		kb := uint64(b[j].Band)<<32 + uint64(uint32(b[j].Link))
		switch {
		case ka < kb:
			out = append(out, a[i])
			i++
		case ka > kb:
			out = append(out, b[j])
			j++
		default:
			c := a[i]
			c.BusySlotSteps += b[j].BusySlotSteps
			out = append(out, c)
			i, j = i+1, j+1
		}
	}
	out = append(out, a[i:]...)
	out = append(out, b[j:]...)
	return out
}
