package sim

import (
	"cmp"
	"fmt"
	"slices"

	"repro/internal/graph"
)

// loners keeps what a run's loners (worms marked Alone) add to each step.
// A loner's train holds a trapezoid of slots over time, so each band's
// busy count is kept as second differences and the number of live loners
// as first differences, one entry per step; step folds entry t into the
// running slopes and counts.
type loners struct {
	d    []lonerDelta
	last int // last step at which a loner is live; -1 when there is none
	// Running values after the last step folded in, per band.
	slope, busy [2]int
	live        int
}

// lonerDelta is one step's entry: second differences of each band's busy
// count and the first difference of the live count.
type lonerDelta struct {
	busy [2]int32
	live int32
}

// reset forgets the previous run's loners, keeping capacity.
//
//optlint:hotpath
func (l *loners) reset() {
	l.d = l.d[:0]
	l.last = -1
	l.slope, l.busy, l.live = [2]int{}, [2]int{}, 0
}

// at returns step t's entry, growing the table with zero entries.
//
//optlint:hotpath
func (l *loners) at(t int) *lonerDelta {
	for len(l.d) <= t {
		l.d = append(l.d, lonerDelta{})
	}
	return &l.d[t]
}

// trapezoid adds a train of length m in band b whose head enters the
// first of n links at step s. At the end of step t it holds
// min(t-s+1, n, m, s+n+m-1-t) slots: 1 at s, rising by one a step to
// min(n, m), level until it falls by one a step from s+max(n, m), and 0
// from s+n+m-1 on.
//
//optlint:hotpath
func (l *loners) trapezoid(b Band, s, n, m int) {
	l.at(s).busy[b]++
	l.at(s + min(n, m)).busy[b]--
	l.at(s + max(n, m)).busy[b]--
	l.at(s + n + m).busy[b]++
}

// step folds step t's entry into the running values.
//
//optlint:hotpath
func (l *loners) step(t int) {
	if t < len(l.d) {
		c := &l.d[t]
		l.slope[MessageBand] += int(c.busy[MessageBand])
		l.slope[AckBand] += int(c.busy[AckBand])
		l.live += int(c.live)
	}
	l.busy[MessageBand] += l.slope[MessageBand]
	l.busy[AckBand] += l.slope[AckBand]
}

// next returns the first step in [t, limit) at which a loner starts, or
// limit. Called only while no loner is live: then every entry before the
// next start is zero (a loner's entries past its end sit one step after
// a step it was live), so the first nonzero live entry is that start.
//
//optlint:hotpath
func (l *loners) next(t, limit int) int {
	for s := t; s < min(limit, len(l.d)); s++ {
		if l.d[s].live != 0 {
			return s
		}
	}
	return limit
}

// addLoner resolves worm i, marked Alone, in closed form: it is delivered
// at d+k+L-2 and, with acknowledgements of length A >= 1, acknowledged at
// d+2k+L+A-3 (with oracle acknowledgements, at delivery), exactly as a
// stepped worm that never contends. Its outcome and probe events are
// written now; its busy slots and live steps go to the loner table, and
// no train, slot claim or active-list entry is made for it.
//
//optlint:hotpath
func (e *Engine) addLoner(i int, w *Worm) {
	k, d, ackLen := w.Route.Len(), w.Delay, e.cfg.AckLength
	deliveredAt := d + k + w.Length - 2
	out := &e.res.Outcomes[i]
	out.Delivered, out.DeliveredAt = true, deliveredAt
	out.Acked, out.AckedAt = true, deliveredAt
	l := &e.lone
	l.trapezoid(MessageBand, d, k, w.Length)
	end := deliveredAt + 1 // the step the message drains and completes
	ackRes := 0            // oracle acknowledgement
	if ackLen > 0 {
		// The acknowledgement starts as the message completes.
		l.trapezoid(AckBand, end, k, ackLen)
		ackRes = k + ackLen - 2
		out.AckedAt = end + ackRes
		end = out.AckedAt + 1
	}
	l.at(d).live++
	l.at(end+1).live--
	l.last = max(l.last, end)
	if e.probe != nil {
		e.probe.WormDelivered(deliveredAt - d)
		e.probe.AckCompleted(ackRes)
	}
}

// checkAlone verifies every Alone promise of the batch exactly, before
// anything is stepped, and refuses the first false one by name. Run calls
// it under CheckInvariants when it honours Alone promises.
func checkAlone(g *graph.Graph, worms []Worm, ackLen int) error {
	if !slices.ContainsFunc(worms, func(w Worm) bool { return w.Alone }) {
		return nil
	}
	for i, j := range meetings(g, worms, ackLen) {
		if worms[i].Alone && j >= 0 {
			return fmt.Errorf("sim: worm %d is marked alone but meets worm %d", i, j)
		}
	}
	return nil
}

// meetings returns, for each worm of the batch, a worm it meets (see
// Worm.Alone), or -1 for a loner. It lists the (band, link, wavelength)
// slot and the steps of every hop of every worm's uncut message and
// acknowledgement and sorts them by slot and first step. A hold overlaps
// another of its slot exactly when an earlier one reaches its first step
// or the next one starts by its last.
func meetings(g *graph.Graph, worms []Worm, ackLen int) []int {
	type hold struct {
		band           Band
		link           int32
		wave, from, to int
		worm           int
	}
	var hs []hold
	for i := range worms {
		w := &worms[i]
		k := w.Route.Len()
		for p, l := range w.Route.Links() {
			hs = append(hs, hold{MessageBand, l, w.Wavelength, w.Delay + p, w.Delay + p + w.Length - 1, i})
			if ackLen > 0 {
				a := w.Delay + 2*k + w.Length - 2 - p
				hs = append(hs, hold{AckBand, int32(g.Reverse(int(l))), w.Wavelength, a, a + ackLen - 1, i})
			}
		}
	}
	slot := func(a, b hold) int {
		return cmp.Or(cmp.Compare(a.band, b.band), cmp.Compare(a.link, b.link), cmp.Compare(a.wave, b.wave))
	}
	slices.SortFunc(hs, func(a, b hold) int { return cmp.Or(slot(a, b), cmp.Compare(a.from, b.from)) })
	met := make([]int, len(worms))
	for i := range met {
		met[i] = -1
	}
	reach, by := -1, -1 // latest last step among the slot's earlier holds, and its worm
	for x, h := range hs {
		if x == 0 || slot(hs[x-1], h) != 0 {
			reach, by = -1, -1
		}
		if met[h.worm] < 0 {
			if h.from <= reach {
				met[h.worm] = by
			} else if x+1 < len(hs) && slot(hs[x+1], h) == 0 && hs[x+1].from <= h.to {
				met[h.worm] = hs[x+1].worm
			}
		}
		if h.to > reach {
			reach, by = h.to, h.worm
		}
	}
	return met
}
