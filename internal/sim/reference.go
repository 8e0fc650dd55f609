package sim

import (
	"fmt"
	"math"
	"sort"

	"repro/internal/faults"
	"repro/internal/graph"
	"repro/internal/optical"
)

// RunReference simulates the same semantics as Engine.Run with an independent,
// deliberately naive per-flit implementation: every flit is tracked
// individually, occupancy is recomputed from flit positions every step,
// and contention is resolved from set differences of per-step presence.
// It is O(steps * flits) and is the oracle the engine is tested against:
// the differential, fault-matrix and fuzz tests assert Engine.Run and
// RunReference agree on the full Result, fault plans included.
//
// Semantics recap: flit j of a train with start s and path links
// e_0..e_{k-1} traverses e_i during step s+i+j. A worm "enters" a link at
// the step its presence on that link begins. Under serve-first an entrant
// on an occupied wavelength is cut; under priority the lower rank is cut.
// A cut kills the colliding flit; under Drain the flits behind inherit a
// barrier at the conflict link (they are absorbed at its coupler), the
// flits ahead continue; under Vanish the whole contiguous fragment of
// surviving flits around the colliding flit disappears instantly.
//
// A fault plan (cfg.Faults) follows the rules in faults.go, re-derived
// every step from the faults active then, with no counters or event cursor.
func RunReference(g *graph.Graph, worms []Worm, cfg Config) (*Result, error) {
	if err := checkWorms(g, worms, cfg); err != nil {
		return nil, err
	}
	return runReference(g, worms, cfg, nil)
}

// runReference is the validated core of RunReference; tl optionally
// records the space-time occupancy diagram (see Trace).
func runReference(g *graph.Graph, worms []Worm, cfg Config, tl *Timeline) (*Result, error) {
	r := &refEngine{
		g:    g,
		cfg:  cfg,
		tl:   tl,
		res:  &Result{Outcomes: make([]Outcome, len(worms))},
		prev: make(map[int64]map[*refTrain]bool),
	}
	maxEnd := 0
	for i := range worms {
		w := &worms[i]
		r.res.Outcomes[i] = newOutcome()
		links := make([]graph.LinkID, w.Route.Len())
		for k, id := range w.Route.Links() {
			links[k] = int(id)
		}
		r.spawn(&refTrain{
			outIdx:     i,
			links:      links,
			start:      w.Delay,
			length:     w.Length,
			wavelength: w.Wavelength,
			rank:       w.Rank,
			band:       MessageBand,
		})
		end := w.Delay + len(links) + w.Length + 2
		if cfg.AckLength > 0 {
			end += len(links) + cfg.AckLength + 2
		}
		if end > maxEnd {
			maxEnd = end
		}
	}
	maxSteps := cfg.MaxSteps
	if maxSteps == 0 {
		maxSteps = maxEnd + 4
	}
	t := 0
	if len(r.pending) > 0 {
		t = r.pending[0].start
		for _, tr := range r.pending {
			if tr.start < t {
				t = tr.start
			}
		}
	}
	for steps := 0; len(r.pending) > 0 || len(r.live) > 0; steps++ {
		if steps > maxSteps {
			return nil, errTooManySteps(maxSteps)
		}
		if len(r.live) == 0 {
			next := math.MaxInt
			for _, tr := range r.pending {
				if tr.start >= t && tr.start < next {
					next = tr.start
				}
			}
			if next != math.MaxInt {
				t = next
			}
		}
		r.step(t)
		t++
	}
	for _, o := range r.res.Outcomes {
		if o.Delivered {
			r.res.DeliveredCount++
		}
		if o.Acked {
			r.res.AckedCount++
		}
	}
	return r.res, nil
}

func errTooManySteps(n int) error {
	return fmt.Errorf("sim: reference exceeded %d steps (internal bug guard)", n)
}

// refTrain is a message or ack train in the reference simulator.
type refTrain struct {
	outIdx     int // batch index: names the worm and orders ties
	isAck      bool
	links      []graph.LinkID
	start      int
	length     int
	wavelength int
	rank       int
	band       Band
	cut        bool
	// alive[j] and barrier[j] per flit; barrier math.MaxInt = none.
	alive   []bool
	barrier []int
	waves   []int // per-link wavelength (conversion only); -1 = unset
}

// pos returns flit j's link index at step t (may be out of range).
func (tr *refTrain) pos(j, t int) int { return t - tr.start - j }

type refEngine struct {
	g       *graph.Graph
	cfg     Config
	tl      *Timeline // optional space-time recorder
	res     *Result
	pending []*refTrain
	live    []*refTrain
	prev    map[int64]map[*refTrain]bool // presence at the previous step
	faults  []faults.Fault               // faults active at the current step
}

func (r *refEngine) key(band Band, link graph.LinkID, wavelength int) int64 {
	return (int64(band)*int64(r.g.NumLinks())+int64(link))*int64(r.cfg.Bandwidth) + int64(wavelength)
}

func (r *refEngine) spawn(tr *refTrain) {
	tr.alive = make([]bool, tr.length)
	tr.barrier = make([]int, tr.length)
	for j := range tr.alive {
		tr.alive[j] = true
		tr.barrier[j] = math.MaxInt
	}
	if r.cfg.Conversion != nil {
		tr.waves = make([]int, len(tr.links))
		for i := range tr.waves {
			tr.waves[i] = -1
		}
	}
	r.pending = append(r.pending, tr)
}

// waveAt returns the wavelength train tr uses on link index i, filling
// the conversion table with the carried wavelength on first use.
func (r *refEngine) waveAt(tr *refTrain, i int) int {
	if tr.waves == nil {
		return tr.wavelength
	}
	if tr.waves[i] < 0 {
		if i == 0 {
			tr.waves[i] = tr.wavelength
		} else {
			tr.waves[i] = r.waveAt(tr, i-1)
		}
	}
	return tr.waves[i]
}

func (r *refEngine) step(t int) {
	// 1. Delivery detection: an uncut train whose tail flit has exited
	// the last link was fully delivered at step t-1.
	for _, tr := range r.live {
		if tr.cut {
			continue
		}
		if tr.pos(tr.length-1, t) >= len(tr.links) {
			r.deliver(tr, t-1)
		}
	}

	// 2. Activation.
	still := r.pending[:0]
	for _, tr := range r.pending {
		if tr.start == t {
			r.live = append(r.live, tr)
		} else {
			still = append(still, tr)
		}
	}
	r.pending = still

	// 3. Barrier absorption: a flit reaching its barrier link dies at the
	// coupler before occupying it.
	for _, tr := range r.live {
		for j := range tr.alive {
			if tr.alive[j] && tr.pos(j, t) >= tr.barrier[j] {
				tr.alive[j] = false
			}
		}
	}

	// 3b. Fault kills, against the faults active at step t: a flit on a
	// dark link or slot dies, and so does an ack flit entering an ack-loss
	// link (one whose train held the slot at the previous step is already
	// on the link and is spared).
	r.faultsAt(t)
	for _, tr := range r.live {
		for j := range tr.alive {
			p := tr.pos(j, t)
			if !tr.alive[j] || p < 0 || p >= len(tr.links) {
				continue
			}
			link, w := tr.links[p], r.waveAt(tr, p)
			if r.dark(tr.band, link, w) ||
				tr.isAck && r.faulted(faults.AckLoss, link) && !r.prev[r.key(tr.band, link, w)][tr] {
				tr.cut = true
				r.res.FaultKillCount++
				r.wreck(tr, j, p)
			}
		}
	}

	// 4. Presence and contention, resolved in sorted key order exactly
	// like the engine.
	groups := make(map[int64][]refOcc)
	for _, tr := range r.live {
		for j := range tr.alive {
			if !tr.alive[j] {
				continue
			}
			p := tr.pos(j, t)
			if p < 0 || p >= len(tr.links) {
				continue
			}
			k := r.key(tr.band, tr.links[p], r.waveAt(tr, p))
			groups[k] = append(groups[k], refOcc{tr: tr, j: j})
		}
	}
	keys := make([]int64, 0, len(groups))
	for k := range groups {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(a, b int) bool { return keys[a] < keys[b] })

	var deferred []refDeferred
	for _, k := range keys {
		var entrants, incumbents []refOcc
		for _, en := range groups[k] {
			if !en.tr.alive[en.j] {
				continue // killed earlier this step
			}
			if r.prev[k][en.tr] {
				incumbents = append(incumbents, en)
			} else {
				entrants = append(entrants, en)
			}
		}
		if len(entrants) == 0 {
			continue
		}
		sort.Slice(entrants, func(a, b int) bool { return entrants[a].tr.outIdx < entrants[b].tr.outIdx })
		if en := entrants[0]; r.faulted(faults.StuckCoupler, r.g.Link(en.tr.links[en.tr.pos(en.j, t)]).From) {
			// A stuck coupler keeps the incumbent, or admits the
			// lowest-index entrant to a free slot, and cuts the other
			// entrants outright.
			blocker := en.tr
			if len(incumbents) > 0 {
				blocker = incumbents[0].tr
			} else {
				entrants = entrants[1:]
			}
			for _, en := range entrants {
				r.cut(en, t, blocker)
			}
			continue
		}
		switch r.cfg.Rule {
		case optical.ServeFirst:
			if len(incumbents) > 0 {
				for _, en := range entrants {
					r.lose(&deferred, en, t, incumbents[0].tr)
				}
				continue
			}
			if len(entrants) == 1 {
				continue
			}
			switch r.cfg.Tie {
			case optical.TieEliminateAll:
				for x, en := range entrants {
					r.lose(&deferred, en, t, entrants[(x+1)%len(entrants)].tr)
				}
			case optical.TieArbitraryWinner:
				for _, en := range entrants[1:] {
					r.lose(&deferred, en, t, entrants[0].tr)
				}
			}
		case optical.Priority:
			best := 0
			for x := 1; x < len(entrants); x++ {
				if entrants[x].tr.rank > entrants[best].tr.rank {
					best = x
				}
			}
			if len(incumbents) > 0 && incumbents[0].tr.rank >= entrants[best].tr.rank {
				for _, en := range entrants {
					r.lose(&deferred, en, t, incumbents[0].tr)
				}
				continue
			}
			for _, inc := range incumbents {
				r.cut(inc, t, entrants[best].tr)
			}
			for x, en := range entrants {
				if x != best {
					r.lose(&deferred, en, t, entrants[best].tr)
				}
			}
		}
	}

	// 4b. Wavelength conversion for deferred losers, mirroring the
	// engine: scan for a wavelength with no surviving occupant at the
	// entry link, in deterministic order.
	for i, dc := range deferred {
		tr := dc.en.tr
		if !tr.alive[dc.en.j] {
			continue // killed as an incumbent elsewhere this step
		}
		p := tr.pos(dc.en.j, t)
		cur := r.waveAt(tr, p)
		converted := false
		for d := 1; d < r.cfg.Bandwidth; d++ {
			w := (cur + d) % r.cfg.Bandwidth
			// Only attempts not yet processed stay excluded from the busy
			// check: a converted loser is a real occupant now.
			if !r.waveBusy(tr.band, p, tr.links[p], w, t, deferred[i+1:]) {
				tr.waves[p] = w
				converted = true
				break
			}
		}
		if !converted {
			r.cut(dc.en, t, dc.blocker)
		}
	}

	// 5. Record presence (surviving flits) for the next step's
	// incumbency, and drop finished trains.
	r.prev = make(map[int64]map[*refTrain]bool)
	stillLive := r.live[:0]
	for _, tr := range r.live {
		any := false
		for j := range tr.alive {
			if !tr.alive[j] {
				continue
			}
			p := tr.pos(j, t)
			if p >= 0 && p < len(tr.links) {
				k := r.key(tr.band, tr.links[p], r.waveAt(tr, p))
				if r.prev[k] == nil {
					r.prev[k] = make(map[*refTrain]bool)
				}
				r.prev[k][tr] = true
				if r.tl != nil {
					r.tl.record(t, tr.band, tr.links[p], r.waveAt(tr, p), tr.outIdx, tr.isAck)
				}
			}
			if p < len(tr.links) && p < tr.barrier[j] {
				any = true // this flit still has somewhere to go
			}
		}
		if any {
			stillLive = append(stillLive, tr)
		}
	}
	r.live = stillLive
	msgBusy := 0
	msgSlots := int64(r.g.NumLinks()) * int64(r.cfg.Bandwidth)
	//optlint:allow mapiter order-independent count of keys below msgSlots
	for k := range r.prev {
		if k < msgSlots {
			msgBusy++
		}
	}
	r.res.MessageBusySlotSteps += msgBusy
	r.res.AckBusySlotSteps += len(r.prev) - msgBusy
	r.res.Makespan = t
}

// refDeferred is a lost entrant awaiting a conversion attempt.
type refDeferred struct {
	en      refOcc
	blocker *refTrain
}

// lose cuts a losing entrant or defers it for wavelength conversion when
// the router at the link's tail supports it.
func (r *refEngine) lose(deferred *[]refDeferred, en refOcc, t int, blocker *refTrain) {
	tr := en.tr
	p := tr.pos(en.j, t)
	if r.cfg.Conversion != nil && r.cfg.Bandwidth > 1 &&
		r.cfg.Conversion(r.g.Link(tr.links[p]).From) {
		*deferred = append(*deferred, refDeferred{en: en, blocker: blocker})
		return
	}
	r.cut(en, t, blocker)
}

// waveBusy reports whether wavelength w on the given link is dark or
// carries a surviving occupant at step t: any live flit of any train on
// that link and wavelength, excluding flits whose conversion attempt is
// still pending (the engine's occupancy map never contained those losers).
func (r *refEngine) waveBusy(band Band, p int, link graph.LinkID, w, t int, deferred []refDeferred) bool {
	if r.dark(band, link, w) {
		return true
	}
	for _, tr := range r.live {
		if tr.band != band {
			continue
		}
		for j := range tr.alive {
			if !tr.alive[j] {
				continue
			}
			q := tr.pos(j, t)
			if q < 0 || q >= len(tr.links) || tr.links[q] != link {
				continue
			}
			if r.waveAt(tr, q) != w {
				continue
			}
			if isDeferred(deferred, tr, j) {
				continue
			}
			return true
		}
	}
	return false
}

func isDeferred(deferred []refDeferred, tr *refTrain, j int) bool {
	for _, d := range deferred {
		if d.en.tr == tr && d.en.j == j {
			return true
		}
	}
	return false
}

// deliver marks a train delivered and spawns its acknowledgement.
func (r *refEngine) deliver(tr *refTrain, deliveredAt int) {
	out := &r.res.Outcomes[tr.outIdx]
	if tr.isAck {
		if out.Acked {
			return
		}
		out.Acked = true
		out.AckedAt = deliveredAt
		return
	}
	if out.Delivered {
		return
	}
	out.Delivered = true
	out.DeliveredAt = deliveredAt
	if r.cfg.AckLength == 0 {
		out.Acked = true
		out.AckedAt = deliveredAt
		return
	}
	rev := make([]graph.LinkID, len(tr.links))
	for i, id := range tr.links {
		rev[len(tr.links)-1-i] = r.g.Reverse(id)
	}
	r.spawn(&refTrain{
		outIdx:     tr.outIdx,
		isAck:      true,
		links:      rev,
		start:      deliveredAt + 1,
		length:     r.cfg.AckLength,
		wavelength: r.waveAt(tr, len(tr.links)-1),
		rank:       tr.rank,
		band:       AckBand,
	})
}

// refOcc is one live flit's presence on a link.
type refOcc struct {
	tr *refTrain
	j  int
}

// cut applies a lost conflict to the flit en.j of train en.tr at step t.
func (r *refEngine) cut(en refOcc, t int, blocker *refTrain) {
	tr := en.tr
	e := tr.pos(en.j, t)
	tr.cut = true
	r.res.CollisionCount++
	out := &r.res.Outcomes[tr.outIdx]
	if tr.isAck {
		if out.AckCutTime < 0 {
			out.AckCutLink = e
			out.AckCutTime = t
		}
	} else if out.CutTime < 0 {
		out.CutLink = e
		out.CutTime = t
	}
	if r.cfg.RecordCollisions {
		r.res.Collisions = append(r.res.Collisions, Collision{
			Time:       t,
			Link:       tr.links[e],
			Wavelength: r.waveAt(tr, e),
			Band:       tr.band,
			Loser:      tr.outIdx,
			Blocker:    blocker.outIdx,
			LoserIsAck: tr.isAck,
		})
	}
	r.wreck(tr, en.j, e)
}

// wreck destroys flit j of train tr on link index e and applies the
// wreckage policy: under Drain the flits behind it drain into a barrier at
// e, under Vanish the contiguous run of live flits around it disappears.
func (r *refEngine) wreck(tr *refTrain, j, e int) {
	tr.alive[j] = false
	switch r.cfg.Wreckage {
	case Drain:
		for k := j + 1; k < tr.length; k++ { // flits behind the cut
			if tr.barrier[k] > e {
				tr.barrier[k] = e
			}
		}
	case Vanish:
		for k := j - 1; k >= 0 && tr.alive[k]; k-- {
			tr.alive[k] = false
		}
		for k := j + 1; k < tr.length && tr.alive[k]; k++ {
			tr.alive[k] = false
		}
	}
}

// faultsAt collects the faults active at step t by a naive scan of the
// schedule's activation events.
func (r *refEngine) faultsAt(t int) {
	r.faults = r.faults[:0]
	if r.cfg.Faults == nil {
		return
	}
	for _, ev := range r.cfg.Faults.Events() {
		if ev.Start && ev.Fault.ActiveAt(t) {
			r.faults = append(r.faults, ev.Fault)
		}
	}
}

// dark reports whether a link outage or a wavelength outage covers the
// slot (band, link, w) at the current step.
func (r *refEngine) dark(band Band, link graph.LinkID, w int) bool {
	for _, f := range r.faults {
		if f.Link == link && (f.Kind == faults.LinkOutage ||
			f.Kind == faults.WavelengthOutage && f.Band == int(band) && f.Wavelength == w) {
			return true
		}
	}
	return false
}

// faulted reports whether a fault of the given kind is active at the
// current step on target: a link for AckLoss, a node for StuckCoupler.
func (r *refEngine) faulted(kind faults.Kind, target int) bool {
	for _, f := range r.faults {
		if f.Kind == kind && (kind == faults.StuckCoupler && f.Node == target ||
			kind != faults.StuckCoupler && f.Link == target) {
			return true
		}
	}
	return false
}
