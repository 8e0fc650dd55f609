// Package core implements the paper's primary contribution: the
// Trial-and-Failure protocol of Section 1.3.
//
// All n worms start active. In round t every active worm is sent from its
// source with a random startup delay drawn from [0, Delta_t) and a random
// wavelength drawn from [0, B); a worm that fully reaches its destination
// triggers an acknowledgement back to its source, and an acknowledged
// worm becomes inactive. Rounds repeat until every worm is inactive.
//
// The delay-range sequence Delta_t is pluggable (DelaySchedule); the
// default HalvingSchedule follows Lemma 2.4: the residual path congestion
// halves every round w.h.p., so Delta_t shrinks geometrically down to the
// O(L log n / B) + D + L floor. Under priority routers a
// PriorityAssigner provides per-round distinct ranks (the paper's upper
// bound holds for any such assignment).
package core

import (
	"fmt"
	"math"

	"repro/internal/faults"
	"repro/internal/graph"
	"repro/internal/optical"
	"repro/internal/paths"
	"repro/internal/rng"
	"repro/internal/sim"
	"repro/internal/telemetry"
)

// Params are the routing-problem parameters the paper's bounds are stated
// in. They are computed from the collection once per Run.
type Params struct {
	N              int // number of worms
	Dilation       int // D
	PathCongestion int // C-tilde
	Length         int // L (worm length in flits)
	Bandwidth      int // B (wavelengths per band)
}

// Log2N returns log2(max(N,2)), the "log n" of the paper's formulas.
func (p Params) Log2N() float64 { return math.Log2(float64(maxInt(p.N, 2))) }

// DelaySchedule produces the per-round delay range Delta_t (the startup
// delay is drawn uniformly from [0, Delta_t)).
type DelaySchedule interface {
	// Range returns Delta_t >= 1 for 1-based round t.
	Range(t int, p Params) int
	// Name identifies the schedule in reports.
	Name() string
}

// HalvingSchedule is the paper's schedule (Lemma 2.4 and Section 2.1):
//
//	Delta_t = max(C1*L*Ct/B, C2*L*C/(B*log n), C3*L*log n/B) + D + L
//
// with Ct = max(C/2^(t-1), log n) the expected residual path congestion.
// The paper's proof constants are C1 = 32, C2 = 32, C3 = 40*e^2*delta;
// they guarantee the w.h.p. statements but are far larger than needed in
// practice, so the zero value uses practical constants (2, 1, 1). Use
// PaperExact for the proof constants.
type HalvingSchedule struct {
	C1, C2, C3 float64
}

// PaperExact returns the schedule with the constants used in the paper's
// proofs (delta taken as 1).
func PaperExact() HalvingSchedule {
	return HalvingSchedule{C1: 32, C2: 32, C3: 40 * math.E * math.E}
}

// Range implements DelaySchedule.
func (h HalvingSchedule) Range(t int, p Params) int {
	c1, c2, c3 := h.C1, h.C2, h.C3
	if c1 == 0 {
		c1 = 2
	}
	if c2 == 0 {
		c2 = 1
	}
	if c3 == 0 {
		c3 = 1
	}
	logn := p.Log2N()
	l := float64(p.Length)
	b := float64(p.Bandwidth)
	c := float64(p.PathCongestion)
	ct := math.Max(c/math.Pow(2, float64(t-1)), logn)
	delta := math.Max(c1*l*ct/b, math.Max(c2*l*c/(b*logn), c3*l*logn/b))
	r := int(math.Ceil(delta)) + p.Dilation + p.Length
	return maxInt(r, 1)
}

// Name implements DelaySchedule.
func (h HalvingSchedule) Name() string { return "halving" }

// FixedSchedule keeps Delta_t constant at Factor*L*C/B + D + L: the
// no-backoff baseline used by the A1 ablation. Factor 0 means 1.
type FixedSchedule struct {
	Factor float64
}

// Range implements DelaySchedule.
func (f FixedSchedule) Range(t int, p Params) int {
	factor := f.Factor
	if factor == 0 {
		factor = 1
	}
	delta := factor * float64(p.Length) * float64(p.PathCongestion) / float64(p.Bandwidth)
	return maxInt(int(math.Ceil(delta))+p.Dilation+p.Length, 1)
}

// Name implements DelaySchedule.
func (f FixedSchedule) Name() string { return "fixed" }

// DoublingSchedule is the classic exponential-backoff ablation:
// Delta_t = Base * 2^(t-1) + D + L, Base 0 meaning L.
type DoublingSchedule struct {
	Base int
}

// Range implements DelaySchedule.
func (d DoublingSchedule) Range(t int, p Params) int {
	base := d.Base
	if base == 0 {
		base = p.Length
	}
	if t > 30 {
		t = 30 // clamp the shift; ranges beyond this are absurd anyway
	}
	return maxInt(base<<(uint(t-1))+p.Dilation+p.Length, 1)
}

// Name implements DelaySchedule.
func (d DoublingSchedule) Name() string { return "doubling" }

// ConstantSchedule returns a literal Delta for every round (used by the
// lower-bound experiments, which pick Delta explicitly).
type ConstantSchedule struct {
	Delta int
}

// Range implements DelaySchedule.
func (c ConstantSchedule) Range(t int, p Params) int { return maxInt(c.Delta, 1) }

// Name implements DelaySchedule.
func (c ConstantSchedule) Name() string { return "constant" }

// PriorityAssigner provides per-round worm ranks for priority routers.
// Ranks within one round must be pairwise distinct (the paper's condition
// that no two worms of the same rank can meet).
type PriorityAssigner interface {
	// Assign returns a rank for each of the given active worm indices.
	Assign(round int, active []int, src *rng.Source) []int
}

// RandomRanks draws a fresh uniformly random rank permutation each round.
type RandomRanks struct{}

// Assign implements PriorityAssigner.
func (RandomRanks) Assign(round int, active []int, src *rng.Source) []int {
	return src.Perm(len(active))
}

// StaticRanks ranks worms by their index, constant across rounds.
type StaticRanks struct{}

// Assign implements PriorityAssigner.
func (StaticRanks) Assign(round int, active []int, src *rng.Source) []int {
	ranks := make([]int, len(active))
	for i, idx := range active {
		ranks[i] = idx
	}
	return ranks
}

// ExplicitRanks assigns the fixed rank Ranks[wormIndex] every round; used
// by the adversarial lower-bound constructions.
type ExplicitRanks struct {
	Ranks []int
}

// Assign implements PriorityAssigner.
func (e ExplicitRanks) Assign(round int, active []int, src *rng.Source) []int {
	ranks := make([]int, len(active))
	for i, idx := range active {
		ranks[i] = e.Ranks[idx]
	}
	return ranks
}

// Config parameterizes a protocol run.
type Config struct {
	// Bandwidth is B >= 1.
	Bandwidth int
	// Length is the worm length L >= 1.
	Length int
	// Lengths optionally gives each worm its own length (indexed like the
	// collection); the schedule then uses the maximum. All entries must be
	// >= 1 and the slice must match the collection size.
	Lengths []int
	// Rule selects serve-first or priority routers.
	Rule optical.Rule
	// Schedule provides Delta_t; nil means HalvingSchedule{}.
	Schedule DelaySchedule
	// Priorities provides ranks under the Priority rule; nil means
	// RandomRanks. Ignored under ServeFirst.
	Priorities PriorityAssigner
	// Wavelengths chooses per-round wavelengths; nil means the paper's
	// uniform random draws.
	Wavelengths WavelengthPolicy
	// MaxRounds caps the protocol; 0 derives 64 + 8*ceil(log2 n). Hitting
	// the cap is reported in the result, not an error.
	MaxRounds int
	// Wreckage, Tie and AckLength configure the simulator (see sim).
	Wreckage sim.WreckagePolicy
	Tie      optical.TiePolicy
	// Conversion enables wavelength conversion at routers for which the
	// predicate holds (nil = no conversion, the paper's main setting).
	Conversion func(graph.NodeID) bool
	// AckLength 0 selects oracle acknowledgements.
	AckLength int
	// RecordCollisions retains per-round collision traces for witness
	// analysis.
	RecordCollisions bool
	// Faults optionally runs the protocol in degraded mode against a fault
	// plan (see internal/faults). Plan timestamps are PROTOCOL time — the
	// cumulative AccountedTime of finished rounds — and each round receives
	// the plan re-anchored to its own local steps via Plan.Shift. At every
	// round start, still-active worms whose paths cross a link that is down
	// at that instant are deterministically rerouted around the outage
	// (paths.ShortestPathAvoiding); worms whose destination is unreachable
	// keep their original path and retry until a repair. Nil keeps the
	// protocol exactly fault-free.
	Faults *faults.Plan
	// TrackCongestion computes the residual path congestion of the active
	// sub-collection at the start of every round (costly; used by the
	// Lemma 2.4 / 2.10 experiments).
	TrackCongestion bool
	// CheckInvariants enables the simulator's internal checks.
	CheckInvariants bool
	// Probe optionally receives telemetry events: the protocol-level
	// round hooks (RoundStarted with the round's delay range,
	// RoundFinished with the round summary including residual congestion
	// when tracked) plus every engine-level event of the per-round
	// simulations. Attaching a probe never changes results.
	Probe telemetry.Probe
}

// RoundStats summarizes one round of the protocol.
type RoundStats struct {
	Round         int
	DelayRange    int // Delta_t
	ActiveBefore  int // worms active at round start
	Delivered     int // fully delivered this round
	Acked         int // acknowledged this round (become inactive)
	Collisions    int
	Makespan      int // measured steps of the round's simulation
	AccountedTime int // Delta_t + 2*(D+L), the paper's round accounting
	// ResidualCongestion is the path congestion of the active
	// sub-collection at round start (-1 unless TrackCongestion).
	ResidualCongestion int
	// Utilization is the fraction of message-band (link, wavelength,
	// step) capacity the round's message traffic occupied;
	// acknowledgement traffic lives in the reserved band and is reported
	// by AckUtilization.
	Utilization float64
	// AckUtilization is the ack band's occupied capacity fraction.
	AckUtilization float64
	// FaultKills counts trains the round's fault schedule destroyed
	// (kept separate from Collisions; see sim.Result.FaultKillCount).
	FaultKills int
	// Rerouted counts active worms steered around down links this round.
	Rerouted int
}

// Result is the full account of one protocol run.
type Result struct {
	Params        Params
	Rounds        []RoundStats
	TotalRounds   int
	TotalTime     int  // sum of AccountedTime (the paper's runtime)
	MeasuredTime  int  // sum of measured makespans
	AllDelivered  bool // every worm acknowledged within MaxRounds
	StillActive   []int
	RoundTraces   [][]sim.Collision // per round, when RecordCollisions
	ScheduleName  string
	DuplicateAcks int // deliveries whose ack was lost (retried although delivered)
	// TotalFaultKills and TotalRerouted sum the per-round degraded-mode
	// counters (both 0 on fault-free runs).
	TotalFaultKills int
	TotalRerouted   int
	// WormRounds[i] is the round in which worm i was acknowledged
	// (0 = never within MaxRounds).
	WormRounds []int
}

// Run executes the Trial-and-Failure protocol on the collection. The
// caller's rng source drives all randomness, making runs reproducible.
func Run(c *paths.Collection, cfg Config, src *rng.Source) (*Result, error) {
	return RunWithSimulator(c, cfg, src, sim.NewEngine())
}

// Simulator is the per-round worm executor the protocol loop drives:
// *sim.Engine, or a wrapper around one (the benchmark times rounds
// through this seam). Implementations own the returned Result until the
// next Run call, exactly like sim.Engine.
type Simulator interface {
	Run(g *graph.Graph, worms []sim.Worm, cfg sim.Config) (*sim.Result, error)
}

// RunWithSimulator is Run with a caller-provided simulator, reused for
// every round. Callers that execute many protocol runs (Monte-Carlo trial
// loops, parameter ladders) should hold one sim.Engine per goroutine and
// pass it here so the simulator's scratch memory is recycled across runs.
// The simulator must not be shared between goroutines.
func RunWithSimulator(c *paths.Collection, cfg Config, src *rng.Source, eng Simulator) (*Result, error) {
	if c.Size() == 0 {
		return &Result{AllDelivered: true, ScheduleName: scheduleOf(cfg).Name()}, nil
	}
	if cfg.Bandwidth < 1 {
		return nil, fmt.Errorf("core: bandwidth %d < 1", cfg.Bandwidth)
	}
	if cfg.Length < 1 {
		return nil, fmt.Errorf("core: worm length %d < 1", cfg.Length)
	}
	if cfg.Lengths != nil {
		if len(cfg.Lengths) != c.Size() {
			return nil, fmt.Errorf("core: %d per-worm lengths for %d worms", len(cfg.Lengths), c.Size())
		}
		for i, l := range cfg.Lengths {
			if l < 1 {
				return nil, fmt.Errorf("core: worm %d length %d < 1", i, l)
			}
		}
	}
	sched := scheduleOf(cfg)
	prio := cfg.Priorities
	if prio == nil {
		prio = RandomRanks{}
	}
	waves := cfg.Wavelengths
	if waves == nil {
		waves = RandomWavelengths{}
	}
	maxLen := cfg.Length
	for _, l := range cfg.Lengths {
		if l > maxLen {
			maxLen = l
		}
	}
	params := Params{
		N:              c.Size(),
		Dilation:       c.Dilation(),
		PathCongestion: c.PathCongestion(),
		Length:         maxLen,
		Bandwidth:      cfg.Bandwidth,
	}
	maxRounds := cfg.MaxRounds
	if maxRounds == 0 {
		maxRounds = 64 + 8*int(math.Ceil(params.Log2N()))
	}

	res := &Result{Params: params, ScheduleName: sched.Name(), WormRounds: make([]int, c.Size())}
	active := make([]int, c.Size())
	for i := range active {
		active[i] = i
	}
	g := c.Graph()
	// The link index was built by PathCongestion above; it is read without
	// locking from here on.
	x := c.Index()
	worms := make([]sim.Worm, 0, c.Size()) // reused across rounds
	var residual *congestionScratch
	if cfg.TrackCongestion {
		residual = newCongestionScratch(c.Size())
	}

	// Degraded mode: protocol time elapsed before the current round, used
	// to anchor the fault plan, plus a per-round down-link lookup.
	degraded := cfg.Faults != nil && !cfg.Faults.Empty()
	offset := 0
	var blocked []bool
	if degraded {
		if err := cfg.Faults.Validate(g, cfg.Bandwidth); err != nil {
			return nil, fmt.Errorf("core: %w", err)
		}
		blocked = make([]bool, g.NumLinks())
	}

	for t := 1; len(active) > 0 && t <= maxRounds; t++ {
		delta := sched.Range(t, params)
		stats := RoundStats{
			Round:              t,
			DelayRange:         delta,
			ActiveBefore:       len(active),
			AccountedTime:      delta + 2*(params.Dilation+params.Length),
			ResidualCongestion: -1,
		}
		if cfg.TrackCongestion {
			stats.ResidualCongestion = residual.congestion(x, active)
		}
		if cfg.Probe != nil {
			cfg.Probe.RoundStarted(t, delta, len(active))
		}

		// Re-anchor the fault plan to this round's local steps and note
		// which links are down right now so worms can route around them.
		var roundFaults *faults.Schedule
		var isBlocked func(graph.LinkID) bool
		if degraded {
			sched, err := cfg.Faults.Shift(offset).Compile(g, cfg.Bandwidth)
			if err != nil {
				return nil, fmt.Errorf("core: round %d: %w", t, err)
			}
			roundFaults = sched
			for i := range blocked {
				blocked[i] = false
			}
			for _, id := range cfg.Faults.DownLinksAt(offset) {
				blocked[id] = true
			}
			isBlocked = func(id graph.LinkID) bool { return blocked[id] }
		}

		var ranks []int
		if cfg.Rule == optical.Priority {
			ranks = prio.Assign(t, active, src)
		}
		lambdas := waves.Assign(t, active, c, cfg.Bandwidth, src)
		worms = worms[:len(active)]
		for i, idx := range active {
			length := cfg.Length
			if cfg.Lengths != nil {
				length = cfg.Lengths[idx]
			}
			path := c.Path(idx)
			if degraded && pathHitsDownLink(x, idx, blocked) {
				// Deterministic detour; an unreachable destination keeps
				// the original path (the attempt dies at the outage and
				// retries next round, by which time a repair may land).
				if alt := paths.ShortestPathAvoiding(g, path.Source(), path.Dest(), isBlocked); alt != nil {
					path = alt
					stats.Rerouted++
				}
			}
			w := sim.Worm{
				ID:         idx,
				Path:       path,
				Length:     length,
				Delay:      src.Intn(delta),
				Wavelength: lambdas[i],
			}
			if ranks != nil {
				w.Rank = ranks[i]
			}
			worms[i] = w
		}
		simRes, err := eng.Run(g, worms, sim.Config{
			Bandwidth:        cfg.Bandwidth,
			Rule:             cfg.Rule,
			Tie:              cfg.Tie,
			Wreckage:         cfg.Wreckage,
			Conversion:       cfg.Conversion,
			AckLength:        cfg.AckLength,
			RecordCollisions: cfg.RecordCollisions,
			CheckInvariants:  cfg.CheckInvariants,
			Faults:           roundFaults,
			Probe:            cfg.Probe,
		})
		if err != nil {
			return nil, fmt.Errorf("core: round %d: %w", t, err)
		}

		var still []int
		for i, idx := range active {
			o := simRes.Outcomes[i]
			if o.Delivered {
				stats.Delivered++
			}
			if o.Acked {
				stats.Acked++
				res.WormRounds[idx] = t
			} else {
				if o.Delivered {
					res.DuplicateAcks++
				}
				still = append(still, idx)
			}
		}
		stats.Collisions = simRes.CollisionCount
		stats.Makespan = simRes.Makespan
		stats.Utilization = simRes.Utilization(g.NumLinks(), cfg.Bandwidth)
		stats.AckUtilization = simRes.AckUtilization(g.NumLinks(), cfg.Bandwidth)
		stats.FaultKills = simRes.FaultKillCount
		if cfg.Probe != nil {
			cfg.Probe.RoundFinished(telemetry.RoundInfo{
				Round:              t,
				DelayRange:         delta,
				Active:             stats.ActiveBefore,
				Delivered:          stats.Delivered,
				Acked:              stats.Acked,
				Collisions:         stats.Collisions,
				Makespan:           stats.Makespan,
				ResidualCongestion: stats.ResidualCongestion,
				FaultKills:         stats.FaultKills,
				Rerouted:           stats.Rerouted,
			})
		}
		if cfg.RecordCollisions {
			// The engine owns simRes.Collisions and recycles it next round;
			// retained traces need their own copy.
			res.RoundTraces = append(res.RoundTraces, append([]sim.Collision(nil), simRes.Collisions...))
		}
		res.Rounds = append(res.Rounds, stats)
		res.TotalTime += stats.AccountedTime
		res.MeasuredTime += stats.Makespan
		res.TotalFaultKills += stats.FaultKills
		res.TotalRerouted += stats.Rerouted
		offset += stats.AccountedTime
		active = still
	}
	res.TotalRounds = len(res.Rounds)
	res.AllDelivered = len(active) == 0
	res.StillActive = active
	return res, nil
}

// pathHitsDownLink reports whether worm idx's original path crosses a
// link marked down in the blocked lookup.
func pathHitsDownLink(x *paths.LinkIndex, idx int, blocked []bool) bool {
	for _, id := range x.PathLinks(idx) {
		if blocked[id] {
			return true
		}
	}
	return false
}

func scheduleOf(cfg Config) DelaySchedule {
	if cfg.Schedule != nil {
		return cfg.Schedule
	}
	return HalvingSchedule{}
}

// congestionScratch holds the generation-stamped marks of the residual
// congestion pass, reused across the rounds of one run.
type congestionScratch struct {
	active    []int32 // active[j] == activeGen while worm j is active
	seen      []int32 // seen[j] == seenGen once j is counted for the current path
	activeGen int32
	seenGen   int32
}

func newCongestionScratch(n int) *congestionScratch {
	return &congestionScratch{active: make([]int32, n), seen: make([]int32, n)}
}

// congestion computes the path congestion (paper's C-tilde, counting the
// path itself) restricted to the still-active worms.
func (s *congestionScratch) congestion(x *paths.LinkIndex, active []int) int {
	s.activeGen++
	for _, idx := range active {
		s.active[idx] = s.activeGen
	}
	best := 0
	for _, idx := range active {
		if s.seenGen == math.MaxInt32 { // stamp wrap: invalidate stale stamps once
			clear(s.seen)
			s.seenGen = 0
		}
		s.seenGen++
		count := 0
		for _, id := range x.PathLinks(idx) {
			for _, j := range x.Users(id) {
				if s.active[j] == s.activeGen && s.seen[j] != s.seenGen {
					s.seen[j] = s.seenGen
					count++
				}
			}
		}
		best = max(best, count)
	}
	return best
}

func maxInt(a, b int) int {
	if a > b {
		return a
	}
	return b
}
