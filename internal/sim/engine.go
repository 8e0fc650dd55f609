package sim

import (
	"fmt"
	"math/bits"
	"slices"

	"repro/internal/graph"
	"repro/internal/optical"
	"repro/internal/telemetry"
)

// train is one flit train: a message worm or an acknowledgement.
type train struct {
	id     int  // worm ID (acks share their parent's ID)
	outIdx int  // index into Result.Outcomes
	isAck  bool //
	// links holds the directed link ID of every path hop, narrowed to
	// int32: the occupancy key space is validated to fit an int32 (see
	// validator.check), so link IDs trivially do, and the walk touches
	// half the memory of a []graph.LinkID.
	links      []int32
	start      int // step the head enters links[0]
	length     int // L
	wavelength int
	rank       int
	band       Band
	cut        bool  // lost at least one collision
	waves      []int // per-link wavelength (conversion only); empty = fixed
	// keys caches the occupancy slot key of every link index the head has
	// entered, written during entry collection (and updated when a
	// conversion moves the train to a new wavelength at that link). Entries
	// at indices the head has not reached yet are garbage; release only
	// walks indices strictly behind the head, so it never reads one.
	// int32 is safe: validator.check bounds the whole key space to int32.
	keys []int32
}

// fragment is a maximal contiguous run of surviving flits of one train.
// Flit j of a train with start s traverses link i during step s+i+j. The
// kinematic fields are int32 (a path index and flit index trivially fit)
// and the train's start step is cached here, so a fragment is 48 bytes —
// under a cache line — and the per-step walk reads its whole window
// without dereferencing the train.
type fragment struct {
	t          *train
	headChild  *fragment
	start      int32 // == t.start, cached for the walk
	jMin, jMax int32 // surviving flit range (j = 0 is the original head)
	barrier    int32 // flits are destroyed entering links[barrier]; len(links) = none
	relUpTo    int32 // links with index < relUpTo have been released
	lim        int32 // largest link index this fragment can occupy
	self       int32 // arena index of this fragment (occupant back-reference)
	gone       bool
}

// limit returns the largest link index this fragment can occupy. The value
// is fixed at creation (barrier never moves after newFrag), so it is
// precomputed into lim; hot loops read the field directly.
func (f *fragment) limit() int { return int(f.lim) }

// lo returns the tail-edge link index at step t: links below lo are free.
func (f *fragment) lo(t int) int { return t - int(f.start) - int(f.jMax) }

// hi returns the head-edge link index at step t (may exceed limit; clip).
func (f *fragment) hi(t int) int { return t - int(f.start) - int(f.jMin) }

// Engine is a reusable simulator instance. All scratch state — the flat
// occupancy table, the spawn calendar, the train/fragment arenas and the
// per-step grouping buffers — persists across Run calls, so steady-state
// rounds are allocation-free. The Trial-and-Failure protocol calls Run
// once per round per trial; callers that loop (core.Run across rounds,
// the experiment harness across trials) hold one Engine and reuse it.
//
// An Engine is not safe for concurrent use; give each goroutine its own.
// The Result returned by Run is owned by the engine and remains valid
// only until the next Run call on the same engine.
type Engine struct {
	g   *graph.Graph
	cfg Config
	// occ is the flat occupant table indexed by the dense slot key
	// (band*nLinks + link)<<waveShift | wavelength. Freeness is NOT read
	// from occ: the occBits words below are the single authority for
	// whether a slot is busy, and occ[k] is meaningful only while bit k is
	// set (release clears the bit and leaves the stale entry in place).
	// The per-(band,link) stride is the bandwidth rounded up to
	// a power of two, so key composition and decomposition are shifts and
	// masks (no multiply or divide on the hot path) and — in the packed
	// mirror below — a key's word and bit fall out of the same shift. The
	// padding wavelengths can never be claimed (wavelengths are validated
	// against Bandwidth), and key order is still lexicographic by (band,
	// link, wavelength), so conflict groups resolve in the same order as
	// the unpadded layout. occCount tracks the number of occupied slots so
	// the per-step busy accounting needs no scan; occMsg tracks the
	// message-band share (keys below msgSlots), giving the per-band busy
	// totals without a second table walk.
	occ       []occupant
	occCount  int
	occMsg    int
	msgSlots  int  // nLinks<<waveShift: first ack-band key
	waveShift uint // log2 of the padded per-(band,link) key stride
	waveMask  int  // 1<<waveShift - 1: extracts the wavelength from a key
	// occBits mirrors occ as a bitmask: bit (k & wordMask) of word
	// (k >> wordShift) is set iff slot k is occupied. Words are always a
	// full 64 slots: the per-(band,link) stride is a power of two, so it
	// either divides 64 (several groups pack into one word and none
	// straddles a word boundary) or is a multiple of 64 (a group owns a
	// run of whole words). Dense packing keeps the whole mask in L1 even
	// at small bandwidths. The words drive the batched conversion scan
	// and the packed invariant check.
	// darkBits marks wavelength-outage slots the same way: a dark slot is
	// occupied-but-unclaimable, so scans treat occBits|darkBits as busy.
	occBits   []uint64
	darkBits  []uint64
	wordShift uint // always 6: 64 slots per word
	wordMask  int  // 1<<wordShift - 1
	occClean  int  // the bit words covering slots [0,occClean) are known zero
	darkDirty bool // darkBits has set bits from the previous run
	// fastClaim enables the optimistic in-walk claim: without faults or a
	// probe (and with keys fitting an int32 bucket slot), the lone entrant
	// of a bucket onto a free slot claims during collection, skipping the
	// bucket machinery; a second same-step entrant revokes and defers.
	fastClaim bool
	cal       calendar
	active    []*fragment
	res       Result
	nLinks    int
	pendConv  []convAttempt
	entries   []entry // per-step conflict-group scratch, sorted by (key, id)
	live      []entry // per-group scratch after headChild chain resolution
	// Batched grouping scratch (packed path): instead of globally sorting
	// e.entries, each entrant is pushed onto a per-(band,link) chain and
	// the touched band-links are visited in ascending order via the
	// blWords bitmap, so a step costs O(entrants + touched words) instead
	// of O(entrants log entrants). Generation stamps make bucket reuse
	// O(1) per step with no clearing pass.
	entryNext []int32 // entryNext[i]: next entry index in i's bucket
	// Bucket state is split by access temperature: bktGen — one byte per
	// band-link — is the only array every entrant must LOAD, and at a
	// byte per bucket it stays L1-resident; bktHead/bktTail are only
	// written on the common path (stores retire through the write
	// buffer) and read back rarely, on revocation and deferred
	// resolution. A stamp equal to gen (even) marks a deferred chain
	// built this step; gen|1 marks an optimistic claim, with bktHead
	// holding the claimed slot key instead of an entry index.
	bktGen  []uint8
	bktHead []int32
	bktTail []int32
	gen     uint8    // even step stamp; advances by 2, wraps via a clear
	blWords []uint64 // bitmap over band-links with a non-empty bucket
	bucket  []entry  // per-bucket (key, id) sort scratch
	arena   arena
	val     validator
	// probe receives telemetry events when non-nil (copied from the
	// Config each begin); every hook site guards with one nil check.
	probe telemetry.Probe
	now   int // current step, for hook sites without a t parameter
	// flt points at ef while a fault schedule is attached and is nil
	// otherwise, so — like probe — the fault-free hot path pays exactly
	// one predictable branch per consultation site.
	flt *engineFaults
	ef  engineFaults
}

// NewEngine returns an empty engine ready for its first Run.
func NewEngine() *Engine { return &Engine{} }

// entry is one fragment head entering a new link this step.
type entry struct {
	key int // occupancy slot key
	f   *fragment
	idx int
}

// convAttempt is an entrant that lost its conflict at a converting router
// and awaits a wavelength-conversion attempt at the end of the step.
type convAttempt struct {
	f       *fragment
	idx     int
	blocker *train
}

// occupant records the owner of a claimed slot as the fragment's arena
// index plus its link index — eight bytes instead of a (pointer, int)
// pair. The occ table is the engine's hottest randomly-indexed array, so
// halving each entry halves the cache footprint of every claim and
// ownership check; identity tests compare fi against fragment.self
// without dereferencing, and only resolution paths pay fragAt.
type occupant struct {
	fi  int32 // arena index of the owning fragment (fragment.self)
	idx int32 // index into f.t.links
}

// fragAt resolves an occupant's arena index back to its fragment. Slabs
// are never reallocated, so the pointer is stable.
//
//optlint:hotpath packed
func (e *Engine) fragAt(fi int32) *fragment {
	return &e.arena.fragSlabs[fi>>arenaChunkShift][fi&(arenaChunk-1)]
}

//optlint:hotpath packed
func (e *Engine) key(band Band, link graph.LinkID, wavelength int) int {
	return (int(band)*e.nLinks+int(link))<<e.waveShift | wavelength
}

// waveAt returns the wavelength train tr uses on its link index i,
// filling the conversion table with the carried wavelength on first use.
//
//optlint:hotpath
func (e *Engine) waveAt(tr *train, i int) int {
	if len(tr.waves) == 0 {
		return tr.wavelength
	}
	if tr.waves[i] < 0 {
		if i == 0 {
			tr.waves[i] = tr.wavelength
		} else {
			tr.waves[i] = e.waveAt(tr, i-1)
		}
	}
	return tr.waves[i]
}

// fragKey is the occupancy key of fragment f's link index i.
//
//optlint:hotpath
func (e *Engine) fragKey(f *fragment, i int) int {
	return e.key(f.t.band, int(f.t.links[i]), e.waveAt(f.t, i))
}

// setOcc claims slot k for fragment f at link index idx (overwriting a
// surrendered occupant, if any). The occBits word is the single source of
// truth for slot business; the occupant table is only meaningful — and
// only read — where the bit is set, so releases never have to write it
// back and stale entries are harmless.
//
//optlint:hotpath packed
func (e *Engine) setOcc(k int, f *fragment, idx int) {
	wi, m := k>>e.wordShift, uint64(1)<<uint(k&e.wordMask)
	if e.occBits[wi]&m == 0 {
		e.occBits[wi] |= m
		e.occCount++
		if k < e.msgSlots {
			e.occMsg++
		}
		if e.probe != nil {
			band, link, wave := e.slotCoords(k)
			e.probe.SlotClaimed(e.now, band, link, wave)
		}
	}
	e.occ[k] = occupant{fi: f.self, idx: int32(idx)}
}

// delOcc frees slot k if fragment f still owns it. Used on the cut and
// fault paths, where the slot may have been surrendered to a winner or
// reassigned to a wreckage child: the identity check keeps f's cleanup
// from freeing what is now someone else's claim.
//
//optlint:hotpath packed
func (e *Engine) delOcc(k int, f *fragment) {
	wi, m := k>>e.wordShift, uint64(1)<<uint(k&e.wordMask)
	if e.occBits[wi]&m != 0 && e.occ[k].fi == f.self {
		e.occBits[wi] &^= m
		e.occCount--
		if k < e.msgSlots {
			e.occMsg--
		}
		if e.probe != nil {
			band, link, wave := e.slotCoords(k)
			e.probe.SlotReleased(e.now, band, link, wave)
		}
	}
}

// releaseOcc frees slot k on the tail-release path. A live fragment owns
// every entered, unreleased index of its window — losing a slot always
// goes through split, which marks the fragment gone — so no ownership
// check is needed and the occupant table is left untouched (its entry
// goes stale behind a cleared bit, which no reader consults). Telemetry
// is NOT emitted here: callers run probeReleased themselves after the
// release loop, keeping this body inside the compiler's inline budget.
//
//optlint:hotpath packed
func (e *Engine) releaseOcc(k int) {
	e.occBits[k>>e.wordShift] &^= 1 << uint(k&e.wordMask)
	e.occCount--
	if k < e.msgSlots {
		e.occMsg--
	}
}

// probeReleased emits the slot-release telemetry event for a slot freed
// through releaseOcc (which, unlike setOcc/delOcc, leaves probe emission
// to its callers so it stays inlinable).
//
//optlint:hotpath
func (e *Engine) probeReleased(k int) {
	if e.probe != nil {
		band, link, wave := e.slotCoords(k)
		e.probe.SlotReleased(e.now, band, link, wave)
	}
}

// growWords returns s resized to n words, zeroing any region newly
// exposed from spare capacity (callers track whole-slice dirtiness).
//
//optlint:hotpath
func growWords(s []uint64, n int) []uint64 {
	if cap(s) < n {
		//optlint:allow hotpath capacity-guarded growth: only the first run on a larger graph allocates
		return make([]uint64, n)
	}
	old := len(s)
	s = s[:n]
	if n > old {
		clear(s[old:])
	}
	return s
}

// slotCoords decomposes occupancy key k into its (band, link, wavelength)
// coordinates for probe hooks: the wavelength is the low waveShift bits,
// the rest is band*nLinks+link, and band is 0 or 1.
//
//optlint:hotpath
func (e *Engine) slotCoords(k int) (band, link, wave int) {
	wave = k & e.waveMask
	link = k >> e.waveShift
	if link >= e.nLinks {
		band = 1
		link -= e.nLinks
	}
	return band, link, wave
}

// begin resets the engine for a new run on graph g under cfg, with room
// for nOutcomes outcome slots.
//
//optlint:hotpath
func (e *Engine) begin(g *graph.Graph, cfg Config, nOutcomes int) {
	e.g, e.cfg = g, cfg
	e.nLinks = g.NumLinks()
	e.waveShift = uint(bits.Len(uint(cfg.Bandwidth - 1)))
	e.waveMask = 1<<e.waveShift - 1
	e.wordShift = 6 // full 64-slot words; see the occBits layout comment
	e.wordMask = 1<<e.wordShift - 1
	e.msgSlots = e.nLinks << e.waveShift
	need := 2 * e.msgSlots // message band + ack band
	// The occupant table is never cleared: every read is guarded by a set
	// occupancy bit, so stale entries from earlier runs are unreachable.
	if cap(e.occ) < need {
		//optlint:allow hotpath capacity-guarded growth: only the first run on a larger graph allocates
		e.occ = make([]occupant, need)
	} else {
		e.occ = e.occ[:need]
	}
	// A run that drains normally releases every slot, so the bit words are
	// already zero up to occClean slots and the per-run clear can be skipped.
	dirty := need > e.occClean
	words := (need + 63) >> e.wordShift
	e.occBits = growWords(e.occBits, words)
	if dirty {
		clear(e.occBits)
	}
	e.darkBits = growWords(e.darkBits, words)
	if e.darkDirty {
		clear(e.darkBits)
		e.darkDirty = false
	}
	nBL := 2 * e.nLinks
	if cap(e.bktGen) < nBL {
		//optlint:allow hotpath capacity-guarded growth: only the first run on a larger graph allocates
		e.bktGen = make([]uint8, nBL)
		//optlint:allow hotpath capacity-guarded growth: only the first run on a larger graph allocates
		e.bktHead = make([]int32, nBL)
		//optlint:allow hotpath capacity-guarded growth: only the first run on a larger graph allocates
		e.bktTail = make([]int32, nBL)
	} else {
		e.bktGen = e.bktGen[:nBL]
		e.bktHead = e.bktHead[:nBL]
		e.bktTail = e.bktTail[:nBL]
	}
	// Stale stamps from the previous run must not alias this run's steps.
	clear(e.bktGen)
	e.gen = 0
	e.blWords = growWords(e.blWords, (nBL+63)/64)
	e.occCount = 0
	e.occMsg = 0
	e.now = 0
	e.probe = cfg.Probe
	// Keys always fit an int32 bucket slot (validator.check bounds the
	// key space), so only faults and probes force the deferred path.
	e.fastClaim = cfg.Faults == nil && cfg.Probe == nil
	if cfg.Faults != nil {
		e.ef.attach(cfg.Faults, e.nLinks, g.NumNodes(), need)
		e.flt = &e.ef
	} else {
		e.flt = nil
	}
	if e.probe != nil {
		e.probe.BeginRun(telemetry.RunMeta{Links: e.nLinks, Bandwidth: cfg.Bandwidth, Worms: nOutcomes})
	}
	e.cal.reset()
	e.active = e.active[:0]
	e.pendConv = e.pendConv[:0]
	e.entries = e.entries[:0]
	e.live = e.live[:0]
	e.arena.reset()
	outs, colls := e.res.Outcomes[:0], e.res.Collisions[:0]
	e.res = Result{Outcomes: outs, Collisions: colls}
	for i := 0; i < nOutcomes; i++ {
		e.res.Outcomes = append(e.res.Outcomes, newOutcome())
	}
}

// newOutcome is the not-yet-determined outcome sentinel.
func newOutcome() Outcome {
	return Outcome{
		DeliveredAt: -1, AckedAt: -1,
		CutLink: -1, CutTime: -1,
		AckCutLink: -1, AckCutTime: -1,
	}
}

// Run simulates one round: every worm is launched at its delay and the
// round proceeds until all activity has drained. It returns an error for
// invalid input or if the safety step bound is exceeded (which indicates a
// bug, not a legitimate outcome). The returned Result is owned by the
// engine and is only valid until the next Run call.
func (e *Engine) Run(g *graph.Graph, worms []Worm, cfg Config) (*Result, error) {
	if err := e.val.check(g, worms, cfg); err != nil {
		return nil, err
	}
	e.begin(g, cfg, len(worms))
	maxEnd := 0
	for i := range worms {
		w := &worms[i]
		tr := e.arena.newTrain()
		tr.id = w.ID
		tr.outIdx = i
		// The validator resolved every path hop once for its revisit check;
		// reuse those link IDs instead of resolving the path a second time.
		links := e.val.links(i)
		if cap(tr.links) < len(links) {
			tr.links = make([]int32, 0, len(links)) // one exact allocation on a fresh arena slot
		}
		for _, id := range links {
			tr.links = append(tr.links, int32(id))
		}
		tr.start = w.Delay
		tr.length = w.Length
		tr.wavelength = w.Wavelength
		tr.rank = w.Rank
		tr.band = MessageBand
		e.addTrain(tr)
		end := w.Delay + len(tr.links) + w.Length + 2
		if cfg.AckLength > 0 {
			end += len(tr.links) + cfg.AckLength + 2
		}
		if end > maxEnd {
			maxEnd = end
		}
	}
	maxSteps := cfg.MaxSteps
	if maxSteps == 0 {
		maxSteps = maxEnd + 4
	}

	t, err := e.cal.nextSpawnTime(0)
	if err != nil {
		return nil, err
	}
	steps := 0
	for e.cal.pending > 0 || len(e.active) > 0 {
		if steps++; steps > maxSteps {
			e.occClean = 0
			return nil, fmt.Errorf("sim: exceeded %d steps (internal bug guard)", maxSteps)
		}
		if len(e.active) == 0 {
			// Jump over idle time to the next spawn.
			if t, err = e.cal.nextSpawnTime(t); err != nil {
				e.occClean = 0
				return nil, err
			}
		}
		e.step(t)
		if cfg.CheckInvariants {
			if err := e.checkInvariants(t); err != nil {
				e.occClean = 0
				return nil, err
			}
		}
		t++
	}
	// Everything drained, so every slot was released: remember how much of
	// the table is zero so the next begin can skip the clear.
	if e.occCount == 0 && len(e.occ) > e.occClean {
		e.occClean = len(e.occ)
	}
	for _, o := range e.res.Outcomes {
		if o.Delivered {
			e.res.DeliveredCount++
		}
		if o.Acked {
			e.res.AckedCount++
		}
	}
	if e.probe != nil {
		e.probe.EndRun(e.res.Makespan)
	}
	return &e.res, nil
}

//optlint:hotpath
func (e *Engine) addTrain(tr *train) {
	tr.waves = tr.waves[:0]
	if e.cfg.Conversion != nil {
		for range tr.links {
			tr.waves = append(tr.waves, -1)
		}
	}
	if cap(tr.keys) < len(tr.links) {
		//optlint:allow hotpath capacity-guarded growth: only the first train of a given length allocates
		tr.keys = make([]int32, len(tr.links))
	} else {
		tr.keys = tr.keys[:len(tr.links)]
	}
	if e.cfg.Conversion == nil {
		// A fixed-wavelength train's claim keys are fully determined at
		// spawn, so fill them all here in one streaming pass; the per-step
		// collect then reads keys[i] instead of recomposing the key from
		// links[i]. Converting trains keep the lazy per-step fill (their
		// wavelength can change mid-path).
		base := int(tr.band) * e.nLinks
		wv := tr.wavelength
		for i, id := range tr.links {
			tr.keys[i] = int32((base+int(id))<<e.waveShift | wv)
		}
	}
	f := e.arena.newFrag(tr, 0, tr.length-1, len(tr.links), 0)
	e.cal.add(tr.start, f)
}

// step advances the simulation by one time step, dispatching to the
// word-packed fast path (default) or the legacy flat path (ForceFlat).
// Both paths produce byte-identical results and probe streams; the flat
// path keeps the original global entrant sort as a debugging reference.
//
//optlint:hotpath
func (e *Engine) step(t int) {
	if e.cfg.ForceFlat {
		e.stepFlat(t)
		return
	}
	e.stepPacked(t)
}

// stepPacked advances one step using the word-packed path. Entrants are
// chained into per-(band,link) buckets recorded in the blWords bitmap
// and resolved in ascending band-link order (TZCNT iteration), replacing
// the flat path's global O(n log n) sort with O(n) bucket pushes. In the
// fault-free case a single walk over the active list performs releases,
// compaction, and entry collection at once; with a fault schedule
// attached the walk splits into the flat path's phases so fault events
// observe all releases and kills precede collection.
//
//optlint:hotpath packed
func (e *Engine) stepPacked(t int) {
	e.now = t
	e.entries = e.entries[:0]
	e.entryNext = e.entryNext[:0]
	e.gen += 2
	if e.gen == 0 { // uint8 wrap: flush stale stamps, restart even
		clear(e.bktGen)
		e.gen = 2
	}
	if e.flt != nil {
		// Phased layout, mirroring stepFlat phases 1-3. Splits during
		// fault kills append to e.active mid-walk (the range snapshot
		// keeps iteration over the original entries), so compaction stays
		// a separate pass at the end of the step.
		for _, f := range e.active {
			if f.gone {
				continue
			}
			e.release(f, t)
		}
		e.advanceFaults(t)
		e.active = e.cal.takeInto(t, e.active)
		for _, f := range e.active {
			if f.gone {
				continue
			}
			e.collectPacked(f, t)
		}
		e.resolveBuckets(t)
		e.convertPacked(t)
		liveActive := e.active[:0]
		for _, f := range e.active {
			if !f.gone {
				liveActive = append(liveActive, f)
			}
		}
		e.active = liveActive
	} else {
		// Fault-free fast path: one walk releases, compacts, and collects.
		// Nothing appends to e.active during the walk (completions spawn
		// acks via the calendar; cuts only happen later, in resolution),
		// so in-place compaction is safe. Fragments cut during resolution
		// stay in the list until the next step's walk drops them.
		act := e.active
		dst := 0
		did := false // saw a fragment alive at the start of this step
		for _, f := range act {
			if f.gone {
				continue
			}
			did = true
			lo := int32(t) - f.start - f.jMax
			if lo > f.lim {
				e.release(f, t) // drain/completion path
			} else if r := f.relUpTo; lo > r {
				keys := f.t.keys
				for i := r; i < lo; i++ {
					e.releaseOcc(int(keys[i]))
				}
				if e.probe != nil {
					for i := r; i < lo; i++ {
						e.probeReleased(int(keys[i]))
					}
				}
				f.relUpTo = lo
			}
			if f.gone {
				continue
			}
			act[dst] = f
			dst++
			e.collectPacked(f, t)
		}
		// Acknowledgements spawned by completions above start this very
		// step; activate and collect them now (takeInto appends).
		e.active = e.cal.takeInto(t, act[:dst])
		for _, f := range e.active[dst:] {
			e.collectPacked(f, t)
		}
		if !did && len(e.active) == 0 {
			// Nothing lived, activated, or drained this step: it only ran
			// because fragments cut in the previous step's resolution
			// were compacted lazily. Suppress the step accounting — the
			// flat path, which compacts eagerly, never executes it.
			return
		}
		e.resolveBuckets(t)
		e.convertPacked(t)
	}
	e.res.BusySlotSteps += e.occCount
	e.res.MessageBusySlotSteps += e.occMsg
	e.res.AckBusySlotSteps += e.occCount - e.occMsg
	if e.probe != nil {
		e.probe.StepAdvanced(t, e.occMsg, e.occCount-e.occMsg)
	}
	e.res.Makespan = t
}

// collectPacked collects fragment f's head entry for step t, if any,
// pushing it onto its (band, link) bucket chain. Heads entering a dark
// link or slot (or an ack entering an ack-loss link) are killed here,
// before contention, exactly as on the flat path.
//
//optlint:hotpath packed
func (e *Engine) collectPacked(f *fragment, t int) {
	i := t - int(f.start) - int(f.jMin)
	if i < 0 || i > int(f.lim) {
		return
	}
	tr := f.t
	var k int
	if len(tr.waves) == 0 {
		// Fixed wavelength: the claim key was precomputed at spawn.
		k = int(tr.keys[i])
	} else {
		// Converting train: the wavelength at i settles lazily, so compose
		// the key now and cache it for release and cleanup.
		k = (int(tr.band)*e.nLinks+int(tr.links[i]))<<e.waveShift | e.waveAt(tr, i)
		tr.keys[i] = int32(k)
	}
	if fl := e.flt; fl != nil {
		link := tr.links[i]
		if fl.linkDark[link] > 0 || (tr.isAck && fl.ackLoss[link] > 0) ||
			fl.slotDark[k] > 0 {
			e.faultKillEntrant(f, i, t)
			return
		}
		// A fault kill earlier this step can leave a drain remnant whose
		// head flit steps onto a link its train still occupies (the claim
		// moved to the remnant in reassign). Wormhole occupancy is per
		// train, not per flit: re-entering an owned slot is a no-op, not a
		// fresh contention — without this the remnant fights itself and is
		// spuriously cut, or converts away and leaks its original claim.
		// Unreachable without faults: contention cuts happen after
		// collection, and their remnants' heads start at the barrier.
		if e.occBits[k>>e.wordShift]&(1<<uint(k&e.wordMask)) != 0 && e.occ[k].fi == f.self {
			return
		}
	}
	bl := k >> e.waveShift
	g := e.bktGen[bl]
	if g|1 != e.gen|1 {
		// First entrant of this bucket this step.
		if e.fastClaim {
			wi, m := k>>e.wordShift, uint64(1)<<uint(k&e.wordMask)
			if e.occBits[wi]&m == 0 {
				// Optimistic claim: a lone entrant onto a free slot wins
				// under every rule and tie policy, so claim right here and
				// skip the bucket machinery. The odd stamp marks the claim
				// and bktHead remembers the key, so a second same-step
				// entrant can revoke.
				e.occBits[wi] |= m
				e.occCount++
				if k < e.msgSlots {
					e.occMsg++
				}
				e.occ[k] = occupant{fi: f.self, idx: int32(i)}
				e.bktGen[bl] = e.gen | 1
				e.bktHead[bl] = int32(k)
				return
			}
		}
		ei := int32(len(e.entries))
		e.entries = append(e.entries, entry{key: k, f: f, idx: i})
		e.entryNext = append(e.entryNext, -1)
		e.bktGen[bl] = e.gen
		e.bktHead[bl] = ei
		e.bktTail[bl] = ei
		e.blWords[bl>>6] |= 1 << uint(bl&63)
		return
	}
	if g&1 != 0 {
		// A second entrant reached an optimistically claimed bucket: revoke
		// the claim and rebuild the bucket as a deferred two-entry chain,
		// restoring exactly the state the pessimistic path would have built.
		k0 := int(e.bktHead[bl])
		oc := e.occ[k0]
		e.occBits[k0>>e.wordShift] &^= 1 << uint(k0&e.wordMask)
		e.occCount--
		if k0 < e.msgSlots {
			e.occMsg--
		}
		ej := int32(len(e.entries))
		e.entries = append(e.entries, entry{key: k0, f: e.fragAt(oc.fi), idx: int(oc.idx)})
		e.entryNext = append(e.entryNext, -1)
		e.bktGen[bl] = e.gen
		e.bktHead[bl] = ej
		e.bktTail[bl] = ej
		e.blWords[bl>>6] |= 1 << uint(bl&63)
	}
	ei := int32(len(e.entries))
	e.entries = append(e.entries, entry{key: k, f: f, idx: i})
	e.entryNext = append(e.entryNext, -1)
	e.entryNext[e.bktTail[bl]] = ei
	e.bktTail[bl] = ei
}

// resolveBuckets visits every non-empty bucket in ascending band-link
// order, insertion-sorts its entrants by (key, id) — buckets are tiny, a
// handful of wavelengths' worth of contenders — and resolves the groups.
// Consumed bitmap words are zeroed in place, restoring the all-zero
// between-steps invariant without a clearing pass.
//
//optlint:hotpath packed
func (e *Engine) resolveBuckets(t int) {
	for wi, w := range e.blWords {
		if w == 0 {
			continue
		}
		e.blWords[wi] = 0
		base := wi << 6
		for w != 0 {
			bl := base + bits.TrailingZeros64(w)
			w &= w - 1
			hd := e.bktHead[bl]
			if e.entryNext[hd] < 0 {
				// Singleton bucket, by far the common case. With a free
				// slot every rule, tie policy, and even a stuck coupler
				// awards the slot to the lone entrant, so claim outright;
				// only an incumbent needs the full group machinery.
				en := e.entries[hd]
				f := en.f
				for f != nil && f.gone {
					f = f.headChild
				}
				if f == nil || en.idx > int(f.lim) {
					continue
				}
				if e.occBits[en.key>>e.wordShift]&(1<<uint(en.key&e.wordMask)) == 0 {
					e.setOcc(en.key, f, en.idx)
					continue
				}
				b := e.bucket[:0]
				b = append(b, entry{key: en.key, f: f, idx: en.idx})
				e.bucket = b
				e.resolveGroups(b, t)
				continue
			}
			b := e.bucket[:0]
			for ei := hd; ei >= 0; ei = e.entryNext[ei] {
				b = append(b, e.entries[ei])
			}
			for x := 1; x < len(b); x++ {
				en := b[x]
				y := x - 1
				for y >= 0 && (b[y].key > en.key ||
					(b[y].key == en.key && b[y].f.t.id > en.f.t.id)) {
					b[y+1] = b[y]
					y--
				}
				b[y+1] = en
			}
			e.bucket = b
			e.resolveGroups(b, t)
		}
	}
}

// convertPacked runs the step-4b wavelength-conversion pass using the
// packed words: the free-slot search is a TZCNT over ^(occ|dark) in the
// cyclic order (cur+1 .. B-1, then 0 .. cur-1) the flat path scans
// linearly, so both paths pick the same wavelength or cut the same worm.
//
//optlint:hotpath packed
func (e *Engine) convertPacked(t int) {
	for _, ca := range e.pendConv {
		f := ca.f
		for f != nil && f.gone {
			f = f.headChild
		}
		if f == nil || ca.idx > int(f.lim) {
			continue
		}
		cur := e.waveAt(f.t, ca.idx)
		base := e.key(f.t.band, int(f.t.links[ca.idx]), 0)
		w := e.scanFreeWave(base, cur+1, e.cfg.Bandwidth)
		if w < 0 {
			w = e.scanFreeWave(base, 0, cur)
		}
		if w < 0 {
			e.cutEntrant(f, ca.idx, t, ca.blocker)
			continue
		}
		k := base | w
		f.t.waves[ca.idx] = w
		f.t.keys[ca.idx] = int32(k)
		e.setOcc(k, f, ca.idx)
	}
	e.pendConv = e.pendConv[:0]
}

// scanFreeWave returns the first wavelength in [lo, hi) whose slot
// base|wave is neither occupied nor dark, or -1 if the range is fully
// busy. base is the slot key of wavelength 0 at the target (band, link).
// Dark slots ride along in the busy mask for free: occupied-but-
// unclaimable, exactly the semantics wavelength outages need.
//
//optlint:hotpath packed
func (e *Engine) scanFreeWave(base, lo, hi int) int {
	wordWaves := e.wordMask + 1
	for wv := lo; wv < hi; {
		k := base + wv
		wi := k >> e.wordShift
		span := wordWaves - (k & e.wordMask)
		if rem := hi - wv; rem < span {
			span = rem
		}
		free := ^(e.occBits[wi] | e.darkBits[wi]) >> uint(k&e.wordMask)
		if span < 64 {
			free &= 1<<uint(span) - 1
		}
		if free != 0 {
			return wv + bits.TrailingZeros64(free)
		}
		wv += span
	}
	return -1
}

// stepFlat advances one step using the flat path: entrants are globally
// sorted by (slot key, worm ID) and conflict groups resolved in order.
//
//optlint:hotpath
func (e *Engine) stepFlat(t int) {
	e.now = t
	// 1. Releases: free links the tails have passed; detect completion.
	// This runs before activation so that an acknowledgement spawned by a
	// delivery completing at step t-1 (ack start = t) is activated below.
	for _, f := range e.active {
		if f.gone {
			continue
		}
		e.release(f, t)
	}

	// 1b. Fault events due now (or skipped over during an idle jump) take
	// effect: repairs first, then activations, which destroy the current
	// occupants of newly dark slots. This runs before activation and entry
	// collection so the whole step sees one consistent fault set, and the
	// wreckage fragments of killed occupants join e.active in time for
	// their own entries below.
	if e.flt != nil {
		e.advanceFaults(t)
	}

	// 2. Activate trains spawning now.
	e.active = e.cal.takeInto(t, e.active)

	// 3. Collect entries: each live fragment whose head enters a new link.
	// Sorting by (slot key, worm ID) yields the conflict groups in
	// deterministic key order with members in ID order, with no per-step
	// map or closure allocation. Heads entering a dark link or slot (or an
	// ack entering an ack-loss link) are killed here, before contention.
	e.entries = e.entries[:0]
	for _, f := range e.active {
		if f.gone {
			continue
		}
		i := f.hi(t)
		if i < 0 || i > int(f.lim) {
			continue
		}
		k := e.fragKey(f, i)
		f.t.keys[i] = int32(k) // cache the claim key for release and cleanup
		if fl := e.flt; fl != nil {
			link := f.t.links[i]
			if fl.linkDark[link] > 0 || (f.t.isAck && fl.ackLoss[link] > 0) ||
				fl.slotDark[k] > 0 {
				e.faultKillEntrant(f, i, t)
				continue
			}
			// Same self-re-entry guard as collectPacked: a drain remnant of
			// a fault kill re-entering a slot it already owns is continuous
			// wormhole occupancy, not a fresh contention.
			if e.occBits[k>>e.wordShift]&(1<<uint(k&e.wordMask)) != 0 && e.occ[k].fi == f.self {
				continue
			}
		}
		e.entries = append(e.entries, entry{key: k, f: f, idx: i})
	}
	slices.SortFunc(e.entries, func(a, b entry) int {
		if a.key != b.key {
			return a.key - b.key
		}
		return a.f.t.id - b.f.t.id
	})

	// 4. Resolve each group.
	e.resolveGroups(e.entries, t)

	// 4b. Wavelength conversion: deferred losers scan for a free
	// wavelength at their entry link in deterministic order; those that
	// find none are cut after all. The flat path keeps the linear cyclic
	// scan; the packed path replaces it with a word scan (same order).
	for _, ca := range e.pendConv {
		f := ca.f
		for f != nil && f.gone {
			f = f.headChild
		}
		if f == nil || ca.idx > int(f.lim) {
			continue
		}
		cur := e.waveAt(f.t, ca.idx)
		converted := false
		for d := 1; d < e.cfg.Bandwidth; d++ {
			w := (cur + d) % e.cfg.Bandwidth
			k := e.key(f.t.band, int(f.t.links[ca.idx]), w)
			// A dark slot (wavelength outage) is free but unusable.
			if e.occBits[k>>e.wordShift]&(1<<uint(k&e.wordMask)) == 0 &&
				(e.flt == nil || e.flt.slotDark[k] == 0) {
				f.t.waves[ca.idx] = w
				f.t.keys[ca.idx] = int32(k) // the cached claim key moves with the train
				e.setOcc(k, f, ca.idx)
				converted = true
				break
			}
		}
		if !converted {
			e.cutEntrant(f, ca.idx, t, ca.blocker)
		}
	}
	e.pendConv = e.pendConv[:0]

	// 5. Compact the active list.
	liveActive := e.active[:0]
	for _, f := range e.active {
		if !f.gone {
			liveActive = append(liveActive, f)
		}
	}
	e.active = liveActive
	e.res.BusySlotSteps += e.occCount
	e.res.MessageBusySlotSteps += e.occMsg
	e.res.AckBusySlotSteps += e.occCount - e.occMsg
	if e.probe != nil {
		e.probe.StepAdvanced(t, e.occMsg, e.occCount-e.occMsg)
	}
	// Every executed step either activated or advanced a fragment (the run
	// loop jumps over idle gaps), so t is the last meaningful step so far.
	e.res.Makespan = t
}

// resolveGroups resolves every conflict group in list, which must be
// sorted by (slot key, worm ID) and must contain all entrants of every
// key it contains. Both engine paths funnel here: the flat path passes
// the globally sorted entry slice, the packed path one per-(band,link)
// bucket at a time, in ascending band-link order — the group order and
// hence every cut, claim, and probe event is identical either way.
//
//optlint:hotpath
func (e *Engine) resolveGroups(list []entry, t int) {
	for gi := 0; gi < len(list); {
		k := list[gi].key
		gj := gi + 1
		for gj < len(list) && list[gj].key == k {
			gj++
		}
		raw := list[gi:gj]
		gi = gj
		// Follow headChild chains: a fragment split earlier this step
		// hands its pending entry to the child holding the old head flit.
		// Chained children keep the parent's train, so the ID order of raw
		// is preserved.
		e.live = e.live[:0]
		for _, en := range raw {
			f := en.f
			for f != nil && f.gone {
				f = f.headChild
			}
			if f == nil {
				continue
			}
			// The chained child keeps jMin, so the entry index is valid,
			// unless its barrier now forbids the entry.
			if en.idx > int(f.lim) {
				continue
			}
			e.live = append(e.live, entry{key: k, f: f, idx: en.idx})
		}
		live := e.live
		if len(live) == 0 {
			continue
		}

		var incF *fragment
		var incIdx int
		hasInc := e.occBits[k>>e.wordShift]&(1<<uint(k&e.wordMask)) != 0
		if hasInc {
			oc := e.occ[k]
			incF, incIdx = e.fragAt(oc.fi), int(oc.idx)
		}
		// A stuck coupler freezes arbitration at links leaving the node:
		// the occupant always keeps the slot (even under Priority), a free
		// slot goes to the lowest-ID entrant, and losers are cut outright —
		// the stuck coupler cannot rescue them via conversion either. The
		// nStuck guard keeps the fault-free path to one branch.
		if fl := e.flt; fl != nil && fl.nStuck > 0 &&
			fl.stuck[e.g.Link(int(live[0].f.t.links[live[0].idx])).From] > 0 {
			if hasInc {
				for _, en := range live {
					e.cutEntrant(en.f, en.idx, t, incF.t)
				}
			} else {
				win := live[0] // smallest worm ID after sorting
				e.setOcc(k, win.f, win.idx)
				for _, en := range live[1:] {
					e.cutEntrant(en.f, en.idx, t, win.f.t)
				}
			}
			continue
		}
		switch e.cfg.Rule {
		case optical.ServeFirst:
			if hasInc {
				for _, en := range live {
					e.loseEntrant(en.f, en.idx, t, incF.t)
				}
				continue
			}
			if len(live) == 1 {
				e.setOcc(k, live[0].f, live[0].idx)
				continue
			}
			switch e.cfg.Tie {
			case optical.TieEliminateAll:
				for x, en := range live {
					blocker := live[(x+1)%len(live)].f.t
					e.loseEntrant(en.f, en.idx, t, blocker)
				}
			case optical.TieArbitraryWinner:
				win := live[0] // smallest worm ID after sorting
				e.setOcc(k, win.f, win.idx)
				for _, en := range live[1:] {
					e.loseEntrant(en.f, en.idx, t, win.f.t)
				}
			}
		case optical.Priority:
			best := 0
			for x := 1; x < len(live); x++ {
				if live[x].f.t.rank > live[best].f.t.rank {
					best = x
				}
			}
			if hasInc && incF.t.rank >= live[best].f.t.rank {
				for _, en := range live {
					e.loseEntrant(en.f, en.idx, t, incF.t)
				}
				continue
			}
			winner := live[best]
			if hasInc {
				e.cutIncumbent(incF, incIdx, t, winner.f.t)
			}
			e.setOcc(k, winner.f, winner.idx)
			for x, en := range live {
				if x != best {
					e.loseEntrant(en.f, en.idx, t, winner.f.t)
				}
			}
		}
	}
}

// release frees links the fragment's tail has passed, and completes the
// fragment when everything has drained or been delivered.
//
//optlint:hotpath
func (e *Engine) release(f *fragment, t int) {
	limit := int(f.lim)
	lo := f.lo(t)
	upTo := lo
	if upTo > limit+1 {
		upTo = limit + 1
	}
	if upTo > int(f.relUpTo) {
		// Every index behind the tail was entered by a head in an earlier
		// step, so its cached claim key is valid — no waveAt walk here —
		// and a live fragment owns every entered, unreleased slot, so no
		// ownership check is needed either.
		keys := f.t.keys
		for i := int(f.relUpTo); i < upTo; i++ {
			e.releaseOcc(int(keys[i]))
		}
		if e.probe != nil {
			for i := int(f.relUpTo); i < upTo; i++ {
				e.probeReleased(int(keys[i]))
			}
		}
		f.relUpTo = int32(upTo)
	}
	if lo > limit {
		// All flits are past the last usable link: the fragment is done.
		f.gone = true
		e.complete(f, t)
	}
}

// complete handles a fragment whose flits have all drained or exited.
//
//optlint:hotpath
func (e *Engine) complete(f *fragment, t int) {
	tr := f.t
	// A full delivery needs the intact original fragment of an uncut train.
	if tr.cut || f.jMin != 0 || int(f.jMax) != tr.length-1 || int(f.barrier) != len(tr.links) {
		return
	}
	deliveredAt := tr.start + len(tr.links) + tr.length - 2
	if tr.isAck {
		out := &e.res.Outcomes[tr.outIdx]
		out.Acked = true
		out.AckedAt = deliveredAt
		if e.probe != nil {
			e.probe.AckCompleted(deliveredAt, tr.id, deliveredAt-tr.start)
		}
		return
	}
	out := &e.res.Outcomes[tr.outIdx]
	out.Delivered = true
	out.DeliveredAt = deliveredAt
	if e.probe != nil {
		e.probe.WormDelivered(deliveredAt, tr.id, len(tr.links), deliveredAt-tr.start)
	}
	if e.cfg.AckLength == 0 {
		out.Acked = true
		out.AckedAt = deliveredAt
		if e.probe != nil {
			e.probe.AckCompleted(deliveredAt, tr.id, 0)
		}
		return
	}
	// Spawn the acknowledgement on the reversed links in the ack band.
	ack := e.arena.newTrain()
	ack.id = tr.id
	ack.outIdx = tr.outIdx
	ack.isAck = true
	for i := len(tr.links) - 1; i >= 0; i-- {
		ack.links = append(ack.links, int32(e.g.Reverse(int(tr.links[i]))))
	}
	ack.start = deliveredAt + 1
	ack.length = e.cfg.AckLength
	ack.wavelength = e.waveAt(tr, len(tr.links)-1)
	ack.rank = tr.rank
	ack.band = AckBand
	e.addTrain(ack)
}

// loseEntrant handles an entrant that lost its conflict: it is deferred
// for a wavelength-conversion attempt when the router at the link's tail
// supports conversion, and cut otherwise.
//
//optlint:hotpath
func (e *Engine) loseEntrant(f *fragment, idx, t int, blocker *train) {
	if e.cfg.Conversion != nil && e.cfg.Bandwidth > 1 &&
		e.cfg.Conversion(e.g.Link(int(f.t.links[idx])).From) {
		e.pendConv = append(e.pendConv, convAttempt{f: f, idx: idx, blocker: blocker})
		return
	}
	e.cutEntrant(f, idx, t, blocker)
}

// cutEntrant handles a fragment whose head flit was eliminated while
// entering links[idx].
//
//optlint:hotpath
func (e *Engine) cutEntrant(f *fragment, idx, t int, blocker *train) {
	e.recordCut(f, idx, t, blocker)
	jCut := int(f.jMin) // the entering flit is the fragment's head
	e.split(f, idx, jCut, t, false)
}

// cutIncumbent handles a fragment preempted (Priority rule) at links[idx],
// which it currently occupies.
//
//optlint:hotpath
func (e *Engine) cutIncumbent(f *fragment, idx, t int, blocker *train) {
	e.recordCut(f, idx, t, blocker)
	jCut := t - f.t.start - idx
	e.split(f, idx, jCut, t, true)
}

//optlint:hotpath
func (e *Engine) recordCut(f *fragment, idx, t int, blocker *train) {
	tr := f.t
	tr.cut = true
	e.res.CollisionCount++
	if e.probe != nil {
		e.probe.WormCut(t, int(tr.band), int(tr.links[idx]), e.waveAt(tr, idx), tr.id, tr.isAck)
	}
	out := &e.res.Outcomes[tr.outIdx]
	if tr.isAck {
		if out.AckCutTime < 0 {
			out.AckCutLink = idx
			out.AckCutTime = t
		}
	} else if out.CutTime < 0 {
		out.CutLink = idx
		out.CutTime = t
	}
	if e.cfg.RecordCollisions {
		e.res.Collisions = append(e.res.Collisions, Collision{
			Time:       t,
			Link:       int(tr.links[idx]),
			Wavelength: e.waveAt(tr, idx),
			Band:       tr.band,
			Loser:      tr.id,
			Blocker:    blocker.id,
			LoserIsAck: tr.isAck,
		})
	}
}

// split applies a cut at path index cutIdx destroying flit jCut. When
// occupiedCut is true the fragment currently occupies links[cutIdx] (a
// preempted incumbent); its occupancy there is surrendered to the caller.
//
//optlint:hotpath
func (e *Engine) split(f *fragment, cutIdx, jCut, t int, occupiedCut bool) {
	f.gone = true
	if e.probe != nil {
		e.probe.FragmentSplit(t, f.t.id)
	}
	if e.cfg.Wreckage == Vanish {
		// Drop all occupancy instantly.
		limit := f.limit()
		hi := f.hi(t)
		if hi > limit {
			hi = limit
		}
		for i := int(f.relUpTo); i <= hi; i++ {
			if occupiedCut && i == cutIdx {
				continue // the winner takes this slot
			}
			e.delOcc(e.fragKey(f, i), f)
		}
		f.headChild = nil
		return
	}

	// Drain policy: ghost ahead of the cut, remnant behind it.
	if jCut > int(f.jMin) {
		ghost := e.arena.newFrag(f.t, int(f.jMin), jCut-1, int(f.barrier), cutIdx+1)
		if ghost.relUpTo < f.relUpTo {
			ghost.relUpTo = f.relUpTo
		}
		if ghost.lo(t) <= ghost.limit() {
			e.reassign(f, ghost, int(ghost.relUpTo), minInt(ghost.hi(t), ghost.limit()))
			e.active = append(e.active, ghost)
			f.headChild = ghost
		} else {
			ghost.gone = true
			e.complete(ghost, t)
			f.headChild = nil
		}
	} else {
		f.headChild = nil
	}
	if jCut < int(f.jMax) {
		rem := e.arena.newFrag(f.t, jCut+1, int(f.jMax), cutIdx, int(f.relUpTo))
		if rem.lo(t) <= rem.limit() {
			e.reassign(f, rem, maxInt(int(rem.relUpTo), maxInt(rem.lo(t), 0)), rem.limit())
			e.active = append(e.active, rem)
		}
	}
	// Any occupancy entry still pointing at f (in particular links[cutIdx]
	// when the cut flit was an occupant and no winner replaces it) must go.
	limit := f.limit()
	hi := f.hi(t)
	if hi > limit {
		hi = limit
	}
	for i := int(f.relUpTo); i <= hi; i++ {
		e.delOcc(e.fragKey(f, i), f)
	}
}

// reassign moves occupancy entries for links [from, to] from old to nw.
//
//optlint:hotpath
func (e *Engine) reassign(old, nw *fragment, from, to int) {
	if from < 0 {
		from = 0
	}
	for i := from; i <= to; i++ {
		k := e.fragKey(old, i)
		if e.occ[k].fi == old.self {
			e.occ[k] = occupant{fi: nw.self, idx: int32(i)}
		}
	}
}

func minInt(a, b int) int {
	if a < b {
		return a
	}
	return b
}

func maxInt(a, b int) int {
	if a > b {
		return a
	}
	return b
}

// checkInvariants validates the packed occupancy words against the
// fragment windows after a step. Only used in tests.
//
// The bit words are the authority for slot business, so the walk goes
// bit-first: every set bit must map to a coherent occupant entry and the
// popcount totals must match the tracked counters. The reverse direction
// — every live fragment owns exactly its entered, unreleased window,
// with matching cached claim key and a filled conversion entry — is
// checked as well; the old table walk could not see a claim the engine
// lost track of (a tr.keys/occupant disagreement reads as a free slot
// there), which let key-mismatch bugs pass silently.
func (e *Engine) checkInvariants(t int) error {
	count, msgCount := 0, 0
	for wi, w := range e.occBits {
		for w != 0 {
			b := bits.TrailingZeros64(w)
			w &= w - 1
			k := wi<<e.wordShift | b
			count++
			if k < e.msgSlots {
				msgCount++
			}
			oc := e.occ[k]
			if oc.fi < 0 || int(oc.fi) >= e.arena.nextFrag {
				return fmt.Errorf("sim: step %d: occupied bit for slot %d has no occupant entry", t, k)
			}
			f := e.fragAt(oc.fi)
			if f.gone {
				return fmt.Errorf("sim: step %d: occupancy points at a gone fragment (worm %d)", t, f.t.id)
			}
			lo := maxInt(f.lo(t), 0)
			hi := minInt(f.hi(t), f.limit())
			if int(oc.idx) < lo || int(oc.idx) > hi {
				return fmt.Errorf("sim: step %d: worm %d occupies link index %d outside window [%d,%d]",
					t, f.t.id, oc.idx, lo, hi)
			}
			if int(f.t.keys[oc.idx]) != k {
				return fmt.Errorf("sim: step %d: worm %d cached claim key disagrees with occupancy at link index %d",
					t, f.t.id, oc.idx)
			}
			if e.fragKey(f, int(oc.idx)) != k {
				return fmt.Errorf("sim: step %d: occupancy key mismatch for worm %d", t, f.t.id)
			}
			if len(f.t.waves) > 0 && f.t.waves[oc.idx] < 0 {
				return fmt.Errorf("sim: step %d: worm %d occupies link index %d with an unfilled conversion entry",
					t, f.t.id, oc.idx)
			}
		}
	}
	if count != e.occCount {
		return fmt.Errorf("sim: step %d: occupied-slot count %d != tracked %d", t, count, e.occCount)
	}
	if msgCount != e.occMsg {
		return fmt.Errorf("sim: step %d: message-band slot count %d != tracked %d", t, msgCount, e.occMsg)
	}
	// Reverse direction: every live fragment owns exactly its entered,
	// unreleased window, and the totals agree with the popcount above.
	want := 0
	for _, f := range e.active {
		if f.gone {
			continue
		}
		lo := maxInt(int(f.relUpTo), 0)
		hi := minInt(f.hi(t), f.limit())
		for i := lo; i <= hi; i++ {
			k := int(f.t.keys[i])
			if e.occBits[k>>e.wordShift]&(1<<uint(k&e.wordMask)) == 0 {
				return fmt.Errorf("sim: step %d: worm %d has no occupancy bit at link index %d", t, f.t.id, i)
			}
			if oc := e.occ[k]; oc.fi != f.self || int(oc.idx) != i {
				return fmt.Errorf("sim: step %d: worm %d does not own its claimed slot at link index %d", t, f.t.id, i)
			}
			want++
		}
	}
	if want != e.occCount {
		return fmt.Errorf("sim: step %d: live fragments own %d slots, tracked %d", t, want, e.occCount)
	}
	// The dark mask must mirror the wavelength-outage counters exactly —
	// and be empty when no schedule is attached.
	if fl := e.flt; fl != nil {
		for k, c := range fl.slotDark {
			bit := e.darkBits[k>>e.wordShift]&(1<<uint(k&e.wordMask)) != 0
			if (c > 0) != bit {
				return fmt.Errorf("sim: step %d: dark bit for slot %d disagrees with outage counter %d", t, k, c)
			}
		}
	} else {
		for _, w := range e.darkBits {
			if w != 0 {
				return fmt.Errorf("sim: step %d: dark bits set without a fault schedule", t)
			}
		}
	}
	// Fragments of one train must not overlap in flit ranges. Trains are
	// regrouped in first-seen order (slice + membership map) so this check
	// — and any error it reports — is deterministic by construction; a
	// pointer-keyed map range here would visit trains in random order.
	byTrain := make(map[*train][]*fragment)
	var trains []*train
	for _, f := range e.active {
		if f.gone {
			continue
		}
		if _, ok := byTrain[f.t]; !ok {
			trains = append(trains, f.t)
		}
		byTrain[f.t] = append(byTrain[f.t], f)
	}
	for _, tr := range trains {
		fs := byTrain[tr]
		for a := 0; a < len(fs); a++ {
			for b := a + 1; b < len(fs); b++ {
				if fs[a].jMin <= fs[b].jMax && fs[b].jMin <= fs[a].jMax {
					return fmt.Errorf("sim: step %d: worm %d has overlapping fragments", t, tr.id)
				}
			}
		}
	}
	return nil
}
