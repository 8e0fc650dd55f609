package sim

// arenaChunk is the slab size of the train and fragment pools; a power of
// two so the index split below is a shift and a mask.
const (
	arenaChunkShift = 8
	arenaChunk      = 1 << arenaChunkShift
)

// arena pools trains and fragments within and across runs of one Engine,
// so the slots a run touches follow its live work, not its total work.
// A fragment returns to the free list when the active-list walk drops it
// (or, for wreckage that never activates, when split discards it), and a
// train returns when its last fragment does; allocation pops the free
// list before bumping into fresh slots. This is one allocator for batch
// and dynamic runs alike: a round's completed messages make room for its
// acks, and a dynamic run that launches 600k attempts cycles through a few
// tens of thousands of slots. reset drops the free lists and rewinds the
// bump cursors, so a steady-state round allocates nothing.
//
// Objects live in fixed-size slabs: a handed-out pointer stays valid for
// the Engine's lifetime (slabs are appended, never reallocated), and a
// fragment's slab index is its identity in the occupancy table. Ack link,
// wavelength and key slices keep their capacity across recycles.
type arena struct {
	trainSlabs [][]train
	nextTrain  int // trains ever bumped since reset: the high-water mark
	freeTrains []*train
	fragSlabs  [][]fragment
	nextFrag   int // fragments ever bumped since reset: the high-water mark
	freeFrags  []int32
}

// reset recycles every object handed out since the previous reset.
func (a *arena) reset() {
	a.nextTrain = 0
	a.nextFrag = 0
	a.freeTrains = a.freeTrains[:0]
	a.freeFrags = a.freeFrags[:0]
}

// newTrain returns a recycled train whose ackLinks/waves/keys buffers keep
// their previously grown capacity. Fields are NOT zeroed: every spawn site
// (the Run worm loop, the ack spawn in complete, the dynamic launcher)
// assigns links and the scalars before addTrain, and addTrain reslices
// waves and sizes keys. Only the fields no site writes unconditionally
// are reset.
//
//optlint:hotpath
func (a *arena) newTrain() *train {
	var tr *train
	if n := len(a.freeTrains); n > 0 {
		tr = a.freeTrains[n-1]
		a.freeTrains = a.freeTrains[:n-1]
	} else {
		ci, si := a.nextTrain>>arenaChunkShift, a.nextTrain&(arenaChunk-1)
		if ci == len(a.trainSlabs) {
			//optlint:allow hotpath slab growth: amortized over arenaChunk allocations, none in steady state
			a.trainSlabs = append(a.trainSlabs, make([]train, arenaChunk))
		}
		tr = &a.trainSlabs[ci][si]
		a.nextTrain++
	}
	tr.isAck = false
	tr.cut = false
	tr.frags = 0
	return tr
}

// newFrag returns an initialized fragment of train t. The largest usable
// link index is fixed here (the barrier never moves after creation), so
// hot loops read f.lim instead of recomputing it.
//
//optlint:hotpath
func (a *arena) newFrag(t *train, jMin, jMax, barrier, relUpTo int) *fragment {
	var self int32
	if n := len(a.freeFrags); n > 0 {
		self = a.freeFrags[n-1]
		a.freeFrags = a.freeFrags[:n-1]
	} else {
		ci := a.nextFrag >> arenaChunkShift
		if ci == len(a.fragSlabs) {
			//optlint:allow hotpath slab growth: amortized over arenaChunk allocations, none in steady state
			a.fragSlabs = append(a.fragSlabs, make([]fragment, arenaChunk))
		}
		self = int32(a.nextFrag)
		a.nextFrag++
	}
	f := &a.fragSlabs[self>>arenaChunkShift][self&(arenaChunk-1)]
	lim := len(t.links) - 1
	if barrier < len(t.links) {
		lim = barrier - 1
	}
	*f = fragment{t: t, start: int32(t.start), jMin: int32(jMin), jMax: int32(jMax),
		barrier: int32(barrier), relUpTo: int32(relUpTo), lim: int32(lim), self: self}
	t.frags++
	return f
}

// retire returns fragment f to the free list, and its train with it when f
// was the train's last fragment. The caller guarantees nothing refers to f
// any more: it is gone (or never activated), owns no occupancy bit, and
// no pending entry or conversion attempt of this step names it.
//
//optlint:hotpath
func (a *arena) retire(f *fragment) {
	tr := f.t
	tr.frags--
	if tr.frags == 0 {
		a.freeTrains = append(a.freeTrains, tr)
	}
	a.freeFrags = append(a.freeFrags, f.self)
}
