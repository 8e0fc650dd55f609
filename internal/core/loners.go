package core

import (
	"repro/internal/paths"
	"repro/internal/sim"
)

// crowd is the most paths a link may carry for its users to be marked
// alone; a path crossing a more crowded link is always stepped. Checking
// such a path would pair it with every active user of that link each
// round: without the rule, E8 (seed 1, full size, whose 2,048-node chain
// has links with hundreds of paths) took 3.7–6.0 s a pass instead of
// 0.43–0.59 s on a 2-core host. 16 is well above the loads of the sparse
// workloads the closed form pays on: the kernel-sparse torus has at most
// 7 paths on a link.
const crowd = 16

// lonerMarks holds the scratch of mark, reused across the rounds of one
// protocol run.
type lonerMarks struct {
	slot []int32   // slot[idx]: idx's place in the round's batch, -1 when inactive
	met  []bool    // met[i]: batch worm i is known to meet another
	draw []lonerAt // draw[i]: batch worm i's timing, packed for the walks
	// The round's worm and acknowledgement lengths: two heads closer than
	// these meet.
	length, ackLen int32
}

// lonerAt is what the meeting test reads of one worm: its delay d, d+2k
// for its k-hop route, and its wavelength.
type lonerAt struct{ d, ack, wave int32 }

func newLonerMarks(n int) *lonerMarks {
	m := &lonerMarks{slot: make([]int32, n), met: make([]bool, n), draw: make([]lonerAt, n)}
	for i := range m.slot {
		m.slot[i] = -1
	}
	return m
}

// mark sets Alone on every worm of the round's batch that meets no other
// (sim.Worm.Alone): worms[i] routes collection path active[i] with its
// drawn delay and wavelength, and length and ackLen are the worm and
// acknowledgement lengths. Two worms meet on a link they share and a
// wavelength when their head entries, d+p at hop p, differ by less than
// length, or their acknowledgements' entries, d+2k+L-2-p on a k-hop
// route, differ by less than ackLen. A worm on a crowded link or with a
// revisiting route is never marked.
//
// The pairs come from one of two walks, whichever reads less: the shared
// links, each with its active users paired up, or the routes of the
// active worms, each compared with its links' other active users. The
// first costs the same every round; the second follows the active set,
// which shrinks geometrically after the first round.
func (m *lonerMarks) mark(x *paths.LinkIndex, active []int, worms []sim.Worm, length, ackLen int) {
	m.length, m.ackLen = int32(length), int32(ackLen)
	hops := 0
	for i, idx := range active {
		w := &worms[i]
		m.slot[idx] = int32(i)
		m.draw[i] = lonerAt{int32(w.Delay), int32(w.Delay + 2*w.Route.Len()), int32(w.Wavelength)}
		hops += w.Route.Len()
	}
	if hops < len(x.SharedLinks()) {
		m.walkRoutes(x, active, worms)
	} else {
		m.walkShared(x)
	}
	for i, idx := range active {
		if !m.met[i] && x.Load(idx) <= crowd && !worms[i].Route.Revisits() {
			worms[i].Alone = true
		}
		m.slot[idx] = -1
		m.met[i] = false
	}
}

// walkShared pairs up the active users of every shared link that is not
// crowded and records the pairs that meet.
func (m *lonerMarks) walkShared(x *paths.LinkIndex) {
	for _, l := range x.SharedLinks() {
		users := x.Users(int(l))
		if len(users) > crowd {
			continue
		}
		pos := x.Positions(int(l))
		for a, u := range users {
			i := m.slot[u]
			if i < 0 {
				continue
			}
			for b := a + 1; b < len(users); b++ {
				if j := m.slot[users[b]]; j >= 0 && j != i && m.meet(i, int32(pos[a]), j, int32(pos[b])) {
					m.met[i], m.met[j] = true, true
				}
			}
		}
	}
}

// walkRoutes compares each active worm not yet known to meet another with
// the other active users of its links, up to the first it meets.
func (m *lonerMarks) walkRoutes(x *paths.LinkIndex, active []int, worms []sim.Worm) {
	for i, idx := range active {
		if m.met[i] || x.Load(idx) > crowd {
			continue
		}
	links:
		for p, l := range worms[i].Route.Links() {
			users := x.Users(int(l))
			if len(users) == 1 {
				continue
			}
			pos := x.Positions(int(l))
			for u, v := range users {
				if j := m.slot[v]; j >= 0 && int(v) != idx && m.meet(int32(i), int32(p), j, int32(pos[u])) {
					m.met[i], m.met[j] = true, true
					break links
				}
			}
		}
	}
}

// meet reports whether batch worms i and j, which cross one link at hops
// p and q, meet there. Without acknowledgements ackLen is 0 and the
// second test never holds.
func (m *lonerMarks) meet(i, p, j, q int32) bool {
	a, b := &m.draw[i], &m.draw[j]
	return a.wave == b.wave && (abs(a.d+p-b.d-q) < m.length || abs(a.ack-p-b.ack+q) < m.ackLen)
}

func abs(x int32) int32 {
	if x < 0 {
		return -x
	}
	return x
}
