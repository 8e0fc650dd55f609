package baseline

import (
	"fmt"
	"sort"

	"repro/internal/graph"
	"repro/internal/paths"
)

// Buffered wormhole routing is the second electronic reference point: the
// worm pipelines through the network like the optical protocol's worms,
// but a blocked head STALLS in place — its flits wait in per-router
// buffers and the worm keeps its links — instead of being eliminated.
// Stalling requires buffering and flow control (the electrical-domain
// machinery the paper's all-optical routers avoid) and is only
// deadlock-free for acyclic channel dependencies, e.g. dimension-order
// routing on meshes; the simulator detects deadlocks and reports them.
//
// Timing model: a worm advances one link per step while its next link has
// a free channel (B channels per directed link; electronic routers can
// reassign channels per hop). Released capacity becomes available on the
// following step, so back-to-back worms travel with one-step bubbles.
// Arbitration per link is FIFO by stall time, ties by path index.

// WormholeResult aggregates a buffered-wormhole run.
type WormholeResult struct {
	Outcomes []Outcome
	Makespan int
	// Deadlocked lists the paths (by index) whose worms were caught in a
	// cyclic wait when the run stopped making progress (empty = all
	// delivered).
	Deadlocked []int
}

// RunWormhole simulates buffered wormhole routing of one worm of the
// given length along every path of the collection, all released at step
// 0, over bandwidth channels per directed link.
func RunWormhole(c *paths.Collection, length, bandwidth int) (*WormholeResult, error) {
	if err := checkParams(length, bandwidth); err != nil {
		return nil, err
	}
	maxSteps := 64
	for i := range c.Size() {
		maxSteps += 4 * (c.Route(i).Len() + length)
	}

	type state struct {
		links     []int32
		p         int // advancement count; -1 = not injected
		waitSince int
		done      bool
	}
	sts := make([]*state, c.Size())
	busy := make(map[graph.LinkID]int)
	res := &WormholeResult{Outcomes: make([]Outcome, c.Size())}
	for i := range sts {
		sts[i] = &state{links: c.Route(i).Links(), p: -1}
		res.Outcomes[i] = Outcome{DeliveredAt: -1}
	}

	pending := c.Size()
	idleSteps := 0
	for t := 0; pending > 0; t++ {
		if t > maxSteps {
			return nil, fmt.Errorf("baseline: wormhole exceeded %d steps (internal bug guard)", maxSteps)
		}
		// Collect this step's link-entry requests and unconditional
		// (draining) advances.
		type request struct {
			idx  int
			link graph.LinkID
		}
		var requests []request
		var draining []int
		for i, st := range sts {
			if st.done {
				continue
			}
			k := len(st.links)
			next := st.p + 1
			if next < k {
				requests = append(requests, request{idx: i, link: int(st.links[next])})
			} else {
				draining = append(draining, i)
			}
		}
		// Group by link; grant FIFO by (waitSince, id) within capacity.
		byLink := make(map[graph.LinkID][]int)
		for _, r := range requests {
			byLink[r.link] = append(byLink[r.link], r.idx)
		}
		linkIDs := make([]graph.LinkID, 0, len(byLink))
		for l := range byLink {
			linkIDs = append(linkIDs, l)
		}
		sort.Ints(linkIDs)
		moved := 0
		var releases []graph.LinkID
		advance := func(i int) {
			st := sts[i]
			st.p++
			moved++
			// Tail leaves link p-length (if it is a real link index).
			if tail := st.p - length; tail >= 0 && tail < len(st.links) {
				releases = append(releases, int(st.links[tail]))
			}
			if st.p == len(st.links)+length-2 {
				st.done = true
				// The tail exits the last link as the worm completes.
				releases = append(releases, int(st.links[len(st.links)-1]))
				res.Outcomes[i].DeliveredAt = t
				if t > res.Makespan {
					res.Makespan = t
				}
				pending--
			}
		}
		for _, l := range linkIDs {
			waiters := byLink[l]
			sort.Slice(waiters, func(a, b int) bool {
				wa, wb := sts[waiters[a]], sts[waiters[b]]
				if wa.waitSince != wb.waitSince {
					return wa.waitSince < wb.waitSince
				}
				return waiters[a] < waiters[b]
			})
			free := bandwidth - busy[l]
			for _, i := range waiters {
				if free <= 0 {
					sts[i].waitSince = min(sts[i].waitSince, t)
					continue
				}
				free--
				busy[l]++
				advance(i)
				sts[i].waitSince = t + 1
			}
		}
		for _, i := range draining {
			advance(i)
		}
		// Releases become visible next step (the bubble).
		for _, l := range releases {
			busy[l]--
		}
		// Deadlock detection: two consecutive steps without any movement
		// while work remains (bubbles clear within one step).
		if moved == 0 && pending > 0 {
			idleSteps++
			if idleSteps >= 2 {
				for i, st := range sts {
					if !st.done {
						res.Deadlocked = append(res.Deadlocked, i)
					}
				}
				return res, nil
			}
		} else {
			idleSteps = 0
		}
	}
	return res, nil
}
