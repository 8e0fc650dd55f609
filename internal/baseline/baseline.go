// Package baseline implements the electronic store-and-forward router the
// paper's introduction positions all-optical routing against: messages
// are converted to electrical form at every hop, so they can be buffered
// in per-link output queues and never eliminated. The price the paper
// avoids is the conversion overhead and the per-hop serialization — a
// message of L flits takes L steps per link instead of pipelining
// wormhole-style — plus unbounded buffer memory.
//
// The simulator is deliberately simple and deterministic: per directed
// link there are B wavelength channels; each channel carries one message
// at a time for L steps; waiting messages queue FIFO at the link. It
// provides the reference times for experiment E16 (optical
// trial-and-failure vs buffered electronic routing).
package baseline

import (
	"fmt"
	"sort"

	"repro/internal/graph"
	"repro/internal/paths"
)

// Outcome reports one message's fate.
type Outcome struct {
	DeliveredAt int // step at which the last flit reached the destination
	MaxQueued   int // most messages ever waiting with it at one link
}

// Result aggregates a run.
type Result struct {
	Outcomes []Outcome
	// Makespan is the delivery time of the last message.
	Makespan int
	// PeakQueue is the largest queue length observed at any link.
	PeakQueue int
}

// checkParams refuses a message length or a bandwidth the routers
// cannot model. Both electronic routers share it; the collection checked
// the paths when it was made.
func checkParams(length, bandwidth int) error {
	if bandwidth < 1 {
		return fmt.Errorf("baseline: bandwidth %d < 1", bandwidth)
	}
	if length < 1 {
		return fmt.Errorf("baseline: message length %d < 1", length)
	}
	return nil
}

// Run simulates the store-and-forward routing of one message of the
// given length along every path of the collection, all released at step
// 0, over bandwidth channels per directed link. Every message is
// eventually delivered (buffers are unbounded), so only the timing is in
// question. Arbitration is FIFO per link with ties broken by path index,
// making runs deterministic.
func Run(c *paths.Collection, length, bandwidth int) (*Result, error) {
	if err := checkParams(length, bandwidth); err != nil {
		return nil, err
	}
	// Every (link, message) transfer takes length steps and at least one
	// transfer completes per busy step per link; a loose but safe bound
	// is the total serialized work.
	maxSteps := 16
	for i := range c.Size() {
		maxSteps += c.Route(i).Len() * length
	}

	type job struct {
		idx int // path index, and index into outcomes
		hop int // next link index to traverse
	}
	// queues[link] = FIFO of jobs waiting for a channel.
	queues := make(map[graph.LinkID][]job)
	// busyUntil[link] = per-channel completion times.
	busy := make(map[graph.LinkID][]int)
	// completions[t] = jobs whose current transfer finishes at t.
	completions := make(map[int][]job)

	res := &Result{Outcomes: make([]Outcome, c.Size())}
	for i := range res.Outcomes {
		res.Outcomes[i] = Outcome{DeliveredAt: -1}
		completions[0] = append(completions[0], job{idx: i, hop: 0})
	}

	pending := c.Size()
	for t := 0; pending > 0; t++ {
		if t > maxSteps {
			return nil, fmt.Errorf("baseline: exceeded %d steps (internal bug guard)", maxSteps)
		}
		// 1. Jobs arriving at their next queue (released or finished a hop).
		if js, ok := completions[t]; ok {
			for _, j := range js {
				links := c.Route(j.idx).Links()
				if j.hop >= len(links) {
					res.Outcomes[j.idx].DeliveredAt = t
					if t > res.Makespan {
						res.Makespan = t
					}
					pending--
					continue
				}
				l := int(links[j.hop])
				queues[l] = append(queues[l], j)
				if q := len(queues[l]); q > res.PeakQueue {
					res.PeakQueue = q
				}
				if q := len(queues[l]); q > res.Outcomes[j.idx].MaxQueued {
					res.Outcomes[j.idx].MaxQueued = q
				}
			}
			delete(completions, t)
		}
		// 2. Assign free channels to queued jobs, FIFO per link; links are
		// processed in sorted order so the run is deterministic.
		linkIDs := make([]graph.LinkID, 0, len(queues))
		for l := range queues {
			linkIDs = append(linkIDs, l)
		}
		sort.Ints(linkIDs)
		for _, l := range linkIDs {
			q := queues[l]
			if len(q) == 0 {
				continue
			}
			ch := busy[l]
			if ch == nil {
				ch = make([]int, bandwidth)
				busy[l] = ch
			}
			for k := 0; k < bandwidth && len(q) > 0; k++ {
				if ch[k] > t {
					continue
				}
				j := q[0]
				q = q[1:]
				done := t + length
				ch[k] = done
				completions[done] = append(completions[done], job{idx: j.idx, hop: j.hop + 1})
			}
			if len(q) == 0 {
				delete(queues, l)
			} else {
				queues[l] = q
			}
		}
	}
	return res, nil
}
