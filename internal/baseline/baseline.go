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

// Message is one store-and-forward routing job.
type Message struct {
	// ID identifies the message; IDs must be distinct and >= 0.
	ID int
	// Path is the fixed route.
	Path graph.Path
	// Length is L >= 1 flits; each hop takes Length steps of link time.
	Length int
	// Release is the step at which the message becomes available.
	Release int
}

// Config parameterizes a store-and-forward run.
type Config struct {
	// Bandwidth is the number of parallel channels per directed link.
	Bandwidth int
	// MaxSteps bounds the simulation (0 derives a generous bound).
	MaxSteps int
}

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

// check validates the bandwidth and the messages of a run, resolving each
// message's path through the graph's route check, and returns the paths'
// links and the latest release step. Both electronic routers share it.
func check(g *graph.Graph, msgs []Message, cfg Config) (links [][]int32, maxRelease int, err error) {
	if cfg.Bandwidth < 1 {
		return nil, 0, fmt.Errorf("baseline: bandwidth %d < 1", cfg.Bandwidth)
	}
	seen := make(map[int]bool, len(msgs))
	links = make([][]int32, len(msgs))
	var table []int32
	for i, m := range msgs {
		if m.ID < 0 || seen[m.ID] {
			return nil, 0, fmt.Errorf("baseline: message %d has invalid or duplicate ID %d", i, m.ID)
		}
		seen[m.ID] = true
		r, next, err := g.AppendRoute(table, m.Path)
		if err != nil {
			return nil, 0, fmt.Errorf("baseline: message %d: %w", m.ID, err)
		}
		table, links[i] = next, r.Links()
		if m.Length < 1 || m.Release < 0 {
			return nil, 0, fmt.Errorf("baseline: message %d has invalid parameters", m.ID)
		}
		maxRelease = max(maxRelease, m.Release)
	}
	return links, maxRelease, nil
}

// Run simulates the store-and-forward routing of all messages. Every
// message is eventually delivered (buffers are unbounded), so only the
// timing is in question. Arbitration is FIFO per link with ties broken by
// message ID, making runs deterministic.
func Run(g *graph.Graph, msgs []Message, cfg Config) (*Result, error) {
	links, maxRelease, err := check(g, msgs, cfg)
	if err != nil {
		return nil, err
	}
	totalHops := 0
	for i, m := range msgs {
		totalHops += len(links[i]) * m.Length
	}
	maxSteps := cfg.MaxSteps
	if maxSteps == 0 {
		// Every (link, message) transfer takes Length steps and at least
		// one transfer completes per busy step per link; a loose but safe
		// bound is release horizon + total serialized work.
		maxSteps = maxRelease + totalHops + 16
	}

	type job struct {
		idx int // index into msgs / outcomes
		hop int // next link index to traverse
	}
	// queues[link] = FIFO of jobs waiting for a channel.
	queues := make(map[graph.LinkID][]job)
	// busyUntil[link] = per-channel completion times.
	busy := make(map[graph.LinkID][]int)
	// completions[t] = jobs whose current transfer finishes at t.
	completions := make(map[int][]job)

	res := &Result{Outcomes: make([]Outcome, len(msgs))}
	for i := range res.Outcomes {
		res.Outcomes[i] = Outcome{DeliveredAt: -1}
	}
	for i, m := range msgs {
		completions[m.Release] = append(completions[m.Release], job{idx: i, hop: 0})
	}

	pending := len(msgs)
	for t := 0; pending > 0; t++ {
		if t > maxSteps {
			return nil, fmt.Errorf("baseline: exceeded %d steps (internal bug guard)", maxSteps)
		}
		// 1. Jobs arriving at their next queue (released or finished a hop).
		if js, ok := completions[t]; ok {
			for _, j := range js {
				if j.hop >= len(links[j.idx]) {
					res.Outcomes[j.idx].DeliveredAt = t
					if t > res.Makespan {
						res.Makespan = t
					}
					pending--
					continue
				}
				l := int(links[j.idx][j.hop])
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
				ch = make([]int, cfg.Bandwidth)
				busy[l] = ch
			}
			for c := 0; c < cfg.Bandwidth && len(q) > 0; c++ {
				if ch[c] > t {
					continue
				}
				j := q[0]
				q = q[1:]
				done := t + msgs[j.idx].Length
				ch[c] = done
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

// RunCollection routes one message of the given length along every path
// of the collection, all released at step 0.
func RunCollection(c *paths.Collection, length, bandwidth int) (*Result, error) {
	msgs := make([]Message, c.Size())
	for i := range msgs {
		msgs[i] = Message{ID: i, Path: c.Path(i), Length: length}
	}
	return Run(c.Graph(), msgs, Config{Bandwidth: bandwidth})
}
