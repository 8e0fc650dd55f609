// Package optical models the component level of the paper's routers:
// wavelength-selective switches (elementary and generalized, Figure 2),
// couplers with the serve-first and priority contention rules (Section 1),
// and routers composed from them (the 2x2 router of Figure 1 and the
// switchless and elementary routers of Figure 3).
//
// The network simulator (package sim) uses the same Rule semantics at the
// granularity of directed links; this package grounds those semantics at
// the device level and carries the unit tests for experiments F1-F3.
package optical

import "fmt"

// Rule selects the coupler's contention-resolution behaviour.
type Rule int

const (
	// ServeFirst eliminates an arriving message whose wavelength is
	// already in use by a message traversing the coupler.
	ServeFirst Rule = iota
	// Priority forwards the message with the highest priority and
	// suspends (discards) the others.
	Priority
)

// String returns "serve-first" or "priority".
func (r Rule) String() string {
	switch r {
	case ServeFirst:
		return "serve-first"
	case Priority:
		return "priority"
	default:
		return fmt.Sprintf("Rule(%d)", int(r))
	}
}

// ParseRule returns the rule whose String is name, the inverse of String.
func ParseRule(name string) (Rule, error) {
	for _, r := range []Rule{ServeFirst, Priority} {
		if r.String() == name {
			return r, nil
		}
	}
	return 0, fmt.Errorf("optical: unknown rule %q (want serve-first or priority)", name)
}

// TiePolicy decides what happens when two or more messages arrive at a
// free wavelength in the very same time slot under the serve-first rule
// (physically: both signals enter the coupler and garble each other).
type TiePolicy int

const (
	// TieEliminateAll destroys all simultaneously arriving messages on
	// the contested wavelength (the physically conservative default).
	TieEliminateAll TiePolicy = iota
	// TieArbitraryWinner lets the arrival with the smallest worm ID
	// survive; the choice is arbitrary but deterministic.
	TieArbitraryWinner
)

// Signal is one message's presence on a wavelength, as seen by a coupler.
type Signal struct {
	Wavelength int // in [0, bandwidth)
	WormID     int // identity of the worm carrying the signal
	Rank       int // priority rank; higher wins under the Priority rule
}

// Coupler combines the signals of several incoming fibers onto one
// outgoing fiber, resolving wavelength contention according to its Rule.
// It tracks which wavelengths are currently occupied.
type Coupler struct {
	rule      Rule
	tie       TiePolicy
	bandwidth int
	occupant  []*Signal // per wavelength; nil when free
}

// NewCoupler returns a coupler with the given bandwidth and rule, using
// TieEliminateAll. It panics if bandwidth < 1.
func NewCoupler(bandwidth int, rule Rule) *Coupler {
	if bandwidth < 1 {
		panic("optical: coupler needs bandwidth >= 1")
	}
	return &Coupler{rule: rule, bandwidth: bandwidth, occupant: make([]*Signal, bandwidth)}
}

// SetTiePolicy changes the simultaneous-arrival policy.
func (c *Coupler) SetTiePolicy(p TiePolicy) { c.tie = p }

// Rule returns the coupler's contention rule.
func (c *Coupler) Rule() Rule { return c.rule }

// Bandwidth returns the number of wavelengths the coupler handles.
func (c *Coupler) Bandwidth() int { return c.bandwidth }

// Occupant returns the signal currently using the wavelength, or nil.
func (c *Coupler) Occupant(wavelength int) *Signal {
	c.checkWavelength(wavelength)
	return c.occupant[wavelength]
}

// Release frees the wavelength (the occupant's last flit has passed).
func (c *Coupler) Release(wavelength int) {
	c.checkWavelength(wavelength)
	c.occupant[wavelength] = nil
}

func (c *Coupler) checkWavelength(w int) {
	if w < 0 || w >= c.bandwidth {
		panic(fmt.Sprintf("optical: wavelength %d out of [0,%d)", w, c.bandwidth))
	}
}

// Arrive presents one arriving signal to the coupler. It returns whether
// the signal was accepted (becomes or stays the occupant of its
// wavelength) and, under the Priority rule, the previous occupant if it
// was preempted. Under ServeFirst an occupied wavelength always eliminates
// the arrival. Under Priority the higher rank wins; the incumbent wins
// rank ties (the paper requires that equal-rank worms never meet, so the
// tie-break only matters for defensive determinism).
func (c *Coupler) Arrive(s Signal) (accepted bool, preempted *Signal) {
	c.checkWavelength(s.Wavelength)
	cur := c.occupant[s.Wavelength]
	if cur == nil {
		sCopy := s
		c.occupant[s.Wavelength] = &sCopy
		return true, nil
	}
	switch c.rule {
	case ServeFirst:
		return false, nil
	case Priority:
		if s.Rank > cur.Rank {
			sCopy := s
			c.occupant[s.Wavelength] = &sCopy
			return true, cur
		}
		return false, nil
	default:
		panic(fmt.Sprintf("optical: unknown rule %d", c.rule))
	}
}

// ArriveSimultaneous presents a batch of signals arriving in the same time
// slot. It returns the accepted signals and the eliminated ones (including
// preempted incumbents). Under ServeFirst, a contested free wavelength is
// resolved by the coupler's TiePolicy; an occupied wavelength eliminates
// all arrivals. Under Priority, the maximum rank among arrivals and the
// incumbent wins.
func (c *Coupler) ArriveSimultaneous(batch []Signal) (accepted, eliminated []Signal) {
	byWave := make(map[int][]Signal)
	for _, s := range batch {
		c.checkWavelength(s.Wavelength)
		byWave[s.Wavelength] = append(byWave[s.Wavelength], s)
	}
	for w, group := range byWave {
		cur := c.occupant[w]
		switch c.rule {
		case ServeFirst:
			if cur != nil {
				eliminated = append(eliminated, group...)
				continue
			}
			if len(group) == 1 {
				g := group[0]
				c.occupant[w] = &g
				accepted = append(accepted, g)
				continue
			}
			switch c.tie {
			case TieEliminateAll:
				eliminated = append(eliminated, group...)
			case TieArbitraryWinner:
				win := 0
				for i, s := range group {
					if s.WormID < group[win].WormID {
						win = i
					}
					_ = i
				}
				g := group[win]
				c.occupant[w] = &g
				accepted = append(accepted, g)
				for i, s := range group {
					if i != win {
						eliminated = append(eliminated, s)
					}
				}
			}
		case Priority:
			best := -1
			for i, s := range group {
				if best < 0 || s.Rank > group[best].Rank ||
					(s.Rank == group[best].Rank && s.WormID < group[best].WormID) {
					best = i
				}
			}
			winner := group[best]
			if cur != nil && cur.Rank >= winner.Rank {
				// Incumbent survives; all arrivals eliminated.
				eliminated = append(eliminated, group...)
				continue
			}
			if cur != nil {
				eliminated = append(eliminated, *cur)
			}
			g := winner
			c.occupant[w] = &g
			accepted = append(accepted, g)
			for i, s := range group {
				if i != best {
					eliminated = append(eliminated, s)
				}
			}
		}
	}
	return accepted, eliminated
}
