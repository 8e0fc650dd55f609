package sim

import "repro/internal/graph"

// Occupant returns the batch index of the worm occupying (band, link, wavelength) at step
// t, and whether the slot was occupied.
func (tl *Timeline) Occupant(t int, band Band, link graph.LinkID, wave int) (worm int, ok bool) {
	c, ok := tl.cells[timelineKey{band: band, link: link, wave: wave, t: t}]
	return c.worm, ok
}

// Steps returns the last recorded step.
func (tl *Timeline) Steps() int { return tl.maxT }

// route checks p against g for a worm literal. It panics on a path the
// check refuses: tests of the refusals call g.AppendRoute themselves.
func route(g *graph.Graph, p graph.Path) graph.Route {
	r, _, err := g.AppendRoute(nil, p)
	if err != nil {
		panic(err)
	}
	return r
}

// markAlone returns a copy of worms with Alone set on exactly the worms
// that meet no other (the exact check Run applies under CheckInvariants),
// and the number it marked.
func markAlone(g *graph.Graph, worms []Worm, ackLen int) ([]Worm, int) {
	marked := append([]Worm(nil), worms...)
	n := 0
	for i, j := range meetings(g, worms, ackLen) {
		marked[i].Alone = j < 0
		if j < 0 {
			n++
		}
	}
	return marked, n
}
