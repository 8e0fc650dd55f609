package sim

import (
	"fmt"
	"io"
	"sort"

	"repro/internal/graph"
)

// Trace runs the reference simulator (RunReference, fault plan included)
// while recording a space-time occupancy diagram: which worm occupied
// which directed link on which wavelength at every step. It is intended
// for small scenarios — teaching, debugging, and the documentation
// figures — and costs O(steps * flits).
func Trace(g *graph.Graph, worms []Worm, cfg Config) (*Result, *Timeline, error) {
	if err := checkWorms(g, worms, cfg); err != nil {
		return nil, nil, err
	}
	tl := &Timeline{
		g:     g,
		cells: make(map[timelineKey]cell),
	}
	res, err := runReference(g, worms, cfg, tl)
	if err != nil {
		return nil, nil, err
	}
	tl.result = res
	return res, tl, nil
}

// Timeline is the recorded space-time diagram.
type Timeline struct {
	g      *graph.Graph
	cells  map[timelineKey]cell
	maxT   int
	result *Result
}

type timelineKey struct {
	band Band
	link graph.LinkID
	wave int
	t    int
}

type cell struct {
	worm  int
	isAck bool
}

// record stores one occupancy observation.
func (tl *Timeline) record(t int, band Band, link graph.LinkID, wave, worm int, isAck bool) {
	tl.cells[timelineKey{band: band, link: link, wave: wave, t: t}] = cell{worm: worm, isAck: isAck}
	if t > tl.maxT {
		tl.maxT = t
	}
}

// Render writes an ASCII space-time diagram of the given band: one row
// per (directed link, wavelength) that ever carried traffic, one column
// per step. Cells show the worm's batch index modulo 10 ('A'+index%26
// for acks), '.' when free. Rows are sorted by link then wavelength.
func (tl *Timeline) Render(w io.Writer, band Band) {
	type rowKey struct {
		link graph.LinkID
		wave int
	}
	rows := map[rowKey]bool{}
	//optlint:allow mapiter order-independent set build; rows are sorted below
	for k := range tl.cells {
		if k.band == band {
			rows[rowKey{link: k.link, wave: k.wave}] = true
		}
	}
	sorted := make([]rowKey, 0, len(rows))
	for rk := range rows {
		sorted = append(sorted, rk)
	}
	sort.Slice(sorted, func(a, b int) bool {
		if sorted[a].link != sorted[b].link {
			return sorted[a].link < sorted[b].link
		}
		return sorted[a].wave < sorted[b].wave
	})
	name := "messages"
	if band == AckBand {
		name = "acks"
	}
	fmt.Fprintf(w, "space-time diagram (%s), %d steps\n", name, tl.maxT+1)
	for _, rk := range sorted {
		l := tl.g.Link(rk.link)
		fmt.Fprintf(w, "%3d->%-3d w%d |", l.From, l.To, rk.wave)
		for t := 0; t <= tl.maxT; t++ {
			if c, ok := tl.cells[timelineKey{band: band, link: rk.link, wave: rk.wave, t: t}]; ok {
				if c.isAck {
					fmt.Fprintf(w, "%c", 'A'+byte(c.worm%26))
				} else {
					fmt.Fprintf(w, "%d", c.worm%10)
				}
			} else {
				fmt.Fprint(w, ".")
			}
		}
		fmt.Fprintln(w, "|")
	}
}

// WormEvents summarizes one worm's fate for annotation under a diagram.
func (tl *Timeline) WormEvents(i int) string {
	o := tl.result.Outcomes[i]
	switch {
	case o.Delivered && o.Acked:
		return fmt.Sprintf("worm %d: delivered at %d, acked at %d", i, o.DeliveredAt, o.AckedAt)
	case o.Delivered:
		return fmt.Sprintf("worm %d: delivered at %d, ack lost", i, o.DeliveredAt)
	default:
		return fmt.Sprintf("worm %d: cut at link %d, step %d", i, o.CutLink, o.CutTime)
	}
}
