package sim

import (
	"testing"

	"repro/internal/faults"
	"repro/internal/graph"
	"repro/internal/optical"
	"repro/internal/topology"
)

// FuzzEngineVsReference decodes arbitrary bytes into a routing scenario,
// fault plan included, and asserts the engine and the per-flit reference
// simulator produce identical Results. `go test` runs the seed corpus; `go
// test -fuzz=FuzzEngineVsReference ./internal/sim` explores further.
func FuzzEngineVsReference(f *testing.F) {
	f.Add([]byte{1, 0, 3, 1, 0, 2, 5, 1})
	f.Add([]byte{0, 2, 0, 0, 0, 0, 1, 1, 2, 3, 4, 5, 6, 7, 8, 9})
	f.Add([]byte{3, 1, 7, 2, 9, 0, 4, 4, 4, 4, 1, 2, 3})
	// Conversion enabled (bit 6), B=2..4, both rules.
	f.Add([]byte{1, 0x41, 3, 1, 0, 2, 5, 1, 9, 9, 9, 9})
	f.Add([]byte{2, 0x45, 0, 0, 0, 0, 1, 1, 2, 3, 4, 5, 6, 7})
	f.Add([]byte{0, 0x67, 7, 2, 9, 0, 4, 4, 4, 4, 1, 2, 3, 8, 8})
	// Priority + Drain with acks (bits 2 and 5).
	f.Add([]byte{1, 0x24, 5, 1, 3, 3, 2, 2, 7, 0, 1, 6})
	f.Add([]byte{2, 0x2c, 5, 1, 3, 3, 2, 2, 7, 0, 1, 6, 0xff, 0x10})
	// Attached empty fault plan (bit 7, zero faults): must stay byte-for-byte.
	f.Add([]byte{1, 0x80, 0, 3, 1, 0, 2, 5, 1})
	f.Add([]byte{2, 0xac, 0, 5, 1, 3, 3, 2, 2, 7, 0, 1, 6, 0xff, 0x10})
	f.Add([]byte{0, 0xe7, 0, 7, 2, 9, 0, 4, 4, 4, 4, 1, 2, 3, 8, 8})
	// Extended bandwidths via the graph byte's high bits: B ∈ {63, 64, 65}
	// straddles the 64-slot occupancy word boundary (B=1 is cfg bits 0-1).
	f.Add([]byte{0x10, 0x41, 3, 1, 0, 2, 5, 1, 9, 9, 9, 9})
	f.Add([]byte{0x21, 0x04, 5, 1, 3, 3, 2, 2, 7, 0, 1, 6})
	f.Add([]byte{0x32, 0x45, 0, 0, 0, 0, 1, 1, 2, 3, 4, 5, 6, 7})
	f.Add([]byte{0x30, 0x67, 7, 2, 9, 0, 4, 4, 4, 4, 1, 2, 3, 8, 8})
	// Per-link collision storms: identical worm groups (same source, path,
	// spawn step, and wavelength) all contending for one link at once.
	f.Add([]byte{0, 0x00, 2, 0, 0, 0, 2, 0, 0, 0, 2, 0, 0, 0, 2, 0, 0, 0})
	f.Add([]byte{0, 0x10, 2, 0, 0, 0, 2, 0, 0, 0, 2, 0, 0, 0, 2, 0, 0, 0})
	f.Add([]byte{0, 0x41, 2, 0, 0, 0, 2, 0, 0, 0, 2, 0, 0, 0, 2, 0, 0, 0})
	// One fault of each kind on chain(6). A link outage on link 2 (1->2)
	// from step 3 kills a 3-flit worm mid-body and a later entrant.
	f.Add([]byte{0, 0xa0, 0x09, 0x00, 2, 0x03, 0, 3, 0, 1, 1, 1, 0x02, 1, 0, 1, 0x14})
	// A dark wavelength 1 on link 0 kills a worm on it and blocks the
	// conversion rescue of a worm losing on wavelength 0.
	f.Add([]byte{0, 0xc1, 0x01, 0x09, 0, 0x00, 0, 1, 0, 1, 0x01, 0, 1, 0, 1, 0x05, 0, 0, 0, 0x28})
	// An ack loss on link 3 (2->1) swallows an ack.
	f.Add([]byte{0, 0xa0, 0x01, 0x02, 3, 0x00, 0, 2, 0, 1, 1, 0x01})
	// A stuck coupler at node 1 keeps a low-rank incumbent under priority.
	f.Add([]byte{0, 0x84, 0x01, 0x03, 1, 0x00, 0, 2, 0, 1, 1, 0x02, 1, 1, 1, 1, 0x09})
	// The ack-loss pin: a 3-flit ack is already on link 3 when an ack loss
	// starts there at step 5; the link-1 outage at step 6 kills its middle
	// flit, and the remnant behind must survive on link 3 (1 fault kill).
	f.Add([]byte{0, 0xa0, 0x12, 0x02, 3, 0x05, 0x00, 1, 0x06, 0, 2, 0, 1, 1, 0x00})
	// All four kinds with windows and repairs on the 3x3 torus, B=2,
	// priority, conversion and 2-flit acks.
	f.Add([]byte{2, 0xe5, 0x0c, 0x00, 5, 0x62, 0x05, 7, 0x00, 0x02, 12, 0x84, 0x03, 4, 0xa1,
		0x31, 0xc5, 0xac, 0x30, 0xa3, 0x9d, 0x5a, 0x44, 0x00, 0xa9, 0xa7, 0xee, 0x7c, 0x25, 0x31,
		0x3d, 0x0d, 0xe0, 0x30, 0x46, 0xda, 0x7a, 0xe0, 0x4d, 0xa5, 0x5b, 0x73, 0x8b, 0xcd, 0xe9})
	// The 32x32 torus (graph-byte bit 6) with acks, B=2: two messages from
	// node 1 whose acks meet on link 2->1 at step 5, while two identical
	// worms collide on link 64->65, so one step resolves buckets in both
	// summary words. Serve-first with ties eliminated, then priority with
	// an arbitrary tie winner.
	f.Add([]byte{0x40, 0x21, 1, 2, 1, 2, 3, 0x00, 1, 1, 1, 1, 0x08, 64, 0, 1, 0x14, 64, 0, 1, 0x14})
	f.Add([]byte{0x40, 0x35, 1, 2, 1, 2, 3, 0x00, 1, 1, 1, 1, 0x08, 64, 0, 1, 0x14, 64, 0, 1, 0x14})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 4 {
			return
		}
		g, worms, cfg := decodeScenario(data)
		if len(worms) == 0 {
			return
		}
		cfg.RecordCollisions = true
		cfg.CheckInvariants = true
		fast, errF := NewEngine().Run(g, worms, cfg)
		cfg.CheckInvariants = false
		ref, errR := RunReference(g, worms, cfg)
		if (errF != nil) != (errR != nil) {
			t.Fatalf("error disagreement: engine %v, reference %v", errF, errR)
		}
		if errF != nil {
			return
		}
		compareResults(t, "engine-vs-reference", fast, ref)
	})
}

// wideTorus is decodeScenario's 32x32 torus, built once: graphs are
// read-only to the engine and the reference.
var wideTorus = topology.NewTorus(2, 32).Graph()

// decodeScenario deterministically maps fuzz bytes to a small scenario.
// Config byte layout: bits 0-1 bandwidth-1, bit 2 rule, bit 3 wreckage,
// bit 4 tie, bit 5 acknowledgements, bit 6 wavelength conversion, bit 7
// an attached fault plan.
// Graph byte: bit 6 picks a 32x32 torus, whose two bands fall in two
// different summary words of the engine's bucket bitmap; otherwise the
// byte's value mod 3 picks the chain, the ring or the 3x3 torus. Bits 4-5,
// when nonzero, override the bandwidth to 62+ext ∈ {63, 64, 65} so the
// packed path's 64-slot word boundary is exercised (zero keeps the
// config-byte bandwidth).
// Plan byte (present when bit 7 is set): bits 0-2 count the faults (zero
// attaches an empty plan, which must not change any result byte), and
// bits 3-4 lengthen acknowledgements to 1+ext flits, so fault kills can
// split them. Three bytes per fault follow: the kind (bits 0-1) with the
// band (bit 2) and wavelength (bits 3-7) of a wavelength outage; the link
// or, for a stuck coupler, the node; and the window, starting at the low
// nibble and lasting the high nibble (zero: never repaired).
func decodeScenario(data []byte) (*graph.Graph, []Worm, Config) {
	next := func() byte {
		if len(data) == 0 {
			return 0
		}
		b := data[0]
		data = data[1:]
		return b
	}
	graphs := []*graph.Graph{
		topology.NewChain(6).Graph(),
		topology.NewRing(5).Graph(),
		topology.NewTorus(2, 3).Graph(),
	}
	gb := next()
	g := graphs[int(gb)%len(graphs)]
	if gb&0x40 != 0 {
		g = wideTorus
	}
	cfgByte := next()
	cfg := Config{
		Bandwidth: 1 + int(cfgByte&3),
		Rule:      optical.Rule(int(cfgByte>>2) & 1),
		Wreckage:  WreckagePolicy(int(cfgByte>>3) & 1),
		Tie:       optical.TiePolicy(int(cfgByte>>4) & 1),
		AckLength: int(cfgByte>>5) & 1,
	}
	if cfgByte>>6&1 == 1 {
		cfg.Conversion = FullConversion
	}
	if ext := int(gb>>4) & 3; ext > 0 {
		cfg.Bandwidth = 62 + ext
	}
	if cfgByte>>7&1 == 1 {
		pb := next()
		if cfg.AckLength > 0 {
			cfg.AckLength += int(pb>>3) & 3
		}
		plan := &faults.Plan{}
		for range int(pb & 7) {
			kb, target, window := next(), int(next()), next()
			f := faults.Fault{Kind: faults.Kind(kb & 3), Start: int(window & 15)}
			if d := int(window >> 4); d > 0 {
				f.End = f.Start + d
			}
			if f.Kind == faults.StuckCoupler {
				f.Node = target % g.NumNodes()
			} else {
				f.Link = target % g.NumLinks()
			}
			if f.Kind == faults.WavelengthOutage {
				f.Band = int(kb>>2) & 1
				f.Wavelength = int(kb>>3) % cfg.Bandwidth
			}
			plan.Faults = append(plan.Faults, f)
		}
		cfg.Faults = plan.MustCompile(g, cfg.Bandwidth)
	}
	n := g.NumNodes()
	rows := neighborRows(g)
	var worms []Worm
	id := 0
	for len(data) >= 4 && id < 12 {
		src := int(next()) % n
		hops := 1 + int(next())%4
		p := graph.Path{src}
		for h := 0; h < hops; h++ {
			ns := rows[p[len(p)-1]]
			p = append(p, ns[int(next())%len(ns)])
		}
		b := next()
		worms = append(worms, Worm{
			Route:      route(g, p),
			Length:     1 + int(b&3),
			Delay:      int(b>>2) & 7,
			Wavelength: int(b>>5) % cfg.Bandwidth,
			Rank:       id, // distinct ranks
		})
		id++
	}
	return g, worms, cfg
}
