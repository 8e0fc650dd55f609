package lowerbound

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/optical"
	"repro/internal/sim"
)

// cyclicCounts are the exact one-round transitions of one Figure 6 gadget
// as E4 and E5 run it: L = 4, B = 1, Δ = 2L, oracle acknowledgements,
// drain, ties eliminated. counts[S][A] is the number of runs with active
// set S (bit i = path i) that acknowledge exactly the worms of A, over
// every delay tuple in [0, Δ)^|S| and, under priority, every rank order
// of S: 728 runs under serve-first and 3,480 under priority. With all
// three worms active under serve-first, none is acknowledged in 101 of
// 512 runs (0.1973), the mutual-elimination cycle. The counts were
// computed with RunReference; the test logs them in this form, so
//
//	go test -run '^TestCyclicTripleExact$' -v ./internal/lowerbound
//
// regenerates them.
var cyclicCounts = map[optical.Rule][8][8]int{
	optical.ServeFirst: {
		0: {0, 0, 0, 0, 0, 0, 0, 0},
		1: {0, 8, 0, 0, 0, 0, 0, 0},
		2: {0, 0, 8, 0, 0, 0, 0, 0},
		3: {6, 12, 22, 24, 0, 0, 0, 0},
		4: {0, 0, 0, 0, 8, 0, 0, 0},
		5: {6, 22, 0, 0, 12, 24, 0, 0},
		6: {6, 0, 12, 0, 22, 0, 24, 0},
		7: {101, 60, 60, 67, 60, 67, 67, 30},
	},
	optical.Priority: {
		0: {0, 0, 0, 0, 0, 0, 0, 0},
		1: {0, 8, 0, 0, 0, 0, 0, 0},
		2: {0, 0, 8, 0, 0, 0, 0, 0},
		3: {0, 40, 40, 48, 0, 0, 0, 0},
		4: {0, 0, 0, 0, 8, 0, 0, 0},
		5: {0, 40, 0, 0, 40, 48, 0, 0},
		6: {0, 0, 40, 0, 40, 0, 48, 0},
		7: {0, 509, 509, 455, 509, 455, 455, 180},
	},
}

// TestCyclicTripleExact runs the cyclic triple exhaustively on the engine
// and on the reference simulator and requires both to give the pinned
// transition counts: an exact engine-versus-reference check on the
// gadget of the paper's Figure 6.
func TestCyclicTripleExact(t *testing.T) {
	const L, B, delta = 4, 1, 8
	c := Cyclic(1, L/2+4, L).Collection
	g := c.Graph()
	eng := sim.NewEngine()
	for rule, wantRuns := range map[optical.Rule]int{optical.ServeFirst: 728, optical.Priority: 3480} {
		cfg := sim.Config{Bandwidth: B, Rule: rule}
		var ref, got [8][8]int
		runs := 0
		for set := 1; set < 8; set++ {
			var active []int
			for i := range 3 {
				if set>>i&1 == 1 {
					active = append(active, i)
				}
			}
			orders := [][]int{make([]int, len(active))}
			if rule == optical.Priority {
				orders = rankOrders(len(active))
			}
			tuples := 1
			for range active {
				tuples *= delta
			}
			worms := make([]sim.Worm, len(active))
			for tuple := range tuples {
				for _, ranks := range orders {
					for k, i := range active {
						worms[k] = sim.Worm{ID: i, Route: c.Route(i), Length: L,
							Delay: tuple / pow(delta, k) % delta, Rank: ranks[k]}
					}
					r, err := sim.RunReference(g, worms, cfg)
					if err != nil {
						t.Fatal(err)
					}
					ref[set][ackedSet(r, active)]++
					e, err := eng.Run(g, worms, cfg)
					if err != nil {
						t.Fatal(err)
					}
					got[set][ackedSet(e, active)]++
					runs++
				}
			}
		}
		if runs != wantRuns {
			t.Errorf("%v: %d runs, want %d", rule, runs, wantRuns)
		}
		t.Logf("%v counts from the reference:\n%s", rule, literal(ref))
		if want := cyclicCounts[rule]; ref != want || got != want {
			t.Errorf("%v: reference counts\n%s\nengine counts\n%s\npinned\n%s", rule, literal(ref), literal(got), literal(want))
		}
	}
}

// ackedSet is the set of active worms a run acknowledged, bit i for path i.
func ackedSet(r *sim.Result, active []int) int {
	set := 0
	for k, i := range active {
		if r.Outcomes[k].Acked {
			set |= 1 << i
		}
	}
	return set
}

// rankOrders lists every permutation of the ranks 0..k-1.
func rankOrders(k int) [][]int {
	if k == 0 {
		return [][]int{{}}
	}
	var out [][]int
	for _, p := range rankOrders(k - 1) {
		for at := 0; at <= len(p); at++ {
			q := append(append(append([]int{}, p[:at]...), k-1), p[at:]...)
			out = append(out, q)
		}
	}
	return out
}

func pow(b, e int) int {
	r := 1
	for range e {
		r *= b
	}
	return r
}

// literal renders counts as the Go literal cyclicCounts holds.
func literal(c [8][8]int) string {
	var b strings.Builder
	b.WriteString("{\n")
	for set, row := range c {
		fmt.Fprintf(&b, "\t%d: {", set)
		for a, n := range row {
			if a > 0 {
				b.WriteString(", ")
			}
			fmt.Fprint(&b, n)
		}
		b.WriteString("},\n")
	}
	b.WriteString("}")
	return b.String()
}
