// Package witness reconstructs the paper's witness structures (Section 2,
// Figure 4) from recorded protocol traces.
//
// For every round, the collision events induce a directed graph G on the
// worms: an edge w -> w' means w' prevented w from moving forward (w' is
// w's witness). Claim 2.6 proves that for leveled collections under the
// serve-first rule, and for short-cut free collections under the priority
// rule, the connected components of G are directed trees rooted at worms
// that succeeded or were blocked by new causes ("new worms") — in
// particular G is acyclic. For short-cut free collections under the
// serve-first rule, directed cycles of mutually eliminating worms are
// possible, which is exactly why Main Theorem 1.2 is weaker; this package
// measures how often they occur (experiment F4).
package witness

import (
	"fmt"
	"io"
	"sort"
	"strings"

	"repro/internal/sim"
)

// Edge is one blocking relation: the loser's witness, with the time of
// the collision (used to tell genuine blocking cycles from simultaneous
// mutual-elimination ties, which the paper's continuous-time model rules
// out but discrete time steps permit).
type Edge struct {
	Blocker int
	Time    int
}

// RoundGraph is the blocking graph of one protocol round: each failed
// worm points at the worm that first prevented it from moving forward.
// Acknowledgement collisions are excluded: the witness argument concerns
// the forward passes.
type RoundGraph struct {
	// Blocker maps a loser worm ID to its witness edge.
	Blocker map[int]Edge
}

// BuildRoundGraph extracts the blocking graph from one round's collision
// trace, keeping each message worm's earliest collision.
func BuildRoundGraph(trace []sim.Collision) *RoundGraph {
	first := make(map[int]sim.Collision)
	for _, c := range trace {
		if c.LoserIsAck {
			continue
		}
		if prev, ok := first[c.Loser]; !ok || c.Time < prev.Time {
			first[c.Loser] = c
		}
	}
	g := &RoundGraph{Blocker: make(map[int]Edge, len(first))}
	//optlint:allow mapiter order-independent map-to-map copy
	for loser, c := range first {
		g.Blocker[loser] = Edge{Blocker: c.Blocker, Time: c.Time}
	}
	return g
}

// Losers returns the failed worms in ascending ID order.
func (g *RoundGraph) Losers() []int {
	out := make([]int, 0, len(g.Blocker))
	for w := range g.Blocker {
		out = append(out, w)
	}
	sort.Ints(out)
	return out
}

// Cycles returns the directed cycles of the blocking graph (each as a
// worm-ID slice in chain order, started at its smallest ID). Since every
// node has out-degree at most one, the graph is functional and cycles are
// disjoint.
func (g *RoundGraph) Cycles() [][]int {
	const (
		white = 0 // unvisited
		gray  = 1 // on the current chain
		black = 2 // finished
	)
	state := make(map[int]int, len(g.Blocker))
	var cycles [][]int
	losers := g.Losers()
	for _, start := range losers {
		if state[start] != white {
			continue
		}
		// Walk the chain, marking gray.
		var chain []int
		w := start
		for {
			if state[w] == gray {
				// Found a cycle: the suffix of chain starting at w.
				var cyc []int
				for i := len(chain) - 1; i >= 0; i-- {
					cyc = append([]int{chain[i]}, cyc...)
					if chain[i] == w {
						break
					}
				}
				cycles = append(cycles, normalizeCycle(cyc))
				break
			}
			if state[w] == black {
				break
			}
			state[w] = gray
			chain = append(chain, w)
			next, ok := g.Blocker[w]
			if !ok {
				break // reached a root
			}
			w = next.Blocker
		}
		for _, v := range chain {
			state[v] = black
		}
	}
	return cycles
}

func normalizeCycle(c []int) []int {
	if len(c) == 0 {
		return c
	}
	min := 0
	for i, v := range c {
		if v < c[min] {
			min = i
		}
	}
	out := make([]int, 0, len(c))
	out = append(out, c[min:]...)
	out = append(out, c[:min]...)
	return out
}

// IsTieCycle reports whether the given cycle consists entirely of
// collisions at one time step: a simultaneous mutual elimination. Such
// cycles are artifacts of the discrete tie policy — in the paper's model
// exact ties do not occur — and do not contradict Claim 2.6.
func (g *RoundGraph) IsTieCycle(cycle []int) bool {
	if len(cycle) == 0 {
		return false
	}
	t0 := g.Blocker[cycle[0]].Time
	for _, w := range cycle[1:] {
		if g.Blocker[w].Time != t0 {
			return false
		}
	}
	return true
}

// ProperCycles returns the cycles that are NOT simultaneous ties: the
// genuine mutual-blocking chains Claim 2.6 excludes for leveled
// serve-first and short-cut free priority routing.
func (g *RoundGraph) ProperCycles() [][]int {
	var out [][]int
	for _, c := range g.Cycles() {
		if !g.IsTieCycle(c) {
			out = append(out, c)
		}
	}
	return out
}

// SatisfiesClaim26 reports whether the round's blocking graph has no
// proper (non-tie) directed cycle.
func (g *RoundGraph) SatisfiesClaim26() bool { return len(g.ProperCycles()) == 0 }

// Analysis aggregates the blocking graphs of a full protocol run.
type Analysis struct {
	Rounds []*RoundGraph
}

// Analyze builds the per-round blocking graphs from the protocol's
// recorded traces (core.Result.RoundTraces).
func Analyze(traces [][]sim.Collision) *Analysis {
	a := &Analysis{Rounds: make([]*RoundGraph, len(traces))}
	for i, tr := range traces {
		a.Rounds[i] = BuildRoundGraph(tr)
	}
	return a
}

// SatisfiesClaim26 reports whether no round has a proper (non-tie)
// blocking cycle — the empirical statement of Claim 2.6.
func (a *Analysis) SatisfiesClaim26() bool {
	for _, g := range a.Rounds {
		if !g.SatisfiesClaim26() {
			return false
		}
	}
	return true
}

// TotalCycles counts directed blocking cycles across all rounds.
func (a *Analysis) TotalCycles() int {
	n := 0
	for _, g := range a.Rounds {
		n += len(g.Cycles())
	}
	return n
}

// TotalProperCycles counts non-tie blocking cycles across all rounds.
func (a *Analysis) TotalProperCycles() int {
	n := 0
	for _, g := range a.Rounds {
		n += len(g.ProperCycles())
	}
	return n
}

// WitnessDepth returns the depth of the witness tree for the given worm:
// the number of consecutive rounds, counted from round 1, in which the
// worm failed. A worm that succeeded in round 1 has depth 0. This equals
// the t of the paper's W(t) for the worm once it finally succeeds.
func (a *Analysis) WitnessDepth(worm int) int {
	depth := 0
	for _, g := range a.Rounds {
		if _, failed := g.Blocker[worm]; !failed {
			break
		}
		depth++
	}
	return depth
}

// WitnessTree materializes the paper's witness structure for a worm that
// is still failing after `depth` rounds: level i (0-based) holds the worm
// set V_i, where V_0 = {worm} and V_i adds the witnesses, at round
// depth-i, of every worm in V_{i-1} (Section 2.1 builds the tree from the
// last round backwards). It returns the level sets; worms without a
// recorded witness at some level simply contribute nothing there.
func (a *Analysis) WitnessTree(worm, depth int) [][]int {
	if depth > len(a.Rounds) {
		depth = len(a.Rounds)
	}
	levels := make([][]int, 0, depth+1)
	cur := map[int]bool{worm: true}
	levels = append(levels, setToSlice(cur))
	for i := 1; i <= depth; i++ {
		round := a.Rounds[depth-i]
		next := make(map[int]bool, 2*len(cur))
		//optlint:allow mapiter order-independent set expansion; levels are sorted by setToSlice
		for w := range cur {
			next[w] = true
			if e, ok := round.Blocker[w]; ok {
				next[e.Blocker] = true
			}
		}
		levels = append(levels, setToSlice(next))
		cur = next
	}
	return levels
}

func setToSlice(s map[int]bool) []int {
	out := make([]int, 0, len(s))
	for w := range s {
		out = append(out, w)
	}
	sort.Ints(out)
	return out
}

// RenderTree writes the worm's witness tree as indented ASCII, one level
// per line group — the textual form of the paper's Figure 4. Level i
// shows the worms of V_i; each worm is annotated with its witness in the
// corresponding round (the paper builds level i from round depth-i+1).
func (a *Analysis) RenderTree(w io.Writer, worm, depth int) {
	levels := a.WitnessTree(worm, depth)
	fmt.Fprintf(w, "witness tree of worm %d (depth %d)\n", worm, len(levels)-1)
	for i, lv := range levels {
		fmt.Fprintf(w, "%sV_%d:", strings.Repeat("  ", i), i)
		for _, x := range lv {
			label := fmt.Sprintf(" %d", x)
			if i > 0 && len(a.Rounds) >= len(levels)-1 {
				round := a.Rounds[len(levels)-1-i]
				if e, ok := round.Blocker[x]; ok {
					label = fmt.Sprintf(" %d<-%d", x, e.Blocker)
				}
			}
			fmt.Fprint(w, label)
		}
		fmt.Fprintln(w)
	}
}
